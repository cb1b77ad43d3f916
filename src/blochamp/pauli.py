"""Pauli-coefficient algebra for qubit operators with an unnormalized trace.

Operators are handled either as 2x2 complex matrices or through their
coefficients in the basis (I, sigma_x, sigma_y, sigma_z).  States carry a
trace tau > 0 together with the coordinate vector r = (x, y, z); positivity
of the operator (tau*I + r.sigma)/2 is the cone condition |r| <= tau, a cone
over the Bloch ball with pure states on its surface |r| = tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tolerances import APEX_TAU, CONE_TOL, HERMITIAN_TOL, PURE_TOL

__all__ = [
    "SIGMA_0", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SIGMA",
    "APEX_TAU", "CONE_TOL",
    "PauliVectorC", "HermitianPauliVector", "PsdState",
    "reconstruct", "decompose", "spectrum", "is_pure",
    "purity_entropy", "expectation", "trace_product",
]

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


def _frozen_array(obj, attr, value, shape, dtype=float):
    arr = np.array(value, dtype=dtype).reshape(shape)
    if not np.isfinite(arr).all():
        raise ValueError(f"{type(obj).__name__}.{attr} must be finite, got {arr.tolist()}")
    arr.setflags(write=False)
    object.__setattr__(obj, attr, arr)
    return arr


@dataclass(frozen=True, eq=False)
class PauliVectorC:
    """Complex coefficients xi of a 2x2 operator B = sum_mu xi_mu sigma_mu."""

    xi: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "xi", self.xi, (4,), dtype=complex)

    @classmethod
    def from_matrix(cls, b: np.ndarray) -> "PauliVectorC":
        b = np.asarray(b, dtype=complex)
        if b.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {b.shape}")
        xi = np.array([np.trace(s @ b) / 2.0 for s in SIGMA])
        return cls(xi)

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((2, 2), dtype=complex)
        for coeff, s in zip(self.xi, SIGMA):
            m += coeff * s
        return m

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.xi))


@dataclass(frozen=True, eq=False)
class HermitianPauliVector:
    """Real coefficients ell of a Hermitian operator ell_mu sigma_mu."""

    ell: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "ell", self.ell, (4,))

    @classmethod
    def from_matrix(cls, m: np.ndarray,
                    tol: float = HERMITIAN_TOL) -> "HermitianPauliVector":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        dev = np.abs(m - m.conj().T).max()
        if dev > tol * max(1.0, np.abs(m).max()):
            raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
        ell = np.array([np.trace(s @ m).real / 2.0 for s in SIGMA])
        return cls(ell)

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((2, 2), dtype=complex)
        for coeff, s in zip(self.ell, SIGMA):
            m += coeff * s
        return m

    @property
    def vec(self) -> np.ndarray:
        """The sigma_x, sigma_y, sigma_z components."""
        return self.ell[1:]


@dataclass(frozen=True, eq=False)
class PsdState:
    """Extended qubit state (tau, r) on the cone of PSD operators.

    With ``physical=True`` (the default) the constructor enforces
    tau >= APEX_TAU and |r| <= tau up to CONE_TOL.  Non-physical states are
    allowed for off-cone probes and for propagating operator-basis elements.
    """

    tau: float
    r: np.ndarray
    physical: bool = field(default=True)

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        if not math.isfinite(self.tau):
            raise ValueError(f"PsdState.tau must be finite, got {self.tau!r}")
        r = _frozen_array(self, "r", self.r, (3,))
        if self.physical:
            if self.tau < APEX_TAU:
                raise ValueError(
                    f"tau={self.tau:.3e} is below the apex cutoff {APEX_TAU:.0e}")
            rn = float(np.linalg.norm(r))
            if rn > self.tau + CONE_TOL * max(1.0, self.tau):
                raise ValueError(
                    f"|r|={rn:.12g} exceeds tau={self.tau:.12g}: outside the PSD cone")

    @property
    def r_norm(self) -> float:
        return float(np.linalg.norm(self.r))

    @property
    def cone_margin(self) -> float:
        """tau - |r|; nonnegative inside the cone, zero on pure states."""
        return self.tau - self.r_norm


def reconstruct(state: PsdState) -> np.ndarray:
    """Return the 2x2 Hermitian matrix (tau*I + r.sigma)/2."""
    tau = state.tau
    x, y, z = state.r
    return 0.5 * np.array([[tau + z, x - 1j * y],
                           [x + 1j * y, tau - z]], dtype=complex)


def decompose(m: np.ndarray, physical: bool = True,
              tol: float = HERMITIAN_TOL) -> PsdState:
    """Inverse of :func:`reconstruct`: tau = tr(m), r_a = tr(sigma_a m)."""
    h = HermitianPauliVector.from_matrix(m, tol=tol)
    return PsdState(2.0 * h.ell[0], 2.0 * h.vec, physical=physical)


def spectrum(state: PsdState) -> tuple[float, float]:
    """Eigenvalues ((tau + |r|)/2, (tau - |r|)/2) of the reconstructed matrix."""
    rn = state.r_norm
    return (0.5 * (state.tau + rn), 0.5 * (state.tau - rn))


def is_pure(state: PsdState, tol: float = PURE_TOL) -> bool:
    """True when the state sits on the cone surface, |tau - |r|| <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return abs(state.tau - state.r_norm) <= tol


def purity_entropy(state: PsdState) -> tuple[float, float]:
    """Purity tr(rho^2) and von Neumann entropy (natural log) of rho = X/tau."""
    if state.tau <= 0:
        raise ValueError("purity and entropy require tau > 0")
    p = min(state.r_norm / state.tau, 1.0)
    purity = 0.5 * (1.0 + p * p)
    entropy = 0.0
    for lam in (0.5 * (1.0 + p), 0.5 * (1.0 - p)):
        if lam > 0.0:
            entropy -= lam * math.log(lam)
    return purity, entropy


def trace_product(state: PsdState, obs: HermitianPauliVector) -> float:
    """Unnormalized pairing tr(X A) = tau*a_0 + r.a."""
    return state.tau * obs.ell[0] + float(state.r @ obs.vec)


def expectation(state: PsdState, obs: HermitianPauliVector) -> float:
    """Expectation value tr(X A)/tr(X); invariant under rescaling of (tau, r)."""
    if state.tau <= 0:
        raise ValueError("expectation values require tau > 0")
    return trace_product(state, obs) / state.tau
