"""Exact solution of the blochamp channel family, computed apart from blochamp.

A channel acts on a 2x2 operator X as

    dX/dt = Lambda(X) + g tr(X Omega) X,
    Lambda(X) = L X + X L + sum_a zeta_a B_a X B_a^dag - i [h.sigma, X],
    Omega = -2 L - sum_a zeta_a B_a^dag B_a.

Since tr Lambda(X) = -tr(X Omega), the linear flow Y(t) = e^{A t} y0 of the
real 4x4 matrix A of Lambda gives the solution X(t) = Y(t) / s(t) with
s(t) = 1 - g (tau0 - tr Y(t)).  Coordinates are y = (tau, x, y, z) with
X = (tau I + r.sigma) / 2.  Everything here is built from 2x2 operator
products and ``scipy.linalg.expm``; nothing is imported from blochamp.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = (I2, SX, SY, SZ)


def pauli_sum(coeffs) -> np.ndarray:
    return sum(c * s for c, s in zip(coeffs, SIGMA))


def coords(m: np.ndarray) -> np.ndarray:
    """(tau, x, y, z) of an operator: tau = tr m, r_a = tr(sigma_a m)."""
    return np.array([np.trace(s @ m) for s in SIGMA])


def operator(y) -> np.ndarray:
    return 0.5 * pauli_sum(y)


class Channel:
    """Operator form of one channel: damping L, signed jumps, g and h."""

    def __init__(self, L, jumps=(), g=0.0, h=(0.0, 0.0, 0.0)):
        self.L = np.asarray(L, dtype=complex)
        self.jumps = tuple((np.asarray(b, dtype=complex), int(z)) for b, z in jumps)
        self.g = float(g)
        self.H = pauli_sum([0.0, *h])
        self.omega = -2.0 * self.L - sum(
            (z * (b.conj().T @ b) for b, z in self.jumps), np.zeros((2, 2), complex))
        self.A = np.column_stack(
            [coords(self.linear(s / 2.0)).real for s in SIGMA])
        self.omega_coords = 0.5 * coords(self.omega).real
        self.cp = all(z == 1 for _, z in self.jumps)

    @classmethod
    def from_dict(cls, d: dict) -> "Channel":
        """Channel from the spec-file fields ``ell``, ``jumps``, ``g``, ``h``."""
        jumps = [(pauli_sum(np.asarray(j["xi_re"]) + 1j * np.asarray(j["xi_im"])),
                  j["zeta"]) for j in d.get("jumps", [])]
        return cls(pauli_sum(d["ell"]), jumps, d.get("g", 0.0),
                   d.get("h", (0.0, 0.0, 0.0)))

    def linear(self, x: np.ndarray) -> np.ndarray:
        out = self.L @ x + x @ self.L - 1j * (self.H @ x - x @ self.H)
        for b, z in self.jumps:
            out = out + z * (b @ x @ b.conj().T)
        return out

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """Operator-space velocity dX/dt at X."""
        return self.linear(x) + self.g * np.trace(x @ self.omega).real * x

    def propagator(self, t: float) -> np.ndarray:
        # Imported on first use: the workloads build their inputs with this
        # module and read their peak memory before any check loads scipy.
        from scipy.linalg import expm
        return expm(self.A * t)

    def solve(self, y0, t: float) -> tuple[np.ndarray, float]:
        """Exact state (tau, x, y, z) at time t and the normalizer s(t)."""
        y0 = np.asarray(y0, dtype=float)
        y = self.propagator(t) @ y0
        s = 1.0 - self.g * (y0[0] - y[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            return y / s, s

    def choi_spectrum(self, t: float) -> np.ndarray:
        """Ascending eigenvalues of sum_ij E_ij (x) Phi_t(E_ij); needs g = 0."""
        if self.g != 0.0:
            raise ValueError("the Choi matrix needs a linear channel")
        p = self.propagator(t)
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                choi += np.kron(e, operator(p @ coords(e)))
        return np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))


def margin(y) -> float:
    """Cone margin tau - |r|."""
    return float(y[0] - math.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2))


def purity_entropy(y) -> tuple[float, float]:
    p = min(math.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2) / y[0], 1.0)
    ent = -sum(v * math.log(v) for v in (0.5 * (1 + p), 0.5 * (1 - p)) if v > 0.0)
    return 0.5 * (1.0 + p * p), ent


def rel_dev(y, y_ref) -> float:
    """Norm-wise relative deviation of a state or spectrum from its reference."""
    y, y_ref = np.asarray(y, float), np.asarray(y_ref, float)
    return float(np.linalg.norm(y - y_ref) / max(np.linalg.norm(y_ref), 1e-300))


# ---------------------------------------------------------------------------
# The six presets, written out from their operator definitions.

def _raising(m):
    return m * (SY + 1j * SZ)


def _gain_loss(M, gamma):
    return [(math.sqrt(M / 2) * (SX + SY), 1), (math.sqrt(M / 2) * (I2 + SZ), 1),
            (math.sqrt(M - gamma / 2) * SZ, -1)]


def preset(name: str, **p) -> Channel:
    m = p.get("m", 1.0)
    M, gamma = p.get("M", 1.0), p.get("gamma", 0.5)
    if name == "linear_cptp":
        return Channel(m * m * (SX - I2), [(_raising(m), 1)])
    if name == "nojump_nino":
        return Channel(p.get("l0", 0.0) * I2 + p.get("l1", 1.0) * SX, [], 1.0)
    if name == "onejump_nino":
        return Channel(0 * I2, [(_raising(m), 1)], 1.0)
    if name == "pseudolinear_nino":
        return Channel(m * m * SX, [(_raising(m), 1)], 1.0)
    if name == "threejump_nino":
        return Channel(-(M / 2) * SZ, _gain_loss(M, gamma), 1.0)
    if name == "linear_noncp":
        return Channel(-(M + gamma / 2) / 2 * I2 - (M / 2) * SZ, _gain_loss(M, gamma))
    raise KeyError(name)


def slowdown_slope(ch: Channel, fp, direction) -> float:
    """Least-squares slope of log|dr/dt| against log delta on the plane."""
    fp = np.asarray(fp, float)
    d = np.asarray(direction, float) / np.linalg.norm(direction)
    deltas = np.logspace(-5, -2, 20)
    speeds = [np.linalg.norm(coords(ch.rhs(operator([1.0, *(fp - dl * d)])))[1:].real)
              for dl in deltas]
    return float(np.polyfit(np.log(deltas), np.log(speeds), 1)[0])
