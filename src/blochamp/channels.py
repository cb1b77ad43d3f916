"""Channel construction and classification in the Pauli basis.

A channel is specified by a Hermitian damping operator L (coefficients ell),
a set of jump operators B_alpha with signs zeta_alpha, and a nonlinearity
strength g.  The generator acts as

    dX/dt = {L, X} + sum_alpha zeta_alpha B_alpha X B_alpha^dag
            + g tr(X Omega) X,
    Omega = -2 L - sum_alpha zeta_alpha B_alpha^dag B_alpha,

which conserves the trace unconditionally when g = 0 and Omega = 0, and on
the unit-trace plane when g = 1.  In the coordinates y = (tau, r) it is
the flow y' = A y + g (w.y) y, with A a real 4x4 matrix and w the Pauli
coefficients of Omega.  This module assembles A, evaluates the flow
(``AffineGenerator.velocity``) and provides the shift symmetry
L -> L + c*I and the duality map onto linear channels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParams
from .pauli import HermitianPauliVector, PauliVectorC
from .tolerances import ROUNDOFF

__all__ = [
    "JumpTerm", "ChannelSpec", "AffineGenerator", "ChannelClass",
    "jump_generator", "assemble", "expm",
    "classify", "initial_velocity", "shift_transform", "dualize",
    "spec_to_dict", "spec_from_dict", "save_spec", "load_spec",
]


@dataclass(frozen=True, eq=False)
class JumpTerm:
    """One jump operator, as complex Pauli coefficients plus its sign.

    Rate constants are folded into the coefficients.  zeta must be exactly
    +1 or -1; a -1 sign marks a channel that is not completely positive.
    """

    xi: PauliVectorC
    zeta: int

    def __post_init__(self):
        if self.zeta not in (1, -1):
            raise InvalidParams(f"zeta must be +1 or -1, got {self.zeta!r}")
        object.__setattr__(self, "zeta", int(self.zeta))
        if self.xi.norm == 0.0:
            raise InvalidParams("jump operators must be nonzero")

    @property
    def matrix(self) -> np.ndarray:
        return self.xi.to_matrix()


def _zeros3():
    return np.zeros(3)


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Full channel definition: damping coefficients, jumps, nonlinearity.

    ``h`` adds a Hermitian Hamiltonian precession 2 h x r to the coordinate
    equation; amplification gates leave it at zero.
    """

    ell: HermitianPauliVector
    jumps: tuple[JumpTerm, ...] = ()
    g: float = 0.0
    h: np.ndarray = field(default_factory=_zeros3)

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        object.__setattr__(self, "g", float(self.g))
        h = np.array(self.h, dtype=float).reshape(3)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        if not np.isfinite(self.g):
            raise InvalidParams(f"g must be finite, got {self.g!r}")
        if not np.isfinite(h).all():
            raise InvalidParams(f"h must be finite, got {h.tolist()}")


@dataclass(frozen=True, eq=False)
class AffineGenerator:
    """A channel's flow y' = A y + g (w.y) y in the coordinates y = (tau, r).

    ``A`` is the read-only 4x4 linear part [[-w0, -w_vec], [C_total,
    G_linear]], where w holds the Pauli coefficients of Omega; ``C_total``
    and ``G_linear`` collect the damping, jump and precession terms.
    """

    A: np.ndarray
    g: float

    def __post_init__(self):
        a = np.array(self.A, dtype=float).reshape(4, 4)
        a.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "g", float(self.g))

    @property
    def omega(self) -> HermitianPauliVector:
        """The trace-conservation observable Omega, from -A[0]."""
        return HermitianPauliVector(-self.A[0])

    @property
    def C_total(self) -> np.ndarray:
        return self.A[1:, 0]

    @property
    def G_linear(self) -> np.ndarray:
        """All terms linear in r: jump/damping part plus precession."""
        return self.A[1:, 1:]

    @property
    def scale(self) -> float:
        """max(1, ||A||_1): every roundoff test on the generator scales with it."""
        return max(1.0, float(np.abs(self.A).sum(axis=0).max()))

    @property
    def pseudo_linear(self) -> bool:
        """True when Omega is proportional to the identity, up to roundoff."""
        return bool(np.abs(self.A[0, 1:]).max() <= ROUNDOFF * self.scale)

    def velocity(self, y) -> np.ndarray:
        """dy/dt at each state y = (tau, r) of an (..., 4) array.

        The first component of A y is -(w.y), so the nonlinear term
        g (w.y) y is -g (A y)_0 y.
        """
        v = y @ self.A.T
        return v - self.g * v[..., :1] * y

    def propagator(self, ts) -> np.ndarray:
        """e^{A t} for each time in the 1-d sequence ts, shape (T, 4, 4).

        It maps y(0) to y(t) for a linear channel (g = 0); otherwise
        y(t) = e^{At} y0 / (1 + g (tau(e^{At} y0) - tau0)).
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError("times must be a 1-d sequence")
        if not np.isfinite(ts).all():
            raise ValueError("times must be finite")
        return expm(ts[:, None, None] * self.A)


# Coefficients b_0..b_13 of the degree-13 Pade approximant to e^x, and the
# 1-norm up to which it is accurate to double precision (Higham 2005).
# Dividing by b_0 makes the denominator I + O(x), so e^0 is exactly I.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of one square matrix or of a stack (N, n, n).

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005,
    SIAM J. Matrix Anal. Appl. 26(4)): each matrix is divided by its own
    power of two 2^s, the smallest that brings its 1-norm to theta_13 or
    below, and its approximant is squared s times.  No eigendecomposition,
    so defective matrices are as accurate as any other.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected an (n, n) or (N, n, n) array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    stack = a.reshape(-1, *a.shape[-2:])
    norm = np.abs(stack).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    x = np.ldexp(stack, -s[:, None, None])
    b = _PADE13
    eye = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r.reshape(a.shape)


def _cross_matrix(h: np.ndarray) -> np.ndarray:
    """[h]_x, the matrix with [h]_x r = h x r."""
    return np.array([[0.0, -h[2], h[1]],
                     [h[2], 0.0, -h[0]],
                     [-h[1], h[0], 0.0]])


def _jump_blocks(j: JumpTerm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (G, C, B^dag B) of one jump B = xi0 I + xi.sigma.

    With p = 2 Re(conj(xi0) xi) and v = Re(i xi x conj(xi)) = 2 Re(xi) x Im(xi):
    G = (|xi0|^2 - |xi|^2) I - 2 [Im(conj(xi0) xi)]_x + 2 Re(conj(xi) xi^T),
    C = p + v, and B^dag B has Pauli coefficients (|xi0|^2 + |xi|^2, p - v).
    """
    xi0, xi = j.xi.xi[0], j.xi.xi[1:]
    n0, n = abs(xi0) ** 2, float(np.vdot(xi, xi).real)
    q = np.conj(xi0) * xi
    p = 2.0 * q.real
    v = 2.0 * (_cross_matrix(xi.real) @ xi.imag)
    g = ((n0 - n) * np.eye(3) - _cross_matrix(2.0 * q.imag)
         + 2.0 * np.real(np.outer(np.conj(xi), xi)))
    return g, p + v, np.concatenate(([n0 + n], p - v))


def jump_generator(j: JumpTerm) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-space contribution (G, C) of one jump operator.

    G[a,b] = tr(sigma_a B sigma_b B^dag)/2 and C[a] = tr(sigma_a B B^dag)/2,
    evaluated in closed form from the Pauli coefficients of B.
    """
    g, c, _ = _jump_blocks(j)
    return g, c


def assemble(spec: ChannelSpec) -> AffineGenerator:
    """Build the 4x4 matrix A of a channel's flow y' = A y + g (w.y) y."""
    ell = spec.ell.ell
    w = -2.0 * ell          # Omega = -2 L - sum zeta B^dag B
    a = np.empty((4, 4))
    a[1:, 0] = 2.0 * ell[1:]
    a[1:, 1:] = 2.0 * ell[0] * np.eye(3)
    for j in spec.jumps:
        gj, cj, btb = _jump_blocks(j)
        w -= j.zeta * btb
        a[1:, 0] += j.zeta * cj
        a[1:, 1:] += j.zeta * gj
    a[0] = -w
    a[1:, 1:] += 2.0 * _cross_matrix(spec.h)
    return AffineGenerator(a, spec.g)


@dataclass(frozen=True)
class ChannelClass:
    """Classification flags for a channel.

    ``taxonomy_class`` is "i" for linear channels (g = 0) and "ii" for
    nonlinear ones.  ``trace_preserving`` is "unconditional" when Omega
    vanishes, "conditional" when conservation holds only on the plane
    g*tau = 1, and "none" for a linear channel whose Omega does not vanish:
    its trace changes from every state.
    """

    cp: bool
    linear: bool
    taxonomy_class: str
    pseudo_linear: bool
    unital: bool
    trace_preserving: str


# y = (tau, r) of the maximally mixed state.
_MIXED = np.array([1.0, 0.0, 0.0, 0.0])


def classify(spec: ChannelSpec) -> ChannelClass:
    """Classification flags of a channel (see ``ChannelClass``)."""
    gen = assemble(spec)
    zero = ROUNDOFF * gen.scale
    omega_zero = np.abs(gen.A[0]).max() <= zero
    if omega_zero:
        trace_preserving = "unconditional"
    else:
        trace_preserving = "none" if spec.g == 0.0 else "conditional"
    unital = np.abs(gen.velocity(_MIXED)).max() <= zero
    return ChannelClass(
        cp=all(j.zeta == 1 for j in spec.jumps),
        linear=spec.g == 0.0,
        taxonomy_class="i" if spec.g == 0.0 else "ii",
        pseudo_linear=gen.pseudo_linear,
        unital=bool(unital),
        trace_preserving=trace_preserving,
    )


def initial_velocity(spec: ChannelSpec) -> tuple[np.ndarray, float]:
    """Velocity (dr/dt, dtau/dt) at the maximally mixed state (tau=1, r=0).

    It is the flow at y = (1, 0, 0, 0): dr/dt = C and
    dtau/dt = (g - 1) tr(Omega)/2.  A nonzero value requires a nonnormal
    jump operator or a nonzero Omega.
    """
    v0 = assemble(spec).velocity(_MIXED)
    return v0[1:], float(v0[0])


def shift_transform(spec: ChannelSpec, c: float) -> ChannelSpec:
    """Shift the damping operator L -> L + c*I (Omega picks up -2c*I).

    On the plane g*tau = 1 the equation of motion is invariant under this
    transformation; the jump operators are untouched.
    """
    ell = spec.ell.ell.copy()
    ell[0] += c
    return replace(spec, ell=HermitianPauliVector(ell))


def dualize(spec: ChannelSpec) -> ChannelSpec:
    """Map a pseudo-linear channel (Omega = kappa*I, g = 1) to its linear dual.

    The dual shifts L by kappa/2 (cancelling Omega) and switches the
    nonlinearity off; both channels generate the same motion on the
    unit-trace plane.
    """
    if abs(spec.g - 1.0) > ROUNDOFF:
        raise InvalidParams("duality requires nonlinearity strength g = 1")
    gen = assemble(spec)
    if not gen.pseudo_linear:
        raise InvalidParams(
            "duality requires a pseudo-linear channel (Omega proportional to I)")
    kappa = gen.omega.ell[0]
    shifted = shift_transform(spec, kappa / 2.0)
    return replace(shifted, g=0.0)


# ---------------------------------------------------------------------------
# Spec files


def spec_to_dict(spec: ChannelSpec) -> dict:
    """JSON-serializable form of a channel spec."""
    return {
        "ell": [float(v) for v in spec.ell.ell],
        "jumps": [
            {
                "xi_re": [float(v) for v in j.xi.xi.real],
                "xi_im": [float(v) for v in j.xi.xi.imag],
                "zeta": j.zeta,
            }
            for j in spec.jumps
        ],
        "g": spec.g,
        "h": [float(v) for v in spec.h],
    }


def spec_from_dict(data: dict) -> ChannelSpec:
    """Parse a channel spec; accepts a preset reference in place of fields."""
    if "preset" in data:
        from . import presets

        return presets.expand_preset(
            presets.Preset(data["preset"], dict(data.get("params", {}))))
    jumps = tuple(
        JumpTerm(
            PauliVectorC(np.asarray(j["xi_re"], float)
                         + 1j * np.asarray(j["xi_im"], float)),
            int(j["zeta"]),
        )
        for j in data.get("jumps", [])
    )
    return ChannelSpec(
        ell=HermitianPauliVector(np.asarray(data["ell"], float)),
        jumps=jumps,
        g=float(data.get("g", 0.0)),
        h=np.asarray(data.get("h", [0.0, 0.0, 0.0]), float),
    )


def save_spec(spec: ChannelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spec(path) -> ChannelSpec:
    with open(path, encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))
