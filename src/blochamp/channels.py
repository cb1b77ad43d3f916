"""Channel construction and classification in the Pauli basis.

A channel is specified by a Hermitian damping operator L (coefficients ell),
a set of jump operators B_alpha with signs zeta_alpha, and a nonlinearity
strength g.  The generator acts as

    dX/dt = {L, X} + sum_alpha zeta_alpha B_alpha X B_alpha^dag
            + g tr(X Omega) X,
    Omega = -2 L - sum_alpha zeta_alpha B_alpha^dag B_alpha,

which conserves the trace unconditionally when g = 0 and Omega = 0, and on
the unit-trace plane when g = 1.  This module assembles the equivalent
affine coordinate form dr/dt = G r + C tau + g tr(X Omega) r and provides
the shift symmetry L -> L + c*I and the duality map onto linear channels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParams
from .pauli import HermitianPauliVector, PauliVectorC

__all__ = [
    "JumpTerm", "ChannelSpec", "AffineGenerator", "ChannelClass",
    "jump_generator", "assemble",
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
    """Assembled coordinate-space pieces of a channel's generator.

    ``G_total`` and ``C_total`` collect the damping and jump contributions
    (the nonlinear diagonal term and the precession term are excluded);
    ``G_rot`` holds the precession matrix 2 [h]_x; ``omega`` holds the
    trace-conservation observable.
    """

    G_total: np.ndarray
    C_total: np.ndarray
    omega: HermitianPauliVector
    g: float
    G_rot: np.ndarray

    def __post_init__(self):
        for name, shape in (("G_total", (3, 3)), ("C_total", (3,)), ("G_rot", (3, 3))):
            arr = np.array(getattr(self, name), dtype=float).reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "g", float(self.g))

    @property
    def G_linear(self) -> np.ndarray:
        """All terms linear in r: jump/damping part plus precession."""
        return self.G_total + self.G_rot

    @property
    def pseudo_linear(self) -> bool:
        """True when Omega is proportional to the identity, up to roundoff."""
        w = self.omega.ell
        return bool(np.abs(w[1:]).max() <= 1e-12 * max(1.0, float(np.linalg.norm(w))))

    @property
    def A(self) -> np.ndarray:
        """The 4x4 linear part of y' = A y + g (w.y) y, y = (tau, r), w = omega.

        A = [[-w0, -w_vec], [C_total, G_linear]].
        """
        a = np.empty((4, 4))
        a[0] = -self.omega.ell
        a[1:, 0] = self.C_total
        a[1:, 1:] = self.G_linear
        return a

    def tr_x_omega(self, tau: float, r: np.ndarray) -> float:
        w = self.omega.ell
        return tau * w[0] + float(np.asarray(r) @ w[1:])


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
    """Build the affine generator data (G, C, Omega) for a channel."""
    ell = spec.ell.ell
    g_total = 2.0 * ell[0] * np.eye(3)
    c_total = 2.0 * ell[1:]
    omega = -2.0 * ell
    for j in spec.jumps:
        gj, cj, btb = _jump_blocks(j)
        g_total += j.zeta * gj
        c_total += j.zeta * cj
        omega -= j.zeta * btb
    return AffineGenerator(
        G_total=g_total,
        C_total=c_total,
        omega=HermitianPauliVector(omega),
        g=spec.g,
        G_rot=2.0 * _cross_matrix(spec.h),
    )


def _omega_scale(spec: ChannelSpec) -> float:
    return max(1.0, 2.0 * float(np.abs(spec.ell.ell).max()),
               sum(j.xi.norm ** 2 for j in spec.jumps))


@dataclass(frozen=True)
class ChannelClass:
    """Classification flags for a channel.

    ``taxonomy_class`` is "i" for linear trace-preserving channels and "ii"
    for channels whose trace is conserved through the nonlinear term.
    ``trace_preserving`` is "unconditional" when Omega vanishes and
    "conditional" when conservation holds only on the plane g*tau = 1.
    """

    cp: bool
    linear: bool
    taxonomy_class: str
    pseudo_linear: bool
    unital: bool
    trace_preserving: str


def classify(spec: ChannelSpec) -> ChannelClass:
    """Classify a channel; rejects g = 0 specs whose Omega does not vanish."""
    gen = assemble(spec)
    w = gen.omega.ell
    omega_zero = np.abs(w).max() <= 1e-12 * _omega_scale(spec)
    if spec.g == 0.0 and not omega_zero:
        raise InvalidParams(
            "a linear channel (g=0) requires a vanishing Omega to conserve trace")
    dr0, dtau0 = _initial_velocity(gen)
    unital = float(np.linalg.norm(dr0)) <= 1e-12 and abs(dtau0) <= 1e-12
    return ChannelClass(
        cp=all(j.zeta == 1 for j in spec.jumps),
        linear=spec.g == 0.0,
        taxonomy_class="i" if spec.g == 0.0 else "ii",
        pseudo_linear=gen.pseudo_linear,
        unital=bool(unital),
        trace_preserving="unconditional" if omega_zero else "conditional",
    )


def _initial_velocity(gen: AffineGenerator) -> tuple[np.ndarray, float]:
    return gen.C_total.copy(), (gen.g - 1.0) * gen.omega.ell[0]


def initial_velocity(spec: ChannelSpec) -> tuple[np.ndarray, float]:
    """Velocity (dr/dt, dtau/dt) at the maximally mixed state (tau=1, r=0).

    Read off the assembled coordinate form: dr/dt = C and
    dtau/dt = (g - 1) tr(Omega)/2.  A nonzero value requires a nonnormal
    jump operator or a nonzero Omega.
    """
    return _initial_velocity(assemble(spec))


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
    if abs(spec.g - 1.0) > 1e-12:
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
