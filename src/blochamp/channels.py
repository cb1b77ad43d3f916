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
coefficients of Omega.  This module assembles A as one contraction of the
channel's coefficients with the structure constants of the generator's
terms, {L, X}, a precession -i [H, X] and B X B^dag, built once from the
Pauli matrices (``_structure_constants``).  It evaluates the flow
(``AffineGenerator.velocity``) and its propagator e^{At}
(``AffineGenerator.propagator``), the package's one matrix exponential: a
degree-20 Taylor polynomial in A / ||A||_1, squared only for
|t| ||A||_1 > 1.  It provides the shift symmetry L -> L + c*I and the
duality map onto linear channels.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParams
from .pauli import SIGMA, HermitianPauliVector, PauliVectorC
from .tolerances import ROUNDOFF

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

    @functools.cached_property
    def scale(self) -> float:
        """||A||_1, the scan's rate: every roundoff test on the generator scales with it."""
        return float(np.abs(self.A).sum(axis=0).max())

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
        y(t) = e^{At} y0 / (1 + g (tau(e^{At} y0) - tau0)).  Each e^{At} is
        the degree-20 Taylor polynomial in A / w, w = ||A||_1 (Al-Mohy and
        Higham, SIAM J. Sci. Comput. 33(2), 2011), at t / 2^s, s the least
        integer >= 0 with |t| w / 2^s <= 1, squared s times.  The powers
        (A / w)^k are made once (``_taylor``) and each time weighs them by
        the running products (t w / 2^s)^k / k!, its own (1, 20) @ (20, 16)
        product, so a row is a function of its own time, bit for bit,
        whatever else ts holds.  A single time, the scan's step, takes s and
        t w / 2^s in scalars, the same numbers the stack's arrays hold.
        With |t| w / 2^s <= 1 the remainder is at most e / 21! ~ 5e-20, below
        a double's roundoff; no eigendecomposition is taken, so defective
        matrices are as accurate as any other, and e^{A 0} is exactly I.
        A time whose e^{At} does not fit in a double raises ValueError.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise ValueError("times must be a 1-d sequence")
        if not (math.isfinite(ts[0]) if ts.size == 1
                else np.count_nonzero(np.isfinite(ts)) == ts.size):
            raise ValueError("times must be finite")
        rate, powers = self._taylor
        if ts.size == 1:  # one time, the scan's step: the else branch's numbers
            t = float(ts[0])
            frac, exp = math.frexp(abs(t) * rate)
            top = max(exp - (frac == 0.5), 0)
            s = np.array([top])
            coef = np.multiply.accumulate(math.ldexp(t, -top) * rate / _ORDERS)[None]
        else:
            frac, exp = np.frexp(np.abs(ts) * rate)
            s = np.maximum(exp - (frac == 0.5), 0)  # |t| w <= 2^s, exactly
            top = int(s.max(initial=0))
            coef = np.multiply.accumulate((np.ldexp(ts, -s) * rate)[:, None] / _ORDERS,
                                          axis=-1)
        step = _EYE + (coef[:, None, :] @ powers.reshape(_TAYLOR_DEGREE, 16)
                       ).reshape(-1, 4, 4)
        if not top:  # |e^{At}| <= e: no squaring, no overflow
            return step
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(top):
                more = s > k
                step[more] = step[more] @ step[more]
        bad = ts[~np.isfinite(step).all(axis=(1, 2))]
        if bad.size:
            raise ValueError(f"e^(At) at t = {bad[0]:.17g} does not fit in a double")
        return step

    @functools.cached_property
    def _taylor(self) -> tuple[float, np.ndarray]:
        """w = ||A||_1 (1 for A = 0) and the powers (A / w)^k, k = 1, ..., 20,
        a (20, 4, 4) stack: the terms of every e^{At} of the package.
        Raises ValueError, and caches nothing, for an A that is not finite."""
        if np.count_nonzero(np.isfinite(self.A)) < 16:
            raise ValueError("the generator's entries must be finite")
        rate = self.scale or 1.0  # A = 0 leaves every state as it is
        return rate, _powers(self.A / rate, _TAYLOR_DEGREE)


# The degree of the Taylor polynomial behind every e^{At}: for
# |t| ||A||_1 <= 1 its remainder is at most e / 21! ~ 5e-20 of e^{At}.
_TAYLOR_DEGREE = 20
_ORDERS = np.arange(1, _TAYLOR_DEGREE + 1)
_EYE = np.eye(4)
_EYE.setflags(write=False)


def _powers(step: np.ndarray, k: int) -> np.ndarray:
    """step^1, ..., step^k as a (k, n, n) stack, by repeated doubling."""
    p = np.empty((k, *step.shape))
    p[0] = step
    done = 1
    while done < k:
        more = min(done, k - done)
        p[done:done + more] = p[:more] @ p[done - 1]
        done += more
    return p


def _structure_constants() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The generator's three terms in the coordinates y_a = tr(sigma_a X),
    X = sum_b y_b sigma_b / 2:

        ANTI[a,b,c]       = 1/2 tr(sigma_a {sigma_c, sigma_b})
        COMM[a,b,c]       = -i/2 tr(sigma_a [sigma_c, sigma_b]),  c = x, y, z
        SANDWICH[a,b,c,d] = 1/2 tr(sigma_a sigma_c sigma_b sigma_d)

    so that {L, X}, -i [H, X] and B X B^dag, for L = ell.sigma,
    H = h.sigma and B = xi.sigma, have the coordinates ANTI.ell y,
    COMM.h y and Re(SANDWICH.xi conj(xi)) y.  ANTI and COMM hold 0 and +-2,
    SANDWICH 0, +-1 and +-i, all exact.
    """
    s = np.array(SIGMA)
    acb = 0.5 * np.einsum("aij,cjk,bki->abc", s, s, s)
    abc = acb.swapaxes(1, 2)
    sandwich = 0.5 * np.einsum("aij,cjk,bkl,dli->abcd", s, s, s, s)
    anti, comm = (acb + abc).real, (-1j * (acb - abc)).real[..., 1:]
    for arr in (anti, comm, sandwich):
        arr.setflags(write=False)
    return anti, comm, sandwich


_ANTI, _COMM, _SANDWICH = _structure_constants()


def _jump_part(xi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Re sum_j zeta_j SANDWICH.xi_j conj(xi_j) for jumps xi (J, 4), signs zeta (J,).

    Each jump's terms are summed before the jumps are: against a 40-digit
    build, the worst error over 900 random specs is then 3.8e-16 of max|A|,
    and 5.8e-16 with one sum over jumps and terms together.
    """
    return np.einsum("abcd,jc,jd->jab", _SANDWICH, zeta[:, None] * xi,
                     xi.conj()).real.sum(axis=0)


def jump_generator(j: JumpTerm) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-space contribution (G, C) of one jump operator.

    G[a,b] = tr(sigma_a B sigma_b B^dag)/2 and C[a] = tr(sigma_a B B^dag)/2:
    the blocks A[1:, 1:] and A[1:, 0] of the jump's term in ``assemble``,
    taken with zeta = +1.
    """
    a = _jump_part(j.xi.xi[None], np.ones(1))
    return a[1:, 1:], a[1:, 0]


def assemble(spec: ChannelSpec) -> AffineGenerator:
    """Build the 4x4 matrix A of a channel's flow y' = A y + g (w.y) y.

    A = ANTI.ell + COMM.h + Re sum_j zeta_j SANDWICH.xi_j conj(xi_j), one
    contraction of the structure constants (``_structure_constants``) per
    term.  Its trace row is tr(({L, X} + sum zeta B X B^dag) sigma_b) / 2
    = -w_b, so A[0] = -w with Omega = -2 L - sum zeta B^dag B.
    """
    xi = np.array([j.xi.xi for j in spec.jumps], dtype=complex).reshape(-1, 4)
    zeta = np.array([j.zeta for j in spec.jumps], dtype=float)
    a = _ANTI @ spec.ell.ell + _COMM @ spec.h + _jump_part(xi, zeta)
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
