"""Time integration of the coordinate equations of motion.

The state vector is y = (tau, x, y, z).  The one integrator is an
embedded Dormand-Prince 4(5) pair with adaptive step-size control; the
exact solutions of the paper's gates are the convergence references.
Trajectories record every accepted step (or a caller-supplied time grid),
together with purity, entropy, tr(X Omega) and the cone margin tau - |r|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channels import AffineGenerator, ChannelSpec, assemble
from .errors import ApexReached, ConeViolation, StepFailure
from .pauli import APEX_TAU, PsdState

__all__ = [
    "IntegratorOpts", "StepStats", "Sample", "Trajectory",
    "rhs", "integrate", "xi_coordinates", "CSV_HEADER",
]

# A trajectory halts with ConeViolation once |r|/tau exceeds 1 by this much.
CONE_RATIO_TOL = 1e-4

CSV_HEADER = "t,tau,x,y,z,purity,entropy,trXOmega,coneMargin"


@dataclass(frozen=True)
class IntegratorOpts:
    """Integration settings.

    ``rtol`` and ``atol`` must be finite, nonnegative and not both zero;
    ``max_steps`` must be at least 1.  ``allow_off_cone`` disables the cone
    and apex halting checks (used for instability probes and for propagating
    operator-basis elements); ``stop_on_surface`` ends the run cleanly when
    the state reaches the pure surface |r| = tau, which is where an
    amplification gate terminates.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 2_000_000
    allow_off_cone: bool = False
    stop_on_surface: bool = False

    def __post_init__(self):
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.rtol == 0.0 and self.atol == 0.0:
            raise ValueError("rtol and atol must not both be zero")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")


@dataclass(frozen=True)
class StepStats:
    accepted: int
    rejected: int
    max_error: float


class Sample(NamedTuple):
    t: float
    state: PsdState
    purity: float
    entropy: float
    tr_x_omega: float
    cone_margin: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Columnar record of one integration run; immutable after construction."""

    t: np.ndarray
    tau: np.ndarray
    r: np.ndarray
    purity: np.ndarray
    entropy: np.ndarray
    tr_x_omega: np.ndarray
    cone_margin: np.ndarray
    stats: StepStats
    stop_reason: str
    spec: ChannelSpec

    def __post_init__(self):
        for name in ("t", "tau", "purity", "entropy", "tr_x_omega", "cone_margin"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        r = np.asarray(self.r, dtype=float).reshape(-1, 3)
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> PsdState:
        return PsdState(self.tau[i], self.r[i], physical=False)

    @property
    def final_state(self) -> PsdState:
        return self.state(len(self.t) - 1)

    @property
    def samples(self) -> Iterator[Sample]:
        for i in range(len(self.t)):
            yield Sample(float(self.t[i]), self.state(i), float(self.purity[i]),
                         float(self.entropy[i]), float(self.tr_x_omega[i]),
                         float(self.cone_margin[i]))

    def write_csv(self, fh) -> None:
        """Write the trajectory as delimited text, 17 significant digits."""
        if hasattr(fh, "write"):
            self._write_csv(fh)
        else:
            with open(fh, "w", encoding="utf-8") as out:
                self._write_csv(out)

    def _write_csv(self, out) -> None:
        out.write(CSV_HEADER + "\n")
        for i in range(len(self.t)):
            row = (self.t[i], self.tau[i], self.r[i, 0], self.r[i, 1], self.r[i, 2],
                   self.purity[i], self.entropy[i], self.tr_x_omega[i],
                   self.cone_margin[i])
            out.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def _rhs_from_generator(gen: AffineGenerator):
    G = gen.G_linear
    C = gen.C_total
    w = gen.omega.ell
    w0 = w[0]
    wv = w[1:]
    g = gen.g

    def f(t: float, y: np.ndarray) -> np.ndarray:
        tau = y[0]
        r = y[1:]
        trxo = tau * w0 + r @ wv
        out = np.empty(4)
        out[0] = (g * tau - 1.0) * trxo
        out[1:] = G @ r + C * tau + (g * trxo) * r
        return out

    return f


def rhs(spec: ChannelSpec, state: PsdState) -> tuple[np.ndarray, float]:
    """Instantaneous velocity (dr/dt, dtau/dt) at a state.

    Defined on and off the cone; off-cone evaluations are what reveal the
    instability of the quadratic-slowdown gate beyond the pure surface.
    """
    f = _rhs_from_generator(assemble(spec))
    y = np.empty(4)
    y[0] = state.tau
    y[1:] = state.r
    dy = f(0.0, y)
    return dy[1:], float(dy[0])


def xi_coordinates(state: PsdState) -> tuple[float, float]:
    """Rotated coordinates ((y+x)/2, (y-x)/2) that diagonalize the two-rate gate."""
    x, y = float(state.r[0]), float(state.r[1])
    return (y + x) / 2.0, (y - x) / 2.0


# ---------------------------------------------------------------------------
# Dormand-Prince 4(5) tableau (FSAL; the fifth-order solution propagates)

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# Difference between the fifth- and fourth-order weights.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _dp45_step(f, t, y, h, k1):
    k = [k1]
    for i in range(1, 6):
        yi = y + h * sum(a * ki for a, ki in zip(_A[i], k))
        k.append(f(t + _C[i] * h, yi))
    y_new = y + h * (_B[0] * k[0] + _B[2] * k[2] + _B[3] * k[3]
                     + _B[4] * k[4] + _B[5] * k[5])
    k.append(f(t + h, y_new))
    err = h * (_E[0] * k[0] + _E[2] * k[2] + _E[3] * k[3]
               + _E[4] * k[4] + _E[5] * k[5] + _E[6] * k[6])
    return y_new, k[6], err


def _scaled(v, scale):
    """v / scale, where 0/0 counts as 0 and a nonzero v over 0 as inf.

    A zero scale needs atol = 0 and a zero coordinate.
    """
    return np.divide(v, scale, out=np.where(v == 0.0, 0.0, np.inf),
                     where=scale != 0.0)


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean(_scaled(err, scale) ** 2)))


def _initial_step(y, k1, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y)
    d0 = float(np.linalg.norm(_scaled(y, scale)))
    d1 = float(np.linalg.norm(_scaled(k1, scale)))
    if not (d0 >= 1e-5 and 1e-5 <= d1 < math.inf):  # d1 = inf would give h = 0
        h = t_end / 100.0
    else:
        h = 0.01 * d0 / d1
    return min(h, t_end / 10.0)


def _margin(y) -> float:
    return float(y[0] - math.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2))


def _check_cone(t, y, initial: bool) -> None:
    """Halt with ApexReached or ConeViolation when y is not a physical state."""
    if y[0] < APEX_TAU:
        raise ApexReached("initial trace below the apex cutoff" if initial
                          else "trace underflow during integration", t, y[0], y[1:])
    if math.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2) > y[0] * (1.0 + CONE_RATIO_TOL):
        raise ConeViolation("initial state outside the PSD cone" if initial
                            else "state left the PSD cone during integration",
                            t, y[0], y[1:])


def _bisect_surface(step_to, t, y, h_hi):
    """Shrink the step until the state lands on the pure surface from inside."""
    lo, y_lo = 0.0, y.copy()
    hi = h_hi
    for _ in range(200):
        if _margin(y_lo) <= 1e-12 or (hi - lo) <= 1e-16 * max(1.0, h_hi):
            break
        mid = 0.5 * (lo + hi)
        y_mid = step_to(mid)
        if _margin(y_mid) < 0.0:
            hi = mid
        else:
            lo, y_lo = mid, y_mid
    return t + lo, y_lo


def integrate(spec: ChannelSpec, initial: PsdState, t_end: float,
              opts: IntegratorOpts | None = None, *,
              sample_times: Sequence[float] | None = None) -> Trajectory:
    """Integrate a channel from an initial state up to t_end.

    With ``sample_times`` the trajectory is recorded exactly at the given
    times (the stepper lands on them; no interpolation), plus t=0 and t_end;
    otherwise every accepted step is recorded.  Unless ``allow_off_cone`` is
    set, the run halts with ConeViolation or ApexReached when the state
    leaves the cone beyond tolerance or the trace underflows.
    """
    opts = IntegratorOpts() if opts is None else opts
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")

    gen = assemble(spec)
    f = _rhs_from_generator(gen)

    y = np.empty(4)
    y[0] = initial.tau
    y[1:] = initial.r
    if not opts.allow_off_cone:
        _check_cone(0.0, y, initial=True)

    record_all = sample_times is None
    if record_all:
        targets = [float(t_end)]
    else:
        ts = np.unique(np.asarray(sample_times, dtype=float))
        if not np.isfinite(ts).all():
            raise ValueError("sample_times must be finite")
        if ts.size and (ts[0] < 0.0 or ts[-1] > t_end * (1.0 + 1e-12)):
            raise ValueError("sample_times must lie within [0, t_end]")
        targets = [float(v) for v in ts if v > 0.0]
        if not targets or targets[-1] < t_end * (1.0 - 1e-12):
            targets.append(float(t_end))

    rec_t = [0.0]
    rec_y = [y.copy()]

    if opts.stop_on_surface and _margin(y) <= 1e-12:
        return _build_trajectory(spec, gen, rec_t, rec_y, StepStats(0, 0, 0.0),
                                 "surface")

    stats, stop_reason = _run_adaptive(f, y, targets, opts, rec_t, rec_y,
                                       record_all)
    return _build_trajectory(spec, gen, rec_t, rec_y, stats, stop_reason)


def _run_adaptive(f, y, targets, opts, rec_t, rec_y, record_all):
    rtol, atol = opts.rtol, opts.atol
    t = 0.0
    t_end = targets[-1]
    k1 = f(t, y)
    h = _initial_step(y, k1, t_end, rtol, atol)
    ti = 0
    n_acc = n_rej = 0
    max_err = 0.0

    while ti < len(targets):
        if n_acc + n_rej >= opts.max_steps:
            raise StepFailure("maximum step count exceeded", t, y[0], y[1:])
        target = targets[ti]
        h = min(h, target - t)
        hits_target = t + h >= target - 1e-14 * max(1.0, target)
        if hits_target:
            h = target - t
        y_new, k_new, err_vec = _dp45_step(f, t, y, h, k1)
        err = _error_norm(err_vec, y, y_new, rtol, atol)
        if not err <= 1.0:  # a NaN error norm is a rejection too
            n_rej += 1
            if h <= 1e-14 * max(1.0, abs(t)):
                raise StepFailure("step size underflow: local error tolerance "
                                  "cannot be met", t, y[0], y[1:])
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue
        n_acc += 1
        max_err = max(max_err, err)
        t_new = target if hits_target else t + h

        if opts.stop_on_surface and _margin(y_new) < 0.0:
            h_used = t_new - t
            t_s, y_s = _bisect_surface(
                lambda hh: _dp45_step(f, t, y, hh, k1)[0], t, y, h_used)
            rec_t.append(t_s)
            rec_y.append(y_s.copy())
            return StepStats(n_acc, n_rej, max_err), "surface"
        if not opts.allow_off_cone:
            _check_cone(t_new, y_new, initial=False)

        t, y, k1 = t_new, y_new, k_new
        if record_all or hits_target:
            rec_t.append(t)
            rec_y.append(y.copy())
        if hits_target:
            ti += 1
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        h = max(h, 1e-16) * factor
    return StepStats(n_acc, n_rej, max_err), "t_end"


def _build_trajectory(spec, gen, rec_t, rec_y, stats, stop_reason) -> Trajectory:
    ys = np.asarray(rec_y)
    tau = ys[:, 0]
    r = ys[:, 1:]
    rn = np.sqrt((r ** 2).sum(axis=1))
    w = gen.omega.ell
    trxo = tau * w[0] + r @ w[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tau != 0.0, rn / tau, np.nan)
        purity = 0.5 * (1.0 + ratio ** 2)
        lam_p = 0.5 * (1.0 + ratio)
        lam_m = 0.5 * (1.0 - ratio)
        entropy = -(_xlogx(lam_p) + _xlogx(lam_m))
    return Trajectory(
        t=np.asarray(rec_t), tau=tau, r=r, purity=purity, entropy=entropy,
        tr_x_omega=trxo, cone_margin=tau - rn, stats=stats,
        stop_reason=stop_reason, spec=spec,
    )


def _xlogx(v: np.ndarray) -> np.ndarray:
    # 0 log 0 -> 0; slightly negative eigenvalues from roundoff count as 0,
    # genuinely negative ones (off-cone states) give nan.
    out = np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
    return np.where(v < -1e-12, np.nan, out)
