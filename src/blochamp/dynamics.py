"""Time evolution of the coordinate equations of motion.

The state vector is y = (tau, x, y, z) and its flow is
``AffineGenerator.velocity``, y' = A y + g (w.y) y, with the exact solution
y(t) = Y(t) / s(t), Y = e^{At} y0 and s = 1 + g (Y_tau - tau0).
``integrate`` reads it on a uniform grid from ``_scan``, or at
caller-supplied times advanced from that grid; every command, ``verify``
and the gate plans read their trajectories from it.  Trajectories carry
purity, entropy, tr(X Omega) and the cone margin tau - |r|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channels import AffineGenerator, ChannelSpec, assemble, expm
from .errors import ApexReached, BlowUp, ConeViolation, StepFailure
from .pauli import PsdState
from .tolerances import (APEX_TAU, CONE_RATIO_TOL, EIG_ROUNDOFF, SURFACE_TOL,
                         TIME_WINDOW)

__all__ = [
    "IntegratorOpts", "StepStats", "Sample", "Trajectory", "rhs", "integrate",
    "xi_coordinates", "CSV_HEADER", "GRID_STEPS",
]

CSV_HEADER = "t,tau,x,y,z,purity,entropy,trXOmega,coneMargin"
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(","))) + "\n"

# The fewest grid steps of ``stability`` and of ``verify``'s unsampled runs,
# and ``simulate``'s default row count less one.  At t = 5 it is no coarser
# than the 77 to 169 steps that Dormand-Prince 4(5) at rtol 1e-10 takes on
# the six presets.
GRID_STEPS = 200


@dataclass(frozen=True)
class IntegratorOpts:
    """Settings of an ``integrate`` run.

    ``max_steps`` caps the grid and must be at least 1.  ``allow_off_cone``
    disables the cone and apex halting checks (used for instability probes
    and for propagating operator-basis elements); ``stop_on_surface`` ends
    the run cleanly when the state reaches the pure surface |r| = tau, which
    is where an amplification gate terminates.  ``rtol`` and ``atol`` are
    deprecated: ``integrate`` reads the exact solution and no longer reads
    them.  They must still be finite, nonnegative and not both zero, and a
    value other than the default emits a DeprecationWarning.
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
        if self.rtol != IntegratorOpts.rtol or self.atol != IntegratorOpts.atol:
            warnings.warn("IntegratorOpts rtol and atol are deprecated: integrate "
                          "reads the exact solution and no longer reads them",
                          DeprecationWarning, stacklevel=3)


@dataclass(frozen=True)
class StepStats:
    """Work of one run: ``accepted`` counts the grid steps scanned.

    ``rejected`` is always 0 and ``max_error`` always 0.0; they remain for
    callers that read them.
    """

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
        cols = np.column_stack((self.t, self.tau, self.r, self.purity, self.entropy,
                                self.tr_x_omega, self.cone_margin))
        out.write(CSV_HEADER + "\n")
        out.write("".join(_CSV_ROW % tuple(row) for row in cols.tolist()))


def rhs(spec: ChannelSpec, state: PsdState) -> tuple[np.ndarray, float]:
    """Instantaneous velocity (dr/dt, dtau/dt) at a state.

    Defined on and off the cone; off-cone evaluations are what reveal the
    instability of the quadratic-slowdown gate beyond the pure surface.
    """
    y = np.concatenate(([state.tau], state.r))
    dy = assemble(spec).velocity(y)
    return dy[1:], float(dy[0])


def xi_coordinates(state: PsdState) -> tuple[float, float]:
    """Rotated coordinates ((y+x)/2, (y-x)/2) that diagonalize the two-rate gate."""
    x, y = float(state.r[0]), float(state.r[1])
    return (y + x) / 2.0, (y - x) / 2.0


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


# A bisection advances its state by e^{A w/2}, ..., e^{A w/2^53} from one
# batched expm, w the bracket's width when the stack is made: 53 halvings
# take the bracket to one part in 2^53 of w, a double's precision.
_HALVINGS = 53


def _bisect(a, g, y, h, inside, done):
    """Bisect [0, h] for the first dt at which ``inside`` fails on the flow.

    The flow is y' = A y + g (w.y) y, whose state a time dt after y is
    z / (1 + g (z_tau - y_tau)) with z = e^{A dt} y; with g = 0 it is
    Y' = A Y.  ``inside`` holds at y (dt = 0) and fails at dt = h.  The
    bracket [lo, hi] halves until ``done(lo, y_lo, hi)``, at most 200
    times, y_lo being the state at lo.  The k-th halving of a bracket of
    width w puts its midpoint w / 2^k past lo, so z at each midpoint is one
    product of z at lo with a matrix of the stack e^{A w/2}, ...,
    e^{A w/2^53}, which one batched expm gives; with w ||A||_1 <= 1 no
    matrix of it needs squaring.  A bracket still open after 53 halvings
    takes a fresh stack on what remains of it; a root close to dt = 0,
    where lo stays 0 while hi shrinks, needs one.  Returns lo, y_lo and hi.
    """
    lo, z_lo, y_lo, hi = 0.0, y, y, h
    dts, steps = (), None
    k = 0
    for _ in range(200):
        if done(lo, y_lo, hi):
            break
        if k == len(dts):
            dts = (hi - lo) * 0.5 ** np.arange(1, _HALVINGS + 1)
            steps = expm(a * dts[:, None, None])
            k = 0
        z = steps[k] @ z_lo
        # Normalized from y, as _advance does: a product of per-halving
        # normalizations would compound roundoff near a blow-up.
        y_mid = z / (1.0 + g * (z[0] - y[0])) if g else z
        mid = lo + dts[k]
        k += 1
        if inside(y_mid):
            lo, z_lo, y_lo = mid, z, y_mid
        else:
            hi = mid
    return lo, y_lo, hi


def _bisect_surface(gen: AffineGenerator, t, y, h_hi):
    """The first time after t, and the state there, on the pure surface.

    y is the state at t, on or inside the cone, and the state h_hi later
    lies outside it.  ``_bisect`` shrinks [0, h_hi] until the state at its
    lower end has a cone margin of at most SURFACE_TOL, or the bracket is
    no wider than 1e-16 max(1, h_hi).
    """
    lo, y_lo, _ = _bisect(
        gen.A, gen.g, y, h_hi, lambda v: _margin(v) >= 0.0,
        lambda lo, y_lo, hi: (_margin(y_lo) <= SURFACE_TOL
                              or hi - lo <= 1e-16 * max(1.0, h_hi)))
    return t + lo, y_lo


# The scan renormalizes its state at the start of every block of this many
# steps.  A step changes the state's 1-norm by a factor between 1/e and e
# (h ||A||_1 <= 1), so within a block it stays within e^64 ~ 6e27 of its
# rescaled size.
_RESCALE_STEPS = 64


class _Scan(NamedTuple):
    t: np.ndarray         # grid times, up to t_end or the last one before t*
    y: np.ndarray         # the exact state at each
    t_star: float | None  # the blow-up time, None when s stays positive
    t_lo: float | None    # the t* bisection's last time before t*, and
    y_lo: np.ndarray | None  # the exact state there; None without t*


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


def _grid_steps(gen: AffineGenerator, t_end: float, min_steps: int = 1) -> int:
    """Steps of the scan's grid on [0, t_end]: h ||A||_1 <= 1, at least min_steps."""
    return max(min_steps, math.ceil(t_end * float(np.abs(gen.A).sum(axis=0).max())))


def _scan(gen: AffineGenerator, y0: np.ndarray, t_end: float, n: int) -> _Scan:
    """The exact solution at the grid times np.linspace(0, t_end, n + 1), and t*.

    y(t) = Y(t) / s(t) with Y = e^{At} y0 and s = 1 + g (Y_tau - tau0); n
    comes from ``_grid_steps``, so one step e^{hA} changes Y's 1-norm by a
    factor between 1/e and e.  The pair (Y, 1 - g tau0) is rescaled by a
    common positive factor, which leaves Y / s unchanged, and then advanced
    by the powers e^{hA}, ..., e^{64 hA}, one block of grid times at a time.
    The state diverges where s first reaches 0: the scan ends at the last
    grid time before it and bisects that step for t*, which also gives the
    exact state at the bisection's last time before t*.
    """
    a, g = gen.A, gen.g
    h = t_end / n
    powers = _powers(expm(a * h), min(n, _RESCALE_STEPS))
    # (y, c) is (Y, 1 - g tau0) up to a common positive factor.
    y, c = y0, 1.0 - g * y0[0]
    times = np.linspace(0.0, t_end, n + 1)
    blocks = [y0[None]]
    k = 0
    t_star = t_lo = y_lo = None
    while k < n:
        m = max(abs(c), float(np.abs(y).max()))
        y, c = y / m, c / m
        ys = powers[:n - k] @ y
        s = c + g * ys[:, 0]
        crossed = np.flatnonzero(s <= 0.0)
        j = int(crossed[0]) if crossed.size else len(ys)
        if j:
            blocks.append(ys[:j] / s[:j, None])
            y = ys[j - 1]
        k += j
        if crossed.size:
            t_k = times[k]
            lo, big_y, hi = _bisect(a, 0.0, y, h, lambda v: c + g * v[0] > 0.0,
                                    lambda lo, y_lo, hi: hi - lo <= 4e-16 * (t_k + hi))
            t_star, t_lo, y_lo = t_k + hi, t_k + lo, big_y / (c + g * big_y[0])
            break
    ys = np.concatenate(blocks)
    return _Scan(times[k + 1 - len(ys):k + 1], ys, t_star, t_lo, y_lo)


def _blow_up_error(scan: _Scan) -> BlowUp:
    t_last, y_last = scan.t[-1], scan.y[-1]
    return BlowUp(f"the state diverges at t* = {scan.t_star:.17g}, where "
                  "1 + g (tr(e^(At) X0) - tau0) reaches 0; the state given "
                  f"is at t = {t_last:.17g}", scan.t_star, y_last[0], y_last[1:])


def _initial_vector(initial: PsdState, t_end: float, opts: IntegratorOpts) -> np.ndarray:
    """y0 = (tau, r) of a run's initial state, after the checks every run makes."""
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    y = np.empty(4)
    y[0] = initial.tau
    y[1:] = initial.r
    if not opts.allow_off_cone:
        _check_cone(0.0, y, initial=True)
    return y


def _sample_targets(sample_times: Sequence[float], t_end: float) -> list[float]:
    """The times after t = 0 that a sampled run records.

    These are the sorted, distinct sample times in (0, t_end], then t_end
    when the last of them falls short of it by more than TIME_WINDOW.
    Raises ValueError for a time that is not finite or not in [0, t_end].
    """
    ts = np.sort(np.asarray(sample_times, dtype=float).ravel())
    if not np.isfinite(ts).all():
        raise ValueError("sample_times must be finite")
    ts = ts[np.diff(ts, prepend=-math.inf) > 0.0]
    if ts.size and (ts[0] < 0.0 or ts[-1] > t_end * (1.0 + TIME_WINDOW)):
        raise ValueError("sample_times must lie within [0, t_end]")
    targets = [float(v) for v in ts if v > 0.0]
    if not targets or targets[-1] < t_end * (1.0 - TIME_WINDOW):
        targets.append(float(t_end))
    return targets


def _advance(gen: AffineGenerator, y: np.ndarray, dt) -> np.ndarray:
    """The exact states a time dt after the states y.

    y is one state with one dt, or a stack (m, 4) with m times; each goes
    to e^{A dt} y / (1 + g (tau(e^{A dt} y) - tau)).  With dt ||A||_1 <= 1
    every product stays finite.
    """
    dt = np.asarray(dt, dtype=float)
    big_y = (expm(gen.A * dt[..., None, None]) @ y[..., None])[..., 0]
    return big_y / (1.0 + gen.g * (big_y[..., :1] - y[..., :1]))


def _merge_samples(gen: AffineGenerator, scan: _Scan, targets: list[float]):
    """The scan's grid with the exact states at the sample times merged in.

    Each sample state is advanced from the grid state at the last grid time
    at or before it; a sample on a grid time copies that state.  A sample
    after the scan's last time, which is the last before a blow-up, is left
    out.  Returns the times, the states and a mask of the grid rows, in
    time order.
    """
    ts, ys = scan.t, scan.y
    tq = np.asarray(targets)
    if scan.t_star is not None:
        tq = tq[tq <= ts[-1]]
    k = np.searchsorted(ts, tq, side="right") - 1
    dt = tq - ts[k]
    yq = ys[k]
    moved = dt > 0.0
    if moved.any():
        yq[moved] = _advance(gen, yq[moved], dt[moved])
    t_all = np.concatenate((ts, tq))
    y_all = np.concatenate((ys, yq))
    order = np.argsort(t_all, kind="stable")
    return t_all[order], y_all[order], order < len(ts)


def integrate(spec: ChannelSpec, initial: PsdState, t_end: float,
              opts: IntegratorOpts | None = None, *, min_steps: int = 1,
              sample_times: Sequence[float] | None = None) -> Trajectory:
    """The exact solution of a channel from an initial state up to t_end.

    Records y(t) = e^{At} y0 / s(t) at the n + 1 times
    np.linspace(0, t_end, n + 1) of ``_scan``, with
    n = max(min_steps, ceil(t_end ||A||_1)); a grid of more than
    ``opts.max_steps`` steps is refused with StepFailure.  With
    ``sample_times`` the rows are t = 0, the sorted distinct sample times
    and t_end instead.  Each sample state is advanced from the grid state
    at the last grid time at or before it, and the checks read the grid and
    sample states in time order.  Unless ``allow_off_cone`` is set, the
    first state below the apex cutoff or outside the cone beyond tolerance
    halts the run with ApexReached or ConeViolation.  A ``stop_on_surface``
    run ends where the state first reaches the pure surface, bisected on
    the exact solution between the last two states where the cone margin
    turns negative, and drops later samples.  A nonlinear run (g != 0)
    whose state diverges at a time t* <= t_end raises BlowUp unless it
    halts first, or stops on the surface first; a surface reached after
    the scan's last grid time but before t* counts.  ``stats`` counts the
    grid steps scanned as accepted steps.
    """
    opts = IntegratorOpts() if opts is None else opts
    y0 = _initial_vector(initial, t_end, opts)
    targets = None if sample_times is None else _sample_targets(sample_times, t_end)
    gen = assemble(spec)
    if opts.stop_on_surface and _margin(y0) <= SURFACE_TOL:
        return _build_trajectory(spec, gen, [0.0], [y0], StepStats(0, 0, 0.0),
                                 "surface")
    n = _grid_steps(gen, t_end, min_steps)
    if n > opts.max_steps:
        raise StepFailure(f"the grid needs {n} steps, more than max_steps = "
                          f"{opts.max_steps}", 0.0, y0[0], y0[1:])
    scan = _scan(gen, y0, t_end, n)
    if opts.stop_on_surface and scan.t_star is not None and _margin(scan.y_lo) < 0.0:
        # s > 0 before t*, so the state has left the cone before t*: the
        # state at t_lo ends the scan, and the surface is bisected before it.
        scan = scan._replace(t=np.append(scan.t, scan.t_lo),
                             y=np.vstack((scan.y, scan.y_lo)))
    if targets is None:
        ts, ys, on_grid = scan.t, scan.y, np.ones(len(scan.t), dtype=bool)
        rows = on_grid
    else:
        ts, ys, on_grid = _merge_samples(gen, scan, targets)
        rows = ~on_grid  # the samples, and t = 0 below
        rows[0] = True
    tau, rn = ys[:, 0], np.sqrt((ys[:, 1:] ** 2).sum(axis=1))
    end = len(ts)
    if opts.stop_on_surface:
        crossed = np.flatnonzero(tau - rn < 0.0)
        end = int(crossed[0]) if crossed.size else end
    if not opts.allow_off_cone:
        bad = np.flatnonzero((tau[:end] < APEX_TAU)
                             | (rn[:end] > tau[:end] * (1.0 + CONE_RATIO_TOL)))
        if bad.size:
            _check_cone(ts[bad[0]], ys[bad[0]], initial=False)
    steps = int(np.count_nonzero(on_grid[:end]))
    if end < len(ts):
        y = ys[end - 1]
        t_s, y_s = _bisect_surface(gen, ts[end - 1], y, ts[end] - ts[end - 1])
        keep = rows[:end]
        return _build_trajectory(spec, gen, np.append(ts[:end][keep], t_s),
                                 np.vstack((ys[:end][keep], y_s)),
                                 StepStats(steps, 0, 0.0), "surface")
    if scan.t_star is not None:
        raise _blow_up_error(scan)
    if targets is not None:  # a grid is returned as it is, without a copy
        ts, ys = ts[rows], ys[rows]
    return _build_trajectory(spec, gen, ts, ys, StepStats(steps - 1, 0, 0.0), "t_end")


def _build_trajectory(spec, gen, rec_t, rec_y, stats, stop_reason) -> Trajectory:
    ys = np.asarray(rec_y)
    tau = ys[:, 0]
    r = ys[:, 1:]
    rn = np.sqrt((r ** 2).sum(axis=1))
    trxo = ys @ gen.omega.ell
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tau != 0.0, rn / tau, np.nan)
        purity = 0.5 * (1.0 + ratio ** 2)
        lam_p = 0.5 * (1.0 + ratio)
        lam_m = 0.5 * (1.0 - ratio)
        entropy = 0.0 - (_xlogx(lam_p) + _xlogx(lam_m))  # +0, not -0, when pure
    return Trajectory(
        t=np.asarray(rec_t), tau=tau, r=r, purity=purity, entropy=entropy,
        tr_x_omega=trxo, cone_margin=tau - rn, stats=stats,
        stop_reason=stop_reason, spec=spec,
    )


def _xlogx(v: np.ndarray) -> np.ndarray:
    # 0 log 0 -> 0; slightly negative eigenvalues from roundoff count as 0,
    # genuinely negative ones (off-cone states) give nan.
    out = np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
    return np.where(v < -EIG_ROUNDOFF, np.nan, out)
