"""Time evolution of the coordinate equations of motion.

The state vector is y = (tau, x, y, z) and its flow is
``AffineGenerator.velocity``, y' = A y + g (w.y) y, with the exact solution
y(t) = Y(t) / s(t), Y = e^{At} y0 and s = 1 + g (Y_tau - tau0).  Every
e^{At} comes from ``AffineGenerator.propagator``, a degree-20 Taylor
polynomial in A / ||A||_1.  ``integrate`` reads the solution on a uniform
grid from ``_scan``, powers of one step e^{hA}, or at caller-supplied
times advanced from that grid by one propagator call (``_advance``); every
command and ``verify`` read their trajectories from it.  ``_scan`` also
finds the first grid state off the cone, and the first time the state
diverges or its Bloch vector reaches a given radius, which ends a
surface-stopping run and each stage of a gate plan (``radius_root``);
``_event_root`` finds that time by ITP, each point read straight from the
bracket start through the same polynomial.
Trajectories carry purity, entropy, tr(X Omega) and the cone margin tau - |r|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channels import _ORDERS, AffineGenerator, ChannelSpec, _powers, assemble
from .errors import ApexReached, BlowUp, ConeViolation, StepFailure
from .pauli import PsdState
from .tolerances import (APEX_TAU, CONE_RATIO_TOL, EIG_ROUNDOFF, SURFACE_TOL,
                         TIME_WINDOW)

__all__ = [
    "IntegratorOpts", "StepStats", "Trajectory", "rhs", "integrate",
    "radius_root", "CSV_HEADER", "GRID_STEPS",
]

CSV_HEADER = "t,tau,x,y,z,purity,entropy,trXOmega,coneMargin"
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(","))) + "\n"
# Rows formatted by one % operation.  Larger blocks are no faster (201 rows
# on a 2-core x86-64: 808 us in blocks of 64, 807 us in one block, 839 us a
# row at a time) and raise the peak memory of a run of many small writes:
# the benchmark's interactive workload peaked 0.3 MB higher than with one
# % per row in blocks of 64 rows, and 1.0 MB higher in one block.
_CSV_BLOCK = 64

# The fewest grid steps of ``stability`` and of ``verify``'s unsampled runs,
# and ``simulate``'s default row count less one.  Every grid state is exact,
# so it sets no accuracy, only the times at which ``stability`` reads its
# tr(X Omega) extremes and tests its deviation for monotone decay.
GRID_STEPS = 200


@dataclass(frozen=True)
class IntegratorOpts:
    """Settings of an ``integrate`` run.

    ``max_steps`` caps the grid and must be at least 1.  Only a sampled or
    final-state run keeps no more grid states than it returns, so for it the
    cap bounds time, not memory: about 0.6 s per 1e6 steps on a 2-core
    x86-64 machine.
    ``allow_off_cone`` disables the cone and apex halting checks (used for
    instability probes and for propagating operator-basis elements);
    ``stop_on_surface`` ends the run cleanly when the state reaches the pure
    surface |r| = tau, which is where an amplification gate terminates.
    ``rtol`` and ``atol`` are deprecated: ``integrate`` reads the exact
    solution and no longer reads them.  They must still be finite,
    nonnegative and not both zero, and a value other than the default emits
    a DeprecationWarning.
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


_FLOAT = np.dtype(float)


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
            arr = getattr(self, name)
            if type(arr) is not np.ndarray or arr.dtype is not _FLOAT:
                arr = np.asarray(arr, dtype=float)
                object.__setattr__(self, name, arr)
            arr.setflags(write=False)
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
        for i in range(0, len(cols), _CSV_BLOCK):
            block = cols[i:i + _CSV_BLOCK]
            out.write((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))


def rhs(spec: ChannelSpec, state: PsdState) -> tuple[np.ndarray, float]:
    """Instantaneous velocity (dr/dt, dtau/dt) at a state.

    Defined on and off the cone; off-cone evaluations are what reveal the
    instability of the quadratic-slowdown gate beyond the pure surface.
    """
    y = np.concatenate(([state.tau], state.r))
    dy = assemble(spec).velocity(y)
    return dy[1:], float(dy[0])


def _margin(y, rho: float = 1.0) -> float:
    """rho tau - |r|: the cone margin, or with rho < 1 the margin to radius rho."""
    return float(rho * y[0] - math.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2))


def _off_cone(ys: np.ndarray) -> np.ndarray:
    """Where states ys (m, 4) are below the apex cutoff or outside the cone
    beyond tolerance."""
    tau = ys[:, 0]
    rn = np.sqrt((ys[:, 1:] ** 2).sum(axis=1))
    return (tau < APEX_TAU) | (rn > tau * (1.0 + CONE_RATIO_TOL))


def _check_cone(ts, ys: np.ndarray, initial: bool = False) -> None:
    """Halt with ApexReached or ConeViolation at the first of the states ys,
    at the times ts, that ``_off_cone`` flags."""
    bad = np.flatnonzero(_off_cone(ys))
    if not bad.size:
        return
    t, y = ts[bad[0]], ys[bad[0]]
    if y[0] < APEX_TAU:
        raise ApexReached("initial trace below the apex cutoff" if initial
                          else "trace underflow during integration", t, y[0], y[1:])
    raise ConeViolation("initial state outside the PSD cone" if initial
                        else "state left the PSD cone during integration", t, y[0], y[1:])


# k! for the orders k = 1, ..., 20 of the Taylor polynomial; each is exact
# in a double.
_FACTORIALS = np.cumprod(_ORDERS.astype(float))

# The constants of ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2020), part
# of the algorithm as the Taylor degree is: the truncation kappa1 w^2 / h,
# w the bracket's width and h its first, and the n0 points beyond bisection
# that its projection allows.
_ITP_KAPPA1 = 0.2
_ITP_N0 = 1


def _event_root(gen, t, z, h, probe):
    """The first dt in [0, h] at which ``inside`` fails on Y' = A Y, by ITP.

    z is Y at t, where ``inside`` holds; it fails at t + h.  ``probe(d)``
    returns ``inside`` and a continuous event function F, positive where
    ``inside`` holds, at the state z + d.  The increment d = Y(t + dt) - z =
    sum_k (dt w)^k P[k], w = ||A||_1 and P[k] = (A / w)^k z / k!, is the
    terms of ``AffineGenerator.propagator`` applied to z once: with dt w <= 1
    nothing is squared, and each point comes straight from the bracket start.
    The bracket [lo, hi] narrows until hi - lo <= 4e-16 (t + hi), at most 200
    times.  Each point is ITP's: the regula falsi point of F at the ends,
    moved towards the midpoint by kappa1 w^2 / h, but by no less than half
    the stop width, and kept within the distance of the midpoint that leaves
    the bracket after j points no wider than h 2^(n0 - j).  So it takes at
    most n0 points more than bisection, and on a smooth F it converges
    superlinearly.  F only picks each point; ``inside`` decides which end it
    replaces.  Where F's sign disagrees with ``inside``, F has run out of
    digits and puts the root at that end; the step off it then doubles with
    each further such point, so a stretch where F is roundoff costs about
    twice the log of its width in points, not its width.  Two calls of
    ``probe`` read F at the ends first.  Returns lo, d there, hi and d there
    (None while hi = h).
    """
    rate, powers = gen._taylor
    terms = (powers @ z) / _FACTORIALS[:, None]
    lo, d_lo, hi, d_hi = 0.0, np.zeros_like(z), h, None
    f_lo = probe(d_lo)[1]
    f_hi = probe(np.power(h * rate, _ORDERS) @ terms)[1]
    stuck = 0
    for j in range(200):
        w, tol = hi - lo, 4e-16 * (t + hi)
        if w <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not f_lo > f_hi:
            x = mid
        else:
            x = lo + w * min(1.0, max(0.0, float(f_lo / (f_lo - f_hi))))
            delta = math.ldexp(max(_ITP_KAPPA1 * w * w / h, 0.5 * tol), max(0, stuck - 1))
            sigma = math.copysign(1.0, mid - x)
            x = x + sigma * delta if delta <= abs(mid - x) else mid
            r = math.ldexp(h, _ITP_N0 - 1 - j) - 0.5 * w
            if abs(x - mid) > r:
                x = mid - sigma * r
            if not lo < x < hi:
                x = mid
        d = np.power(x * rate, _ORDERS) @ terms
        inside, f = probe(d)
        if inside:
            lo, d_lo, f_lo = x, d, f
        else:
            hi, d_hi, f_hi = x, d, f
        # Points in a row whose F disagrees with inside.
        stuck = stuck + 1 if (f <= 0.0 if inside else f >= 0.0) else 0
    return lo, d_lo, hi, d_hi


# The scan renormalizes its state at the start of every block of this many
# steps.  A step changes the state's 1-norm by a factor between 1/e and e
# (h ||A||_1 <= 1), so within a block it stays within e^64 ~ 6e27 of its
# rescaled size.  It tests the cone once per chunk of 64 blocks.
_RESCALE_STEPS = 64
_CHUNK = 64 * _RESCALE_STEPS

# The scan ends before the first grid state y = Y / s with a component of
# size 2^511 or more: beyond it |r|^2, which the cone test and the
# trajectory's columns take, does not fit in a double.  A block starts from
# a pair (Y, c) of size 1, so within it |Y|_1 <= 4 e^64, and only where
# s <= _S_FLOOR (8 e^64 leaves room for roundoff) can y reach _OVERFLOW.
_OVERFLOW = 2.0 ** 511
_S_FLOOR = 8.0 * math.exp(_RESCALE_STEPS) / _OVERFLOW


class _Scan(NamedTuple):
    steps: int                 # to t_end, or to the last grid time before the event
    y: np.ndarray              # every grid state after t = 0 to there, or one per target
    dt: np.ndarray             # each kept target's time less its grid state's
    event: str | None          # "blow_up", "radius", "off_cone", "overflow" or None
    t_stop: float | None       # t*, the radius root, the grid time off the cone
                               # or the last grid time before the overflow
    y_stop: np.ndarray | None  # the state there; at t*, the last grid state before it


def _grid_steps(gen: AffineGenerator, t_end: float, min_steps: int = 1) -> int:
    """Steps of the scan's grid on [0, t_end]: h ||A||_1 <= 1, at least min_steps."""
    return max(min_steps, math.ceil(t_end * gen.scale))


def _scan(gen: AffineGenerator, y0: np.ndarray, t_end: float, n: int,
          rho: float | None = None, targets: Sequence[float] | None = None,
          cone: bool = False) -> _Scan:
    """The exact solution on the grid np.linspace(0, t_end, n + 1) up to its first event.

    y(t) = Y(t) / s(t) with Y = e^{At} y0 and s = 1 + g (Y_tau - tau0); n
    comes from ``_grid_steps``, so h ||A||_1 <= 1.  Each block of 64 grid
    steps rescales the pair (Y, 1 - g tau0), which leaves Y / s unchanged,
    and advances it by the powers e^{hA}, ..., e^{64 hA} of one
    ``propagator`` step.  A block's event is its first grid step that ends
    with s <= 0 (the state diverges), given a radius rho with rho tau < |r|
    on y = Y / s, or with s > 0 and a state of size _OVERFLOW or more
    ("overflow", which ends a growing linear run before its rescaled s
    underflows to 0).  The blocks' states fill a chunk of up to _CHUNK, which
    also ends with the grid or at a block event.  With ``cone`` one
    ``_off_cone`` call tests the chunk, and its first flagged state is the
    event "off_cone", before any later one.  The chunk's states before the
    event are kept: all of them without ``targets``; with sorted targets in
    (0, t_end (1 + TIME_WINDOW)] the grid state at the last grid time at or
    before each, and in ``dt`` the target's time less that one, up to a
    blow-up's last grid time or before another event, so memory does not
    grow with n.  Kept states that one array holds, one chunk's or a single
    target's, are returned as a view of it, not copied.  The scan ends at
    the last grid time before the event.  It searches the grid step of a
    divergence or radius crossing once (``_event_root``), on s > 0 and
    rho tau >= |r| together, s formed from its value there plus the
    increment's; its points are picked by the event function
    min(s, rho Y_tau - |Y_r|).  The radius root's state, at
    the bracket's lower end, has rho tau - |r| >= 0 as ``_margin`` computes
    it, and the sign of s at the upper end tells t*, that end, from a radius
    root.
    """
    g = gen.g
    h = t_end / n
    powers = _powers(gen.propagator([h])[0], min(n, _RESCALE_STEPS))
    # (y, c) is (Y, 1 - g tau0) up to a common positive factor, and z the
    # state y / s at the last grid time t kept.
    y, c, z, t = y0, 1.0 - g * y0[0], y0, 0.0
    tq = np.asarray(() if targets is None else targets, dtype=float)
    kept, dts = [], []
    # The targets before tq[i] are kept, k grid steps scanned, and the
    # chunk holds the states after the k0-th.
    i = k = k0 = 0
    event = t_stop = y_stop = None
    while k < n:
        if k == k0:
            chunk = np.empty((min(_CHUNK, n - k), 4))
        m = max(abs(c), float(np.abs(y).max()))
        y, c = y / m, c / m
        ys = powers[:n - k] @ y
        s = c + g * ys[:, 0]
        # s <= 0, or the state Y / s too large: no state to divide out.
        big = s <= _S_FLOOR
        denom = s
        if np.count_nonzero(big):
            big &= np.abs(ys).max(axis=1) * (1.0 / _OVERFLOW) >= s
            denom = np.where(big, 1.0, s)
        zs = np.divide(ys, denom[:, None], out=chunk[k - k0:k - k0 + len(ys)])
        out = big if rho is None else big | (
            rho * zs[:, 0] < np.sqrt((zs[:, 1:] ** 2).sum(axis=1)))
        hit = out.nonzero()[0]
        j = int(hit[0]) if hit.size else len(ys)
        y = ys[j - 1] if j else y
        k += j
        if k < k0 + len(chunk) and not hit.size:
            continue
        # The chunk ends: one cone test, then keep its states before the event.
        zs = chunk[:k - k0]
        bad = _off_cone(zs).nonzero()[0] if cone else ()
        if len(bad):
            k = k0 + int(bad[0])
            event, y_stop, zs = "off_cone", zs[k - k0], zs[:k - k0]
            t_stop = t_end if k + 1 == n else (k + 1) * h
        if len(zs):
            t_j = t_end if k == n else k * h
            if targets is None:
                kept.append(zs)
            elif i < tq.size and tq[i] < t_j:
                e = int(tq.searchsorted(t_j))
                times = np.arange(k0, k + 1, dtype=float) * h  # np.linspace's t
                times[-1] = t_j
                at = times.searchsorted(tq[i:e], side="right") - 1
                kept.append(np.concatenate((z[None], zs))[at])
                dts.append(tq[i:e] - times[at])
                i = e
            z, t = zs[-1], t_j
        k0 = k
        if event is not None:
            break
        if not hit.size:
            continue
        if big[j] and s[j] > 0.0:
            event, t_stop, y_stop = "overflow", t, z
            break
        s_y = c + g * y[0]

        def probe(d):
            # inside: s > 0 and rho tau >= |r| on (y + d) / s; F: the least
            # of s and rho Y_tau - |Y_r|.
            s_d = s_y + g * d[0]
            if rho is None:
                return s_d > 0.0, s_d
            big = y + d
            return (s_d > 0.0 and _margin(big / s_d, rho) >= 0.0,
                    min(s_d, _margin(big, rho)))

        lo, d_lo, hi, d_hi = _event_root(gen, t, y, h, probe)
        if (s[j] if d_hi is None else s_y + g * d_hi[0]) <= 0.0:
            event, t_stop, y_stop = "blow_up", t + hi, z
        else:
            event, t_stop, y_stop = "radius", t + lo, (y + d_lo) / (s_y + g * d_lo[0])
        break
    # The targets from the last grid time on, up to the event, keep its state.
    e = (tq.searchsorted(t, side="right") if event in ("blow_up", "overflow")
         else tq.size if event is None else tq.searchsorted(t_stop))
    if e > i:
        kept.append(z[None] if e - i == 1 else z[None].repeat(e - i, axis=0))
        dts.append(tq[i:e] - t)
    return _Scan(k, _joined(kept, (0, 4)), _joined(dts, (0,)), event, t_stop, y_stop)


def _joined(parts: list, empty: tuple) -> np.ndarray:
    """The arrays of parts end to end, without a copy for one, or an empty
    array of shape empty for none."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(empty)


def _blow_up_error(t_star: float, t: float, y: np.ndarray) -> BlowUp:
    """The BlowUp of a state that diverges at t_star, carrying its state y at t."""
    return BlowUp(f"the state diverges at t* = {t_star:.17g}, where "
                  "1 + g (tr(e^(At) X0) - tau0) reaches 0; the state given "
                  f"is at t = {t:.17g}", t_star, y[0], y[1:])


def _raise_event(scan: _Scan, h: float) -> None:
    """Raise the error of a scan, grid step h, that ends off the cone, at a
    blow-up or at an overflow."""
    if scan.event == "off_cone":
        _check_cone([scan.t_stop], scan.y_stop[None])
    if scan.event == "blow_up":
        raise _blow_up_error(scan.t_stop, scan.steps * h, scan.y_stop)
    if scan.event == "overflow":
        raise StepFailure(f"the state overflows after t = {scan.t_stop:.17g}: at the "
                          "next grid time a component passes 2^511, where |r|^2 no "
                          "longer fits in a double; the state given is at t = "
                          f"{scan.t_stop:.17g}", scan.t_stop, scan.y_stop[0],
                          scan.y_stop[1:])


def radius_root(spec: ChannelSpec, y0: np.ndarray, rho: float,
                t_max: float) -> tuple[float, np.ndarray]:
    """The first time t at which the exact solution from y0 = (tau, r) has
    |r| = rho tau, and its state there: one stage of a gate plan.

    One ``_scan`` with no cone test and no kept grid state runs to the
    horizon min(t_max, max_steps / ||A||_1), max_steps ``IntegratorOpts``'s
    default.  A state that diverges or overflows first raises ``integrate``'s
    BlowUp or StepFailure; no root by the horizon, or no finite horizon,
    raises StepFailure.
    """
    gen = assemble(spec)
    horizon = min(t_max, IntegratorOpts.max_steps / gen.scale if gen.scale else math.inf)
    if horizon == math.inf:
        raise StepFailure("the rates give no finite scan horizon; give a finite t_max")
    n = _grid_steps(gen, horizon)
    scan = _scan(gen, y0, horizon, n, rho, targets=())
    _raise_event(scan, horizon / n)
    if scan.event != "radius":
        raise StepFailure(f"no radius root by t = {horizon:.6g} (t_max = {t_max:g})")
    return scan.t_stop, scan.y_stop


def _initial_vector(initial: PsdState, t_end: float, opts: IntegratorOpts) -> np.ndarray:
    """y0 = (tau, r) of a run's initial state, after the checks every run makes."""
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    y = [initial.tau, *initial.r.tolist()]
    # ``_off_cone`` on one state, in scalars; ``_check_cone`` raises.
    if not opts.allow_off_cone and (y[0] < APEX_TAU or math.sqrt(
            y[1] * y[1] + y[2] * y[2] + y[3] * y[3]) > y[0] * (1.0 + CONE_RATIO_TOL)):
        _check_cone([0.0], np.array([y]), initial=True)
    return np.array(y)


def _sample_targets(sample_times: Sequence[float], t_end: float) -> np.ndarray:
    """The times after t = 0 that a sampled run records, as a float array.

    These are the sorted, distinct sample times in (0, t_end], then t_end
    when the last of them falls short of it by more than TIME_WINDOW.
    Raises ValueError for a time that is not finite or not in [0, t_end].
    """
    # Sorted, any NaN last, so the two ends show every bad time.  Not
    # np.unique: it imports numpy.ma on first use, 10 ms and 0.8 MB.
    ts = np.sort(np.asarray(sample_times, dtype=float), axis=None)
    if ts.size:
        first, last = float(ts[0]), float(ts[-1])
        if not (math.isfinite(first) and math.isfinite(last)):
            raise ValueError("sample_times must be finite")
        if first < 0.0 or last > t_end * (1.0 + TIME_WINDOW):
            raise ValueError("sample_times must lie within [0, t_end]")
        if ts.size > 1:
            keep = ts > 0.0
            keep[1:] &= ts[1:] != ts[:-1]
            ts = ts[keep]
        elif first == 0.0:
            ts = ts[:0]
    if not ts.size or ts[-1] < t_end * (1.0 - TIME_WINDOW):
        ts = np.append(ts, float(t_end))
    return ts


def _advance(gen: AffineGenerator, y: np.ndarray, dt) -> np.ndarray:
    """The exact states a time dt after the states y.

    y is one state with one dt, or a stack (m, 4) with m times; each goes
    to e^{A dt} y / (1 + g (tau(e^{A dt} y) - tau)), e^{A dt} from
    ``AffineGenerator.propagator``.  For dt ||A||_1 <= 1, a grid step or
    less, that is the Taylor polynomial without squaring, whose remainder is
    at most e / 21! of |y|, below a double's roundoff; a row is a function
    of its own y and dt, bit for bit, whatever else the stack holds.
    dt = 0 returns y as it is.
    """
    big_y = (gen.propagator(np.ravel(dt)) @ y.reshape(-1, 4, 1)).reshape(y.shape)
    return big_y / (1.0 + gen.g * (big_y[..., :1] - y[..., :1]))


def integrate(spec: ChannelSpec, initial: PsdState, t_end: float,
              opts: IntegratorOpts | None = None, *, min_steps: int = 1,
              sample_times: Sequence[float] | None = None) -> Trajectory:
    """The exact solution of a channel from an initial state up to t_end.

    Records y(t) = e^{At} y0 / s(t) at the n + 1 times
    np.linspace(0, t_end, n + 1) of ``_scan``, with
    n = max(min_steps, ceil(t_end ||A||_1)) for an integer min_steps >= 1;
    a grid of more than ``opts.max_steps`` steps is refused with
    StepFailure.  With ``sample_times`` the rows are t = 0, the sorted
    distinct sample times and t_end instead: the scan keeps only the grid
    state at or before each, and one propagator call, the Taylor
    polynomial unsquared within a grid step, advances each to its time
    (``_advance``), so memory does not grow with n.
    Unless ``allow_off_cone`` is set, the first state below the apex cutoff
    or outside the cone beyond tolerance halts the run with ApexReached or
    ConeViolation: the scan tests every grid state, and only the advanced
    sample states get a test of their own.  The scan's other events end
    the run early: a nonlinear run (g != 0) whose state diverges at a time
    t* <= t_end raises BlowUp unless it halts first, a state that grows
    past 2^511, where |r|^2 no longer fits in a double, raises StepFailure
    with the last grid state before it, and a ``stop_on_surface`` run ends
    with the state where it first reaches the pure surface |r| = tau,
    which the scan brackets to a few units in the last place of t, and
    drops later samples.  A surface that the state only approaches
    asymptotically, with a margin tau - |r| below roundoff over a stretch of
    time, has no root the arithmetic can tell: such a run stops at a time in
    that stretch set by roundoff.  ``stats`` counts the grid steps scanned
    as accepted steps.
    """
    if not (isinstance(min_steps, (int, np.integer)) and min_steps >= 1):
        raise ValueError(f"min_steps must be an integer >= 1, got {min_steps!r}")
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
    scan = _scan(gen, y0, t_end, n, 1.0 if opts.stop_on_surface else None,
                 targets, not opts.allow_off_cone)
    h = t_end / n
    # The rows: y0, the scan's states, and a radius root's state.
    m = len(scan.y)
    ts = np.empty(m + 1 + (scan.event == "radius"))
    ys = np.empty((len(ts), 4))
    ys[0], ys[1:m + 1] = y0, scan.y
    if targets is None:
        ts[:m + 1] = np.arange(m + 1, dtype=float) * h  # np.linspace's grid times
        if scan.steps == n:
            ts[m] = t_end
    else:
        ts[0], ts[1:m + 1] = 0.0, targets[:m]
        moved = scan.dt > 0.0
        if np.count_nonzero(moved):
            rows = ys[1:m + 1]
            rows[moved] = advanced = _advance(gen, rows[moved], scan.dt[moved])
            if not opts.allow_off_cone:  # the scan tested the grid states
                _check_cone(ts[1:m + 1][moved], advanced)
    _raise_event(scan, h)  # after the rows, which come before it
    if scan.event == "radius":
        ts[-1], ys[-1] = scan.t_stop, scan.y_stop
        return _build_trajectory(spec, gen, ts, ys, StepStats(scan.steps + 1, 0, 0.0),
                                 "surface")
    return _build_trajectory(spec, gen, ts, ys, StepStats(scan.steps, 0, 0.0), "t_end")


def _build_trajectory(spec, gen, rec_t, rec_y, stats, stop_reason) -> Trajectory:
    ys = np.asarray(rec_y)
    tau, r = ys[:, 0], ys[:, 1:]
    rn = np.sqrt((r ** 2).sum(axis=1))
    trxo = ys @ -gen.A[0]  # tr(X Omega), Omega = -A[0]
    ratio = np.empty(len(ys))
    ratio.fill(np.nan)
    np.divide(rn, tau, out=ratio, where=tau != 0.0)
    purity = 0.5 * (1.0 + ratio ** 2)
    # The eigenvalues (1 +- |r| / tau) / 2 of X / tau, as two rows.
    v = np.multiply.outer(_SIGNS, ratio)
    v += 1.0
    v *= 0.5
    xlogx = _xlogx(v)
    entropy = 0.0 - (xlogx[0] + xlogx[1])  # +0, not -0, when pure
    return Trajectory(
        t=rec_t, tau=tau, r=r, purity=purity, entropy=entropy,
        tr_x_omega=trxo, cone_margin=tau - rn, stats=stats,
        stop_reason=stop_reason, spec=spec,
    )


_SIGNS = np.array([1.0, -1.0])


def _xlogx(v: np.ndarray) -> np.ndarray:
    # 0 log 0 -> 0; slightly negative eigenvalues from roundoff count as 0,
    # genuinely negative ones (off-cone states) give nan, and nan gives 0.
    w = np.where(v > 0.0, v, 1.0)
    out = w * np.log(w)
    out[v < -EIG_ROUNDOFF] = np.nan
    return out
