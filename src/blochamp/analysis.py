"""Fixed points, stability, Choi certification and gate planning.

Fixed-point searches run on the unit-trace plane for nonlinear channels
(their trace is conserved there) and as a full affine solve for linear
ones.  Complete positivity of a linear channel at finite time is certified
by propagating the four operator-basis elements and assembling the Choi
matrix; a negative eigenvalue flags a positive but non-CP map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import presets
from .channels import ChannelSpec, assemble
from .dynamics import IntegratorOpts, integrate
from .errors import InvalidParams, TargetUnreachable
from .pauli import PsdState, reconstruct

__all__ = [
    "FixedPoint", "FixedLine", "FixedPointReport", "find_fixed_points",
    "slowdown_exponent", "choi_spectrum", "choi_spectra",
    "GateStage", "GatePlan", "GATES", "plan_amplification", "rotate",
]

# Rank decisions in the affine solve use this relative singular-value cutoff.
_RANK_TOL = 1e-10
_NEWTON_TOL = 1e-12
_NEWTON_POLISH = 1e-14
_NEWTON_MAX_ITER = 100
_DEDUP_RADIUS = 1e-6


@dataclass(frozen=True, eq=False)
class FixedPoint:
    r: np.ndarray
    jacobian_eigenvalues: np.ndarray
    stability: str  # "stable" | "unstable" | "marginal"
    residual: float


@dataclass(frozen=True, eq=False)
class FixedLine:
    """A line of fixed points: {point + s * direction}.

    ``marginal`` is True when no transverse direction grows, so the line is
    neutrally stable overall (motion along it is frozen by definition).
    """

    point: np.ndarray
    direction: np.ndarray
    marginal: bool


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    points: tuple[FixedPoint, ...]
    fixed_lines: tuple[FixedLine, ...]
    restricted_to_tau_plane: bool


def _stability_label(eigvals: np.ndarray, tol: float) -> str:
    max_re = float(np.max(eigvals.real))
    if max_re > tol:
        return "unstable"
    if max_re < -tol:
        return "stable"
    return "marginal"


def _generator_scale(gen) -> float:
    w = gen.omega.ell
    return max(1.0, float(np.linalg.norm(gen.G_linear))
               + abs(gen.g) * float(np.abs(w).sum()))


def _sorted_eigvals(m: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(m)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def find_fixed_points(spec: ChannelSpec) -> FixedPointReport:
    """Locate fixed points of the coordinate flow and label their stability.

    Linear and pseudo-linear channels reduce to an affine system solved by
    rank analysis (a rank-deficient consistent system is reported as fixed
    lines rather than a failure).  Genuinely nonlinear channels are searched
    with damped Newton iterations from a 5x5x5 seed grid over |r| <= 1.2,
    deduplicating converged roots.
    """
    gen = assemble(spec)
    scale = _generator_scale(gen)
    marginal_tol = 1e-6 * scale
    restricted = gen.g != 0.0

    if gen.g == 0.0 or gen.pseudo_linear:
        a = gen.G_linear + (gen.g * gen.omega.ell[0]) * np.eye(3)
        b = gen.C_total
        return _affine_report(a, b, restricted, marginal_tol)
    return _newton_report(gen, restricted, marginal_tol)


def _affine_report(a, b, restricted, marginal_tol) -> FixedPointReport:
    u, s, vt = np.linalg.svd(a)
    s_max = s[0] if s.size else 0.0
    rank = int(np.sum(s > _RANK_TOL * max(1.0, s_max)))
    eigvals = _sorted_eigvals(a)

    if rank == 3:
        r = np.linalg.solve(a, -b)
        res = float(np.linalg.norm(a @ r + b))
        pt = FixedPoint(r, eigvals, _stability_label(eigvals, marginal_tol), res)
        return FixedPointReport((pt,), (), restricted)

    # Rank-deficient: a consistent system has a line (or plane) of solutions.
    r_p, *_ = np.linalg.lstsq(a, -b, rcond=None)
    res = float(np.linalg.norm(a @ r_p + b))
    if res > _RANK_TOL * max(1.0, float(np.linalg.norm(b))):
        return FixedPointReport((), (), restricted)
    transverse = eigvals[np.abs(eigvals) > _RANK_TOL * max(1.0, s_max)]
    marginal = bool(transverse.size == 0
                    or np.max(transverse.real) <= marginal_tol)
    lines = tuple(
        FixedLine(point=r_p.copy(), direction=vt[i], marginal=marginal)
        for i in range(rank, 3)
    )
    return FixedPointReport((), lines, restricted)


def _residual_fn(gen):
    """Velocity dr/dt on the unit-trace plane, and its Jacobian in r."""
    a0 = gen.G_linear
    b = gen.C_total
    w = gen.omega.ell
    w0, wv = w[0], w[1:]
    g = gen.g

    def fval(r):
        return a0 @ r + b + g * (w0 + r @ wv) * r

    def jac(r):
        return a0 + g * ((w0 + r @ wv) * np.eye(3) + np.outer(r, wv))

    return fval, jac


def _newton_report(gen, restricted, marginal_tol) -> FixedPointReport:
    fval, jac = _residual_fn(gen)
    grid = np.linspace(-1.2, 1.2, 5)
    roots = []
    for x0 in grid:
        for y0 in grid:
            for z0 in grid:
                seed = np.array([x0, y0, z0])
                if np.linalg.norm(seed) > 1.2 + 1e-12:
                    continue
                root = _damped_newton(fval, jac, seed)
                if root is not None:
                    roots.append(root)
    points = []
    for r in _dedupe(roots):
        j = jac(r)
        ev = _sorted_eigvals(j)
        points.append(FixedPoint(r, ev, _stability_label(ev, marginal_tol),
                                 float(np.linalg.norm(fval(r)))))
    points.sort(key=lambda p: (round(p.r[0], 9), round(p.r[1], 9), round(p.r[2], 9)))
    return FixedPointReport(tuple(points), (), restricted)


def _damped_newton(fval, jac, r0):
    r = r0.astype(float).copy()
    res = float(np.linalg.norm(fval(r)))
    for _ in range(_NEWTON_MAX_ITER):
        if res <= _NEWTON_POLISH:
            break
        step, *_ = np.linalg.lstsq(jac(r), -fval(r), rcond=None)
        lam = 1.0
        improved = False
        for _ in range(25):
            trial = r + lam * step
            trial_res = float(np.linalg.norm(fval(trial)))
            if trial_res < res:
                r, res = trial, trial_res
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return r if res <= _NEWTON_TOL else None


def _dedupe(roots):
    clusters: list[list[np.ndarray]] = []
    for r in roots:
        for cluster in clusters:
            if any(np.linalg.norm(r - other) <= _DEDUP_RADIUS for other in cluster):
                cluster.append(r)
                break
        else:
            clusters.append([r])
    return [np.mean(c, axis=0) for c in clusters]


def slowdown_exponent(spec: ChannelSpec, fp: Sequence[float],
                      approach_dir: Sequence[float]) -> float:
    """Exponent p of the speed law |dr/dt| ~ delta^p approaching a fixed point.

    Evaluates the speed at fp - delta*dir for 20 log-spaced deltas in
    [1e-5, 1e-2] on the unit-trace plane and returns the least-squares slope
    of log speed against log delta.  Exponent 1 marks linear deceleration,
    2 the harsher quadratic slowdown; probing an exactly fixed direction is
    rejected.
    """
    fp = np.asarray(fp, dtype=float).reshape(3)
    d = np.asarray(approach_dir, dtype=float).reshape(3)
    for name, v in (("fp", fp), ("approach_dir", d)):
        if not np.isfinite(v).all():
            raise InvalidParams(f"{name} must be finite")
    dn = np.linalg.norm(d)
    if dn == 0.0:
        raise InvalidParams("approach_dir must be nonzero")
    d = d / dn
    velocity, _ = _residual_fn(assemble(spec))
    deltas = np.logspace(-5, -2, 20)
    speeds = np.array([np.linalg.norm(velocity(fp - delta * d)) for delta in deltas])
    if np.all(speeds < 1e-14):
        raise InvalidParams("speed vanishes along this direction; "
                            "it is exactly fixed")
    return float(np.polyfit(np.log(deltas), np.log(speeds), 1)[0])


# ---------------------------------------------------------------------------
# Choi certification

_E00 = np.array([[1, 0], [0, 0]], dtype=complex)
_E01 = np.array([[0, 1], [0, 0]], dtype=complex)
_E10 = np.array([[0, 0], [1, 0]], dtype=complex)
_E11 = np.array([[0, 0], [0, 1]], dtype=complex)

# (tau, r) coordinates of E00, E11 and the Hermitian/anti-Hermitian parts
# of E01; the linear flow extends to arbitrary operators through them.
_CHOI_BASIS = (
    (1.0, (0.0, 0.0, 1.0)),    # E00
    (1.0, (0.0, 0.0, -1.0)),   # E11
    (0.0, (1.0, 0.0, 0.0)),    # (E01 + E10)/2 = sigma_x / 2
    (0.0, (0.0, 1.0, 0.0)),    # (E01 - E10)/(2i) = sigma_y / 2
)


def choi_spectra(spec: ChannelSpec, ts: Sequence[float]) -> np.ndarray:
    """Choi eigenvalues (ascending) of the finite-time map at each time.

    Only defined for linear channels (g = 0).  Uses the unnormalized Choi
    matrix sum_ij E_ij (x) Phi_t(E_ij), whose trace is 2 at t = 0; any
    eigenvalue below zero certifies a non-completely-positive map.
    """
    if spec.g != 0.0:
        raise InvalidParams("the Choi representation requires a linear "
                            "channel (g = 0)")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts must be a nonempty 1-d sequence")
    if np.any(ts < 0.0):
        raise ValueError("times must be nonnegative")

    t_max = float(ts.max())
    unique_ts = np.unique(ts)
    basis = [PsdState(tau, r, physical=False) for tau, r in _CHOI_BASIS]
    if t_max == 0.0:
        propagated = [{0.0: state} for state in basis]
    else:
        opts = IntegratorOpts(rtol=1e-12, atol=1e-14, allow_off_cone=True)
        propagated = []
        for state in basis:
            traj = integrate(spec, state, t_max, opts, sample_times=unique_ts)
            propagated.append({float(t): traj.state(i) for i, t in enumerate(traj.t)})

    spectra = np.empty((ts.size, 4))
    for row, t in enumerate(ts):
        phi_e00, phi_e11, herm, anti = (reconstruct(tab[float(t)]) for tab in propagated)
        phi_e01 = herm + 1j * anti
        phi_e10 = herm - 1j * anti
        choi = (np.kron(_E00, phi_e00) + np.kron(_E01, phi_e01)
                + np.kron(_E10, phi_e10) + np.kron(_E11, phi_e11))
        choi = 0.5 * (choi + choi.conj().T)
        spectra[row] = np.sort(np.linalg.eigvalsh(choi))
    return spectra


def choi_spectrum(spec: ChannelSpec, t: float) -> np.ndarray:
    """Choi eigenvalues (ascending) of the finite-time map at one time."""
    return choi_spectra(spec, [t])[0]


# ---------------------------------------------------------------------------
# Gate planning


@dataclass(frozen=True, eq=False)
class GateStage:
    spec: ChannelSpec
    duration: float


@dataclass(frozen=True, eq=False)
class GatePlan:
    """Stages and timing of one amplification gate, validated by integration.

    ``t_gate`` is the main-stage duration; ``achieved`` is the state reached
    by re-integrating the planned stages from the maximally mixed state.
    """

    gate: str
    pre_amp: GateStage | None
    main: GateStage
    target_purity: float
    epsilon: float
    t_gate: float
    achieved: PsdState


# Gate name -> the preset that runs its main stage.
GATES = {"linear_cptp": "linear_cptp", "one_jump": "onejump_nino",
         "three_jump": "threejump_nino", "linear_non_cp": "linear_noncp"}


def plan_amplification(gate: str, params: Mapping[str, float],
                       target_purity: float, epsilon: float = 1e-3,
                       t_max: float = 1e4) -> GatePlan:
    """Plan an amplification gate reaching the requested purity.

    Single-stage gates (linear_cptp, one_jump) start from the maximally
    mixed state directly; the unstable-center gates (three_jump,
    linear_non_cp) are preceded by a short linear_cptp stage that nudges the
    state to r = (epsilon, 0, 0) before the exponential growth takes over.
    """
    if gate not in GATES:
        raise InvalidParams(f"unknown gate {gate!r}; choose from {tuple(GATES)}")
    if not 0.5 < target_purity < 1.0:
        raise InvalidParams("target_purity must lie strictly between 0.5 and 1")
    if not 0.0 < epsilon <= 0.1:
        raise InvalidParams("epsilon must lie in (0, 0.1]")
    r_target = math.sqrt(2.0 * target_purity - 1.0)
    builder = presets.PRESETS[GATES[gate]]

    if gate in ("linear_cptp", "one_jump"):
        m = float(params.get("m", 1.0))
        if gate == "linear_cptp":
            duration = -math.log(1.0 - r_target) / (4.0 * m * m)
        else:
            duration = r_target / ((1.0 - r_target) * 2.0 * m * m)
        return _single_stage_plan(gate, builder(m), duration, target_purity,
                                  epsilon, t_max)

    big_m = float(params.get("M", 1.0))
    gamma = float(params.get("gamma", 0.0))
    if big_m <= gamma:
        raise InvalidParams(
            f"amplification requires M > gamma (got M={big_m}, gamma={gamma}): "
            "otherwise the center of the ball is not unstable")
    if epsilon >= r_target:
        raise InvalidParams("epsilon must be smaller than the target radius")
    main_spec = builder(big_m, gamma)
    pre_spec = presets.linear_cptp(1.0)
    t_pre = -math.log(1.0 - epsilon) / 4.0
    t_gate = _two_rate_gate_time(big_m - gamma, big_m + gamma, epsilon, r_target)
    if t_gate > t_max:
        raise TargetUnreachable(
            f"main stage needs t={t_gate:.6g}, beyond the budget t_max={t_max:g}")

    mixed = PsdState(1.0, np.zeros(3))
    pre_end = integrate(pre_spec, mixed, t_pre).final_state
    achieved = integrate(
        main_spec, PsdState(pre_end.tau, pre_end.r), t_gate).final_state
    return GatePlan(gate=gate, pre_amp=GateStage(pre_spec, t_pre),
                    main=GateStage(main_spec, t_gate),
                    target_purity=target_purity, epsilon=epsilon,
                    t_gate=t_gate, achieved=achieved)


def _single_stage_plan(gate, spec, duration, target_purity, epsilon, t_max):
    if duration > t_max:
        raise TargetUnreachable(
            f"gate {gate} needs t={duration:.6g} to reach purity "
            f"{target_purity}, beyond the budget t_max={t_max:g}")
    achieved = integrate(spec, PsdState(1.0, np.zeros(3)), duration).final_state
    return GatePlan(gate=gate, pre_amp=None, main=GateStage(spec, duration),
                    target_purity=target_purity, epsilon=epsilon,
                    t_gate=duration, achieved=achieved)


def _two_rate_gate_time(a: float, b: float, eps: float, r_target: float) -> float:
    """Solve (eps^2/2) (e^{2at} + e^{-2bt}) = r_target^2 for t.

    Starting from (eps, 0, 0) the rotated coordinates evolve as
    (eps/2) e^{at} and -(eps/2) e^{-bt}, so the squared radius is the left
    side; Newton from the asymptotic solution converges in a few steps.
    """
    target2 = r_target * r_target
    t = math.log(math.sqrt(2.0) * r_target / eps) / a

    def f(t):
        return 0.5 * eps * eps * (math.exp(2 * a * t) + math.exp(-2 * b * t)) - target2

    def fprime(t):
        return eps * eps * (a * math.exp(2 * a * t) - b * math.exp(-2 * b * t))

    for _ in range(60):
        step = f(t) / fprime(t)
        t -= step
        if abs(step) <= 1e-15 * max(1.0, abs(t)):
            break
    return t


def rotate(state: PsdState, axis: Sequence[float], angle: float) -> PsdState:
    """Rotate the coordinate vector about an axis; tau and |r| are unchanged."""
    k = np.asarray(axis, dtype=float).reshape(3)
    kn = np.linalg.norm(k)
    if kn == 0.0:
        raise InvalidParams("rotation axis must be nonzero")
    k = k / kn
    r = state.r
    c, s = math.cos(angle), math.sin(angle)
    r_new = r * c + np.cross(k, r) * s + k * (k @ r) * (1.0 - c)
    return PsdState(state.tau, r_new, physical=state.physical)
