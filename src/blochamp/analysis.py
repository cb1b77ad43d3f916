"""Fixed points, stability, Choi certification and gate planning.

Fixed points come from one eigen-solve of the 4x4 matrix A of the flow
y' = A y + g (w.y) y, y = (tau, r): a real eigenvector with tau != 0,
scaled onto the plane g*tau = 1 where the trace is conserved (tau = 1 for a
linear channel), is a rest state.  Points outside the ball are reported
too; a fixed set of dimension k > 0 is reported as k fixed lines through
its point nearest the center.

Complete positivity of a linear channel at finite time is certified from
its propagator e^{At}, which maps the four operator-basis elements into the
Choi matrix; a negative eigenvalue flags a positive but non-CP map.

Each stage of a gate plan is one ``dynamics.radius_root`` call: the first
time its Bloch vector reaches the stage's radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import dynamics, presets
from .channels import ChannelSpec, assemble
from .errors import IntegrationError, InvalidParams, TargetUnreachable
from .pauli import SIGMA, SIGMA_X, SIGMA_Y, PsdState
from .tolerances import (LINE_SIGN_TOL, MARGINAL_TOL, RANK_TOL, SPEED_ZERO,
                         SPLIT_TOL)

__all__ = [
    "FixedPoint", "FixedLine", "FixedPointReport", "find_fixed_points",
    "slowdown_exponent", "choi_spectrum", "choi_spectra",
    "GateStage", "GatePlan", "GATES", "plan_amplification", "rotate",
]


@dataclass(frozen=True, eq=False)
class FixedPoint:
    r: np.ndarray
    jacobian_eigenvalues: np.ndarray
    stability: str  # "stable" | "unstable" | "marginal"
    residual: float


@dataclass(frozen=True, eq=False)
class FixedLine:
    """A line of fixed points: {point + s * direction}.

    ``direction`` is a unit vector whose first component above LINE_SIGN_TOL
    in magnitude is positive.  ``marginal`` is True when no transverse
    direction grows, so the line is neutrally stable overall (motion along
    it is frozen by definition).
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


def _sorted_eigvals(m: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(m)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def find_fixed_points(spec: ChannelSpec) -> FixedPointReport:
    """Locate fixed points of the coordinate flow and label their stability.

    With y = (tau, r) the flow is y' = A y + g (w.y) y (``AffineGenerator.A``),
    so y rests exactly where A y = lambda y on the plane g*tau = 1 (tau = 1
    when g = 0, where only lambda = 0 counts).  Each real eigenvalue of A
    gives the null space of A - lambda I, by SVD; a null space found before
    (a repeated eigenvalue, split by roundoff) is skipped.  Its vectors with
    tau != 0, scaled onto the plane, are the fixed points, reported as Bloch
    vectors r/tau whether or not they lie in the ball.  A null space of
    dimension k > 1 gives k - 1 fixed lines through the point of the fixed
    set nearest the center.  The Jacobian eigenvalues on the plane are the
    other eigenvalues of A minus lambda.
    """
    gen = assemble(spec)
    a, g = gen.A, gen.g
    split_tol = SPLIT_TOL * gen.scale
    marginal_tol = MARGINAL_TOL * gen.scale
    ev = _sorted_eigvals(a)
    lams = [0.0] if g == 0.0 else ev.real[np.abs(ev.imag) <= split_tol]

    # Each copy of a repeated eigenvalue finds its null space, or a part of
    # it, again: the largest comes first and the rest are dropped.
    nulls = sorted(((_null_space(a, lam), lam) for lam in lams),
                   key=lambda item: -item[0].shape[1])
    points, lines, found = [], [], []
    for null, lam in nulls:
        if any(np.linalg.norm(null - f @ (f.T @ null)) <= SPLIT_TOL for f in found):
            continue
        found.append(null)
        if np.linalg.norm(null[0]) <= RANK_TOL:
            continue
        # Rotate the null basis so that only its first vector has tau != 0.
        null = null @ np.linalg.svd(null[:1])[2].T
        dirs = null[1:, 1:]
        # An SVD vector's sign follows roundoff: flip each direction so that
        # its first component above LINE_SIGN_TOL is positive (and no -0.0).
        lead = dirs[np.argmax(np.abs(dirs) > LINE_SIGN_TOL, axis=0), range(dirs.shape[1])]
        dirs = np.where(lead < 0.0, -dirs, dirs) + 0.0
        r = null[1:, 0] / null[0, 0]
        r = r - dirs @ (dirs.T @ r)
        jac = np.delete(ev, np.argmin(np.abs(ev - lam))) - lam
        if dirs.shape[1]:
            # The other copies of lam, split by roundoff, are the directions
            # along the fixed set: only the transverse ones decide.
            transverse = jac[np.abs(jac) > split_tol]
            marginal = bool(transverse.size == 0
                            or np.max(transverse.real) <= marginal_tol)
            lines += [FixedLine(r.copy(), d, marginal) for d in dirs.T]
            continue
        y = np.concatenate(([1.0], r)) / (g if g else 1.0)
        res = float(np.linalg.norm(gen.velocity(y)))
        points.append(FixedPoint(r, jac, _stability_label(jac, marginal_tol), res))
    points.sort(key=lambda p: (round(p.r[0], 9), round(p.r[1], 9), round(p.r[2], 9)))
    return FixedPointReport(tuple(points), tuple(lines), g != 0.0)


def _null_space(a: np.ndarray, lam: float) -> np.ndarray:
    """Orthonormal columns spanning the null space of a - lam I, by SVD."""
    _, s, vt = np.linalg.svd(a - lam * np.eye(len(a)))
    return vt[s <= RANK_TOL * max(1.0, s[0])].T


def slowdown_exponent(spec: ChannelSpec, fp: Sequence[float],
                      approach_dir: Sequence[float]) -> float:
    """Exponent p of the speed law |dr/dt| ~ delta^p approaching a fixed point.

    Evaluates the Bloch-vector speed at fp - delta*dir for 20 log-spaced
    deltas in [1e-5, 1e-2] on the plane g*tau = 1 where ``find_fixed_points``
    looks (tau = 1 when g = 0) and returns the least-squares slope
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
    gen = assemble(spec)
    deltas = np.logspace(-5, -2, 20)
    # The states (1, b)/g on the plane; the speed scales as 1/g, which leaves
    # the log-slope unchanged.
    ys = np.column_stack((np.ones(deltas.size), fp - deltas[:, None] * d))
    speeds = np.linalg.norm(gen.velocity(ys / (gen.g or 1.0))[:, 1:], axis=1)
    if np.all(speeds < SPEED_ZERO):
        raise InvalidParams("speed vanishes along this direction; "
                            "it is exactly fixed")
    return float(np.polyfit(np.log(deltas), np.log(speeds), 1)[0])


# ---------------------------------------------------------------------------
# Choi certification

# (tau, r) coordinates, as columns, of E00, E11 and the Hermitian and
# anti-Hermitian parts of E01; the linear flow extends to arbitrary operators
# through them.
_CHOI_BASIS = np.array([
    [1.0, 0.0, 0.0, 1.0],     # E00
    [1.0, 0.0, 0.0, -1.0],    # E11
    [0.0, 1.0, 0.0, 0.0],     # (E01 + E10)/2 = sigma_x / 2
    [0.0, 0.0, 1.0, 0.0],     # (E01 - E10)/(2i) = sigma_y / 2
]).T
# With E01 = sigma_x/2 + i sigma_y/2 and E10 its adjoint, the Choi matrix
# sum_ij E_ij (x) Phi(E_ij) is sum_k K_k (x) Phi(basis_k), K = (E00, E11,
# sigma_x, -sigma_y); Phi(basis_k) = sum_a Y[a, k] sigma_a / 2 for its (tau, r)
# coordinates Y[:, k].  _CHOI_BLOCKS[a, k] = K_k (x) sigma_a / 2, built by
# broadcasting: [K (x) S][2i + m, 2j + n] = K[i, j] S[m, n].
_K = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), SIGMA_X, -SIGMA_Y])
_CHOI_BLOCKS = 0.5 * (np.array(SIGMA)[:, None, None, :, None, :]
                      * _K[None, :, :, None, :, None]).reshape(4, 4, 4, 4)


def choi_spectra(spec: ChannelSpec, ts: Sequence[float]) -> np.ndarray:
    """Choi eigenvalues (ascending) of the finite-time map at each time.

    Only defined for linear channels (g = 0), whose map at time t is the
    propagator e^{At} on (tau, r).  Uses the unnormalized Choi matrix
    sum_ij E_ij (x) Phi_t(E_ij), whose trace is 2 at t = 0; any eigenvalue
    below zero certifies a non-completely-positive map.  Rows follow ts.
    """
    if spec.g != 0.0:
        raise InvalidParams("the Choi representation requires a linear "
                            "channel (g = 0)")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts must be a nonempty 1-d sequence")
    if np.any(ts < 0.0):
        raise ValueError("times must be nonnegative")
    images = assemble(spec).propagator(ts) @ _CHOI_BASIS
    choi = np.einsum("tak,akxy->txy", images, _CHOI_BLOCKS)
    return np.linalg.eigvalsh(choi)


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
    """Stages and timing of one amplification gate.

    Each stage's duration is the first time its exact solution, from the
    state the stage before it reached, brings |r| / tau to its radius:
    epsilon for the pre-amplification stage, the target for the main one.
    ``t_gate`` is the main-stage duration, and ``achieved`` the exact state
    at its end.
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
    state to |r| = epsilon before the exponential growth takes over.  Each
    stage ends at the first root of rho tau - |r|, rho its radius, on its
    exact solution, which ``dynamics.radius_root`` scans for up to t_max
    (inf sets no budget) and no further than ``max_steps`` grid steps.  A
    stage with no root there, or whose state diverges or overflows first, is
    refused with TargetUnreachable naming the gate, the stage and the
    radius, chained to the BlowUp or StepFailure that says why.
    """
    if gate not in GATES:
        raise InvalidParams(f"unknown gate {gate!r}; choose from {tuple(GATES)}")
    if not 0.5 < target_purity < 1.0:
        raise InvalidParams("target_purity must lie strictly between 0.5 and 1")
    if not 0.0 < epsilon <= 0.1:
        raise InvalidParams("epsilon must lie in (0, 0.1]")
    if not t_max > 0.0:
        raise InvalidParams(
            f"t_max must be positive (inf for no budget), got {t_max!r}")
    r_target = math.sqrt(2.0 * target_purity - 1.0)
    builder = presets.PRESETS[GATES[gate]]

    if gate in ("linear_cptp", "one_jump"):
        stages = [("main", builder(float(params.get("m", 1.0))), r_target)]
    else:
        big_m = float(params.get("M", 1.0))
        gamma = float(params.get("gamma", 0.0))
        if big_m <= gamma:
            raise InvalidParams(
                f"amplification requires M > gamma (got M={big_m}, gamma={gamma}): "
                "otherwise the center of the ball is not unstable")
        if epsilon >= r_target:
            raise InvalidParams("epsilon must be smaller than the target radius")
        stages = [("pre_amplification", presets.linear_cptp(1.0), epsilon),
                  ("main", builder(big_m, gamma), r_target)]

    y = np.array([1.0, 0.0, 0.0, 0.0])
    done = []
    for role, spec, rho in stages:
        try:
            t_stop, y = dynamics.radius_root(spec, y, rho, t_max)
        except IntegrationError as exc:
            raise TargetUnreachable(f"gate {gate}: the {role} stage does not reach "
                                    f"|r| = {rho:.15g}: {exc}") from exc
        done.append(GateStage(spec, t_stop))
    return GatePlan(gate=gate, pre_amp=done[0] if len(done) == 2 else None,
                    main=done[-1], target_purity=target_purity, epsilon=epsilon,
                    t_gate=done[-1].duration,
                    achieved=PsdState(y[0], y[1:], physical=False))


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
