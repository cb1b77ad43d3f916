"""Built-in verification suite.

Each criterion checks one published closed-form or structural property of
the amplification gates against the implementation, at a pinned tolerance.
The suite backs the ``verify`` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, presets
from .channels import initial_velocity, jump_generator
from .dynamics import GRID_STEPS, IntegratorOpts, integrate, rhs
from .pauli import PsdState

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all",
           "DEFAULT_SEED"]

DEFAULT_SEED = 1234


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    ok: bool
    detail: str
    seconds: float


class _Check:
    """Collects sub-check failures and the worst observed deviations."""

    def __init__(self):
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def note(self, message: str):
        self.notes.append(message)

    def result(self) -> tuple[bool, str]:
        if self.failures:
            return False, "; ".join(self.failures)
        return True, "; ".join(self.notes) if self.notes else "ok"


def _mixed() -> PsdState:
    return PsdState(1.0, np.zeros(3))


def _run(spec, initial: PsdState, t_end: float, opts: IntegratorOpts | None = None):
    """The exact solution on at least GRID_STEPS uniform steps of [0, t_end]."""
    return integrate(spec, initial, t_end, opts, min_steps=GRID_STEPS)


def _pointwise_deviation(spec_a, spec_b, r0, t_end: float, n: int) -> float:
    """Largest state difference of two channels from (1, r0) at n times in [0, t_end]."""
    grid = np.linspace(0.0, t_end, n)
    a, b = (integrate(spec, PsdState(1.0, r0), t_end, sample_times=grid)
            for spec in (spec_a, spec_b))
    return max(float(np.abs(a.r - b.r).max()), float(np.abs(a.tau - b.tau).max()))


# --------------------------------------------------------------------------
# criteria


def _c_jump_generators(seed: int) -> tuple[bool, str]:
    """The four canonical jump operators reproduce their exact (G, C) blocks."""
    t0 = time.perf_counter()
    chk = _Check()
    expected = {
        "x_raising": (presets.jump_x_raising(1.0),
                      np.diag([-2.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])),
        "xy_mix": (presets.jump_xy_mix(1.0),
                   np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0],
                             [0.0, 0.0, -2.0]]), np.zeros(3)),
        "z_shift": (presets.jump_z_shift(1.0),
                    np.diag([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 2.0])),
        "z_flip": (presets.jump_z_flip(1.0),
                   np.diag([-1.0, -1.0, 1.0]), np.zeros(3)),
    }
    worst = 0.0
    for name, (jump, g_ref, c_ref) in expected.items():
        g, c = jump_generator(jump)
        dev = max(np.abs(g - g_ref).max(), np.abs(c - c_ref).max())
        worst = max(worst, dev)
        chk.expect(dev <= 1e-12, f"{name}: deviation {dev:.2e} > 1e-12")
    elapsed = time.perf_counter() - t0
    chk.expect(elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    chk.note(f"max deviation {worst:.2e}")
    return chk.result()


def _c_cptp_gate_closed_form(seed: int) -> tuple[bool, str]:
    """Exponential approach law x(t) = (1 - exp(-4 m^2 t)) tau holds to 1e-9."""
    t0 = time.perf_counter()
    chk = _Check()
    worst = 0.0
    for m in (0.5, 1.0):
        spec = presets.linear_cptp(m)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            x, y, z = _run(spec, _mixed(), t).r[-1]
            x_ref = 1.0 - math.exp(-4.0 * m * m * t)
            rel = abs(x - x_ref) / abs(x_ref)
            worst = max(worst, rel)
            chk.expect(rel <= 1e-9,
                       f"m={m}, t={t}: relative error {rel:.2e} > 1e-9")
            off = max(abs(y), abs(z))
            chk.expect(off <= 1e-12, f"m={m}, t={t}: |y|,|z| reach {off:.2e}")
    elapsed = time.perf_counter() - t0
    chk.expect(elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    chk.note(f"max relative error {worst:.2e}")
    return chk.result()


def _c_onejump_gate_closed_form(seed: int) -> tuple[bool, str]:
    """Rational solution x(t) = 1 - 1/(1/(1-x0) + 2 m^2 t) holds to 1e-8."""
    chk = _Check()
    worst = 0.0
    for m in (0.5, 1.0):
        spec = presets.onejump_nino(m)
        for x0 in (0.0, 0.3):
            for t in (0.5, 2.0, 10.0):
                x = _run(spec, PsdState(1.0, [x0, 0.0, 0.0]), t).r[-1, 0]
                x_ref = 1.0 - 1.0 / (1.0 / (1.0 - x0) + 2.0 * m * m * t)
                rel = abs(x - x_ref) / abs(x_ref)
                worst = max(worst, rel)
                chk.expect(rel <= 1e-8,
                           f"m={m}, x0={x0}, t={t}: rel error {rel:.2e} > 1e-8")
    chk.note(f"max relative error {worst:.2e}")
    return chk.result()


def _c_slowdown_exponents(seed: int) -> tuple[bool, str]:
    """Deceleration exponents 1 and 2; the two-rate gate keeps its speed."""
    chk = _Check()
    e1 = analysis.slowdown_exponent(presets.linear_cptp(1.0),
                                    (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    chk.expect(abs(e1 - 1.0) <= 0.02, f"linear gate exponent {e1:.4f} != 1.00")
    e2 = analysis.slowdown_exponent(presets.onejump_nino(1.0),
                                    (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    chk.expect(abs(e2 - 2.0) <= 0.02, f"one-jump exponent {e2:.4f} != 2.00")

    big_m, gamma, r_target = 1.0, 0.5, 0.99
    plan = analysis.plan_amplification(
        "three_jump", {"M": big_m, "gamma": gamma},
        target_purity=0.5 * (1.0 + r_target ** 2))
    dr, _ = rhs(plan.main.spec, plan.achieved)
    speed = float(np.linalg.norm(dr))
    floor = 0.5 * (big_m - gamma) * r_target
    chk.expect(speed >= floor,
               f"gate-end speed {speed:.4f} < {floor:.4f}")
    chk.note(f"exponents {e1:.4f}, {e2:.4f}; end speed {speed:.4f}")
    return chk.result()


def _c_threejump_noncp_equivalence(seed: int) -> tuple[bool, str]:
    """The nonlinear three-jump gate and its linear dual coincide pointwise."""
    chk = _Check()
    worst = _pointwise_deviation(presets.threejump_nino(1.0, 0.5),
                                 presets.linear_noncp(1.0, 0.5),
                                 [1e-3, 0.0, 2e-4], 10.0, 101)
    chk.expect(worst <= 1e-9, f"pointwise deviation {worst:.2e} > 1e-9")
    chk.note(f"max pointwise deviation {worst:.2e}")
    return chk.result()


def _c_xi_growth_rates(seed: int) -> tuple[bool, str]:
    """Rotated coordinates grow at M - gamma and decay at M + gamma."""
    chk = _Check()
    grid = np.linspace(0.0, 2.0, 51)
    worst = 0.0
    for big_m, gamma in ((1.0, 0.0), (1.0, 0.5), (2.0, 1.0)):
        spec = presets.threejump_nino(big_m, gamma)
        traj = integrate(spec, PsdState(1.0, [0.01, 0, 0]), 2.0, sample_times=grid)
        xi_plus = 0.5 * (traj.r[:, 1] + traj.r[:, 0])
        xi_minus = 0.5 * (traj.r[:, 1] - traj.r[:, 0])
        rate_p = np.polyfit(traj.t, np.log(np.abs(xi_plus)), 1)[0]
        rate_m = np.polyfit(traj.t, np.log(np.abs(xi_minus)), 1)[0]
        rel_p = abs(rate_p - (big_m - gamma)) / max(abs(big_m - gamma), 1e-30)
        rel_m = abs(rate_m - (-(big_m + gamma))) / (big_m + gamma)
        worst = max(worst, rel_p, rel_m)
        chk.expect(rel_p <= 1e-6,
                   f"M={big_m}, gamma={gamma}: growth rate off by {rel_p:.2e}")
        chk.expect(rel_m <= 1e-6,
                   f"M={big_m}, gamma={gamma}: decay rate off by {rel_m:.2e}")
    chk.note(f"max relative rate error {worst:.2e}")
    return chk.result()


def _c_fixed_point_structure(seed: int) -> tuple[bool, str]:
    """Fixed points, lines and stabilities of all gate families."""
    chk = _Check()

    rep = analysis.find_fixed_points(presets.linear_cptp(1.0))
    chk.expect(len(rep.points) == 1 and not rep.fixed_lines,
               "linear gate: expected a single fixed point")
    if rep.points:
        p = rep.points[0]
        chk.expect(np.allclose(p.r, [1.0, 0.0, 0.0], atol=1e-9),
                   f"linear gate: fixed point at {p.r}")
        chk.expect(p.stability == "stable", f"linear gate: {p.stability}")
        ev = np.sort(p.jacobian_eigenvalues.real)
        chk.expect(np.allclose(ev, [-4.0, -2.0, -2.0], atol=1e-9),
                   f"linear gate: eigenvalues {ev}")

    rep = analysis.find_fixed_points(presets.nojump_nino(0.0, 1.0))
    chk.expect(len(rep.points) == 2, "no-jump gate: expected two fixed points")
    for p in rep.points:
        want = "unstable" if p.r[0] < 0 else "stable"
        chk.expect(np.allclose(np.abs(p.r), [1.0, 0.0, 0.0], atol=1e-7),
                   f"no-jump gate: fixed point at {p.r}")
        chk.expect(p.stability == want,
                   f"no-jump gate: {p.r[0]:+.0f} labelled {p.stability}")

    rep = analysis.find_fixed_points(presets.threejump_nino(1.0, 1.0))
    chk.expect(len(rep.fixed_lines) == 1,
               "equal-rate gate: expected one fixed line")
    if rep.fixed_lines:
        line = rep.fixed_lines[0]
        d = line.direction / np.linalg.norm(line.direction)
        diag = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        chk.expect(abs(abs(d @ diag) - 1.0) <= 1e-9,
                   f"fixed line direction {d} not along the diagonal")
        chk.expect(abs(line.point[0] - line.point[1]) <= 1e-9
                   and abs(line.point[2]) <= 1e-9,
                   f"fixed line point {line.point} off the diagonal")

    for big_m, gamma, want in ((1.0, 0.5, "unstable"), (0.5, 1.0, "stable")):
        rep = analysis.find_fixed_points(presets.threejump_nino(big_m, gamma))
        chk.expect(len(rep.points) == 1,
                   f"M={big_m}, gamma={gamma}: expected a single fixed point")
        if rep.points:
            p = rep.points[0]
            chk.expect(np.allclose(p.r, 0.0, atol=1e-9),
                       f"M={big_m}, gamma={gamma}: fixed point at {p.r}")
            chk.expect(p.stability == want,
                       f"M={big_m}, gamma={gamma}: labelled {p.stability}")

    worst = 0.0
    for spec in (presets.linear_cptp(1.0), presets.nojump_nino(0.0, 1.0),
                 presets.threejump_nino(1.0, 0.5)):
        for p in analysis.find_fixed_points(spec).points:
            worst = max(worst, p.residual)
            chk.expect(p.residual <= 1e-10,
                       f"fixed-point residual {p.residual:.2e} > 1e-10")
    chk.note(f"max residual {worst:.2e}")
    return chk.result()


def _c_unital_instability(seed: int) -> tuple[bool, str]:
    """Zero initial velocity can coexist with an unstable center."""
    chk = _Check()
    big_m, gamma = 1.0, 0.5
    spec = presets.threejump_nino(big_m, gamma)
    dr, dtau = initial_velocity(spec)
    v = float(np.linalg.norm(dr)) + abs(dtau)
    chk.expect(v <= 1e-12, f"initial velocity {v:.2e} > 1e-12")
    rep = analysis.find_fixed_points(spec)
    chk.expect(len(rep.points) == 1, "expected a single fixed point")
    if rep.points:
        max_re = float(np.max(rep.points[0].jacobian_eigenvalues.real))
        chk.expect(abs(max_re - (big_m - gamma)) <= 1e-9,
                   f"max growth rate {max_re} != {big_m - gamma}")
        chk.note(f"initial velocity {v:.2e}, growth rate {max_re:.6f}")
    return chk.result()


def _c_cp_certification(seed: int) -> tuple[bool, str]:
    """Choi spectra certify CP for the linear gate, non-CP for its rival."""
    t0 = time.perf_counter()
    chk = _Check()
    cptp_min = analysis.choi_spectra(
        presets.linear_cptp(1.0), np.linspace(0.0, 5.0, 20))[:, 0].min()
    chk.expect(cptp_min >= -1e-10,
               f"CP gate: min Choi eigenvalue {cptp_min:.2e} < -1e-10")
    noncp_min = analysis.choi_spectra(
        presets.linear_noncp(1.0, 0.5), np.linspace(0.01, 0.5, 50))[:, 0].min()
    chk.expect(noncp_min < -1e-6,
               f"non-CP gate: min Choi eigenvalue {noncp_min:.2e} >= -1e-6")
    elapsed = time.perf_counter() - t0
    chk.expect(elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    chk.note(f"CP min {cptp_min:.2e}; non-CP min {noncp_min:.2e}")
    return chk.result()


def _random_interior_states(rng, n, radius=0.9):
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = radius * rng.random(n) ** (1.0 / 3.0)
    return dirs * radii[:, None]


def _c_trace_positivity_purity(seed: int) -> tuple[bool, str]:
    """Trace conservation, cone preservation, and purity monotonicity."""
    chk = _Check()
    rng = np.random.default_rng(seed)
    surface = IntegratorOpts(stop_on_surface=True)
    runs = (
        ("linear_cptp", presets.linear_cptp(1.0), None),
        ("nojump_nino", presets.nojump_nino(0.0, 1.0), None),
        ("onejump_nino", presets.onejump_nino(1.0), None),
        ("pseudolinear_nino", presets.pseudolinear_nino(1.0), None),
        ("threejump_nino", presets.threejump_nino(1.0, 0.5), surface),
        ("linear_noncp", presets.linear_noncp(1.0, 0.5), surface),
    )
    worst_tau = worst_r = 0.0
    for name, spec, o in runs:
        for r0 in _random_interior_states(rng, 100):
            traj = _run(spec, PsdState(1.0, r0), 10.0, o)
            tau_dev = float(np.abs(traj.tau - 1.0).max())
            rn_max = float(np.sqrt((traj.r ** 2).sum(axis=1)).max())
            worst_tau = max(worst_tau, tau_dev)
            worst_r = max(worst_r, rn_max - 1.0)
            if tau_dev > 1e-8:
                chk.expect(False, f"{name}: |tau-1| reaches {tau_dev:.2e}")
                break
            if rn_max > 1.0 + 1e-6:
                chk.expect(False, f"{name}: |r| reaches {rn_max:.9f}")
                break

    # Purity along the gate trajectories themselves.  The two-stage gates
    # shed their decaying rotated component first, which costs at most
    # epsilon^2 of squared radius; single-stage gates must be monotone.
    eps = 1e-3
    purity = 0.5 * (1.0 + 0.99 ** 2)
    series = []
    for gate, params, slack in (
        ("linear_cptp", {"m": 1.0}, 1e-12),
        ("one_jump", {"m": 1.0}, 1e-12),
        ("three_jump", {"M": 1.0, "gamma": 0.5}, eps * eps),
        ("linear_non_cp", {"M": 1.0, "gamma": 0.5}, eps * eps),
    ):
        plan = analysis.plan_amplification(gate, params, purity, epsilon=eps)
        state, p = _mixed(), []
        for stage in [plan.main] if plan.pre_amp is None else [plan.pre_amp, plan.main]:
            traj = _run(stage.spec, state, stage.duration)
            p.append(traj.purity)
            state = PsdState(traj.tau[-1], traj.r[-1])
        series.append((gate, np.concatenate(p), slack))
    for name, spec, t_end in (("nojump_nino", presets.nojump_nino(0.0, 1.0), 3.0),
                              ("pseudolinear_nino", presets.pseudolinear_nino(1.0), 2.0)):
        series.append((name, _run(spec, _mixed(), t_end).purity, 1e-12))
    for name, p, slack in series:
        drop = float(np.max(np.maximum.accumulate(p) - p))
        chk.expect(drop <= slack, f"{name}: purity drops by {drop:.2e}")
    chk.note(f"max |tau-1| {worst_tau:.2e}; max |r|-1 {worst_r:.2e}")
    return chk.result()


def _c_pseudolinear_duality(seed: int) -> tuple[bool, str]:
    """The pseudo-linear gate shadows the linear gate on the unit-trace plane."""
    chk = _Check()
    dev = _pointwise_deviation(presets.pseudolinear_nino(1.0), presets.linear_cptp(1.0),
                               [0.2, -0.3, 0.4], 3.0, 61)
    chk.expect(dev <= 1e-9, f"pointwise deviation {dev:.2e} > 1e-9")

    pert = _run(presets.pseudolinear_nino(1.0), PsdState(1.05, [0.2, -0.3, 0.4]), 3.0)
    u = np.abs(pert.tau - 1.0)
    chk.expect(u[-1] < 1e-3, f"perturbed trace ends at |tau-1|={u[-1]:.2e}")
    chk.expect(bool(np.all(np.diff(u) <= 1e-12)),
               "perturbed trace deviation is not monotonically decaying")
    chk.note(f"plane deviation {dev:.2e}; final |tau-1| {u[-1]:.2e}")
    return chk.result()


CRITERIA: dict[str, tuple] = {
    "jump-generators": (_c_jump_generators,
                        "canonical jump operators reproduce their exact "
                        "coordinate blocks"),
    "cptp-gate-closed-form": (_c_cptp_gate_closed_form,
                              "linear gate matches its exponential solution"),
    "onejump-gate-closed-form": (_c_onejump_gate_closed_form,
                                 "one-jump gate matches its rational solution"),
    "slowdown-exponents": (_c_slowdown_exponents,
                           "deceleration exponents and gate-end speed"),
    "threejump-noncp-equivalence": (_c_threejump_noncp_equivalence,
                                    "nonlinear gate equals its linear dual "
                                    "pointwise"),
    "xi-growth-rates": (_c_xi_growth_rates,
                        "rotated-coordinate growth and decay rates"),
    "fixed-point-structure": (_c_fixed_point_structure,
                              "fixed points, lines and stability labels"),
    "unital-instability": (_c_unital_instability,
                           "zero initial velocity with an unstable center"),
    "cp-certification": (_c_cp_certification,
                         "Choi spectra separate CP from non-CP"),
    "trace-positivity-purity": (_c_trace_positivity_purity,
                                "trace plane, cone and purity monotonicity"),
    "pseudolinear-duality": (_c_pseudolinear_duality,
                             "pseudo-linear gate is invisible on the "
                             "unit-trace plane"),
}


def run_criterion(cid: str, seed: int = DEFAULT_SEED) -> CriterionResult:
    func, _ = CRITERIA[cid]
    t0 = time.perf_counter()
    try:
        ok, detail = func(seed)
    except Exception as exc:  # a crashed criterion is a failed criterion
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(cid, ok, detail, time.perf_counter() - t0)


def run_all(seed: int = DEFAULT_SEED,
            criteria: list[str] | None = None) -> list[CriterionResult]:
    cids = list(CRITERIA) if criteria is None else criteria
    unknown = [c for c in cids if c not in CRITERIA]
    if unknown:
        raise KeyError(f"unknown criteria: {unknown}")
    return [run_criterion(cid, seed) for cid in cids]
