"""Checks of each operation's output against the exact solution.

Every check returns the relative deviations of the output states and Choi
spectra from the exact solution, plus a list of failed property checks.
The tolerances follow from the integrator tolerance; README.md derives them.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import exact
from workloads import RTOL

# The global error of an adaptive run is bounded by its per-step error
# (rtol) times the number of steps and the growth of perturbations along
# the flow; runs here take at most a few thousand steps and grow
# perturbations at most e^4-fold, so 1e4 rtol bounds their error.
STATE_TOL = 1e4 * RTOL
# choi_spectra integrates at rtol 1e-12 internally; the same factor applies.
CHOI_TOL = 1e4 * 1e-12
# A Choi eigenvalue below this certifies a non-CP map.
CERTIFY = -1e-6
PLANE_TOL = 1e-8         # |tau - 1| on g = 1 runs started on the plane
CONE_TOL = 1e-9          # cone margin >= -CONE_TOL tau on CP channels
SURFACE_TOL = 1e-9       # |cone margin| <= SURFACE_TOL tau where a run stops
FIXED_POINT_TOL = 1e-9   # |dX/dt| at a reported fixed point, relative
EXPONENT_TOL = 0.02      # slowdown exponents 1 and 2
SLOPE_TOL = 1e-6         # exponent against the reference slope
DERIVED_TOL = 1e-11      # printed purity, entropy, margin against the printed state
CSV_HEADER = "t,tau,x,y,z,purity,entropy,trXOmega,coneMargin"


def reference(chan) -> exact.Channel:
    if chan[0] == "preset":
        return exact.preset(chan[1], **chan[2])
    return exact.Channel.from_dict(chan[1])


class Result:
    def __init__(self, label: str):
        self.label = label
        self.devs: list[float] = []
        self.problems: list[str] = []

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(f"{self.label}: {message}")

    def state(self, y, y_ref, tol=STATE_TOL, what="state") -> None:
        d = exact.rel_dev(y, y_ref)
        self.devs.append(d)
        self.expect(d <= tol, f"{what} deviates {d:.2e} > {tol:.0e} from the exact solution")


def _rows_against_exact(res: Result, ch, data, ts, ys) -> None:
    """States along a run: exact solution, trace plane and cone."""
    y0 = [data["tau0"], *data["r0"]]
    for t, y in zip(ts, ys):
        res.state(y, ch.solve(y0, t)[0], what=f"state at t={t:.6g}")
    ys = np.asarray(ys)
    if ch.g == 1.0 and data["tau0"] == 1.0:
        drift = float(np.abs(ys[:, 0] - 1.0).max())
        res.expect(drift <= PLANE_TOL, f"|tau-1| reaches {drift:.2e}")
    if ch.cp:
        worst = min(exact.margin(y) / y[0] for y in ys)
        res.expect(worst >= -CONE_TOL, f"cone margin reaches {worst:.2e} tau")


def trajectory(op, traj, res: Result) -> None:
    ch = reference(op.chan)
    ys = np.column_stack([traj.tau, traj.r])
    _rows_against_exact(res, ch, op.data, traj.t, ys)
    if op.data["surface"]:
        res.expect(traj.stop_reason == "surface", f"stop reason {traj.stop_reason!r}")
        m = exact.margin(ys[-1]) / ys[-1][0]
        res.expect(abs(m) <= SURFACE_TOL, f"stopped off the pure surface, margin {m:.2e}")
    else:
        res.expect(traj.stop_reason == "t_end", f"stop reason {traj.stop_reason!r}")
        res.expect(traj.t[-1] == op.data["t_end"], "run did not end at t_end")


def _derived_columns(res: Result, ch, row) -> None:
    t, tau, x, y, z, purity, entropy, trxo, cone_margin = row
    rn = math.sqrt(x * x + y * y + z * z)
    ratio = rn / tau
    res.expect(abs(purity - 0.5 * (1 + ratio * ratio)) <= DERIVED_TOL, f"purity at t={t}")
    if ratio <= 1.0:
        lam = (0.5 * (1 + ratio), 0.5 * (1 - ratio))
        want = -sum(v * math.log(v) for v in lam if v > 0.0)
        res.expect(abs(entropy - want) <= DERIVED_TOL, f"entropy at t={t}")
    res.expect(abs(cone_margin - (tau - rn)) <= DERIVED_TOL * tau, f"coneMargin at t={t}")
    w = ch.omega_coords
    want = tau * w[0] + x * w[1] + y * w[2] + z * w[3]
    scale = max(1.0, float(np.abs(w).sum()) * tau)
    res.expect(abs(trxo - want) <= DERIVED_TOL * scale, f"trXOmega at t={t}")


def csv_rows(op, out, res: Result) -> None:
    lines = out.stdout.splitlines()
    res.expect(lines[0] == CSV_HEADER, "CSV header changed")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    ch = reference(op.chan)
    for row in rows:
        _derived_columns(res, ch, row)
    _rows_against_exact(res, ch, op.data, [r[0] for r in rows], [r[1:5] for r in rows])
    if "samples" in op.data:
        res.expect(len(rows) == op.data["samples"], f"{len(rows)} rows")


def stability(op, out, res: Result) -> None:
    rep = json.loads(out.stdout)
    ch = reference(op.chan)
    cls = rep["classification"]
    res.expect(cls["cp"] == ch.cp and cls["linear"] == (ch.g == 0.0), "classification")
    res.expect(rep["tau0"] == op.data["tau0"], "tau0")
    y0 = [op.data["tau0"], *op.data["r0"]]
    res.expect(abs(rep["initial_trace_deviation"] - abs(y0[0] - 1.0)) <= 1e-15,
               "initial trace deviation")
    y_end = ch.solve(y0, op.data["t"])[0]
    dev_ref = abs(y_end[0] - 1.0)
    d = abs(rep["final_trace_deviation"] - dev_ref) / y_end[0]
    res.devs.append(d)
    res.expect(d <= STATE_TOL, f"final trace deviation off by {d:.2e}")
    if abs(dev_ref - abs(y0[0] - 1.0)) > STATE_TOL:
        res.expect(rep["plane_attracting"] == (dev_ref < abs(y0[0] - 1.0)), "plane_attracting")
    lo, hi = rep["tr_x_omega_min"], rep["tr_x_omega_max"]
    slack = STATE_TOL * max(1.0, float(np.abs(ch.omega_coords).sum()))
    for y in (y0, y_end):
        v = float(np.dot(y, ch.omega_coords))
        res.expect(lo - slack <= v <= hi + slack, "tr(X Omega) outside its reported range")


def _rhs_norm(ch, r) -> float:
    return float(np.linalg.norm(exact.coords(ch.rhs(exact.operator([1.0, *r]))).real))


def fixed_points(op, out, res: Result) -> None:
    rep = json.loads(out.stdout)
    ch = reference(op.chan)
    res.expect(rep["restricted_to_tau_plane"] == (ch.g != 0.0), "restricted_to_tau_plane")
    scale = max(1.0, float(np.linalg.norm(ch.A)) + abs(ch.g) * float(np.abs(ch.omega_coords).sum()))
    zeros = [p["r"] for p in rep["points"]]
    for line in rep["fixed_lines"]:
        zeros += [line["point"], list(np.add(line["point"], line["direction"]))]
    for r in zeros:
        v = _rhs_norm(ch, r)
        tol = FIXED_POINT_TOL * scale * max(1.0, float(np.dot(r, r)))
        res.expect(v <= tol, f"dX/dt = {v:.2e} at reported fixed point {r}")
    if op.chan[0] == "preset":
        res.expect(len(zeros) > 0, "no fixed point reported")


def slowdown(op, out, res: Result) -> None:
    rep = json.loads(out.stdout)
    ch = reference(op.chan)
    e = rep["exponent"]
    want = exact.slowdown_slope(ch, op.data["fp"], op.data["dir"])
    res.expect(abs(e - want) <= SLOPE_TOL, f"exponent {e} against reference {want}")
    res.expect(abs(e - op.data["exponent"]) <= EXPONENT_TOL,
               f"exponent {e:.4f} != {op.data['exponent']}")


def _spectrum(res: Result, ch, t, eig) -> np.ndarray:
    ref = ch.choi_spectrum(t)
    res.state(eig, ref, tol=CHOI_TOL, what=f"Choi spectrum at t={t:.6g}")
    return ref


def _certify(res: Result, op, ch, ref_min, got_min) -> None:
    if op.chan[0] == "preset" and op.chan[1] == "linear_noncp":
        res.expect(got_min < CERTIFY, f"no negative Choi eigenvalue certified ({got_min:.2e})")
    if ch.cp:
        res.expect(got_min >= -1e-10, f"CP channel with Choi eigenvalue {got_min:.2e}")
    if ref_min < CERTIFY:
        res.expect(got_min < CERTIFY, "negative Choi eigenvalue missed")


def choi_cli(op, out, res: Result) -> None:
    rep = json.loads(out.stdout)
    ch = reference(op.chan)
    res.expect(rep["t"] == op.data["t"], "time")
    ref = _spectrum(res, ch, op.data["t"], rep["eigenvalues"])
    got_min = rep["min_eigenvalue"]
    res.expect(got_min == rep["eigenvalues"][0], "min_eigenvalue")
    res.expect(rep["completely_positive"] == (got_min >= -1e-10), "completely_positive flag")
    _certify(res, op, ch, ref.min(), got_min)


def choi_spectra(op, spectra, res: Result) -> None:
    ch = reference(op.chan)
    ts = op.data["ts"]
    res.expect(spectra.shape == (len(ts), 4), f"shape {spectra.shape}")
    ref_min = min(_spectrum(res, ch, t, row).min() for t, row in zip(ts, spectra))
    if ts[0] == 0.0:
        res.expect(np.abs(spectra[0] - [0, 0, 0, 2]).max() <= 1e-12,
                   f"spectrum at t=0 is {spectra[0]}")
    _certify(res, op, ch, ref_min, float(spectra[:, 0].min()))


_GATE_CHANNELS = {"linear_cptp": "linear_cptp", "one_jump": "onejump_nino",
                  "three_jump": "threejump_nino", "linear_non_cp": "linear_noncp"}


def gate_plan(op, out, res: Result) -> None:
    rep = json.loads(out.stdout)
    gate, params = op.chan[1], op.chan[2]
    target = op.data["target_purity"]
    stages = {s["role"]: s["duration"] for s in rep["stages"]}
    two_stage = gate in ("three_jump", "linear_non_cp")
    res.expect(set(stages) == ({"pre_amplification", "main"} if two_stage else {"main"}),
               f"stages {sorted(stages)}")
    y = np.array([1.0, 0.0, 0.0, 0.0])
    if "pre_amplification" in stages:
        y = exact.preset("linear_cptp", m=1.0).solve(y, stages["pre_amplification"])[0]
    y = exact.preset(_GATE_CHANNELS[gate], **params).solve(y, stages["main"])[0]
    ach = rep["achieved"]
    res.state([ach["tau"], *ach["r"]], y, what="achieved state")
    res.expect(ach["purity"] >= target - STATE_TOL,
               f"achieved purity {ach['purity']} below target {target}")
    exact_purity = exact.purity_entropy(y)[0]
    res.expect(abs(exact_purity - target) <= 1e-9,
               f"planned durations reach purity {exact_purity}, not {target}")


def sweep(op, out, res: Result) -> None:
    rows = list(csv.reader(io.StringIO(out.stdout)))
    res.expect(rows[0] == ["param", "value", "observable", "result"], "sweep header")
    by_value: dict[float, dict[str, float]] = {}
    for param, value, obs, val in rows[1:]:
        res.expect(param == op.data["param"], f"param {param}")
        by_value.setdefault(float(value), {})[obs] = float(val)
    y0 = [op.data["tau0"], *op.data["r0"]]
    for value, obs in by_value.items():
        ch = exact.preset(op.chan[1], **{**op.chan[2], op.data["param"]: value})
        y = [obs["tau"], obs["x"], obs["y"], obs["z"]]
        res.state(y, ch.solve(y0, op.data["t"])[0], what=f"{op.data['param']}={value}")
        rn = math.sqrt(sum(v * v for v in y[1:]))
        res.expect(abs(obs["r_norm"] - rn) <= DERIVED_TOL, "r_norm")
        res.expect(abs(obs["purity"] - 0.5 * (1 + (rn / y[0]) ** 2)) <= DERIVED_TOL, "purity")
    res.expect(sorted(by_value) == sorted(op.data["values"]), f"swept values {sorted(by_value)}")


def blow_up(op, out, res: Result) -> None:
    """A blow-up operation that succeeded already named t* in ``Op.ok``."""


CHECKS = {"trajectory": trajectory, "csv_rows": csv_rows, "stability": stability,
          "fixed_points": fixed_points, "slowdown": slowdown, "choi_cli": choi_cli,
          "choi_spectra": choi_spectra, "gate_plan": gate_plan, "sweep": sweep,
          "blow_up": blow_up}


def check(op, out) -> Result:
    res = Result(f"{op.kind} {json.dumps(op.data, default=str)[:120]}")
    CHECKS[op.check](op, out, res)
    return res
