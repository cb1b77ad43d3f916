"""Command-line interface.

Subcommands: simulate, fixed-points, stability, slowdown, choi, gate-plan,
sweep, verify.  Trajectories and sweeps are written as delimited text;
reports are printed as JSON.  Everything is deterministic; the only
randomness is the seeded test-state generation inside ``verify``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from . import analysis, presets, verify
from .channels import ChannelSpec, classify, load_spec
from .dynamics import CSV_HEADER, GRID_STEPS, IntegratorOpts, integrate
from .errors import BlochampError
from .pauli import PsdState, purity_entropy
from .tolerances import CP_TOL, MONOTONE_TOL


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


class _Parser(argparse.ArgumentParser):
    """Reads '-' followed by a digit (-5.3e-05, -1e-3,0,1) as a value, not an
    option, as Python 3.13 does; earlier versions only read -5 and -.5 so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


_PARAM_HELP = {
    "m": "jump strength for the m presets",
    "l0": "identity damping coefficient",
    "l1": "sigma_x damping coefficient",
    "M": "gain rate for the two-rate presets",
    "gamma": "dissipation rate for the two-rate presets",
}
_PRESET_PARAMS = presets.preset_params()
_GATE_PARAMS = presets.preset_params(analysis.GATES.values())


def _given(args, names) -> dict:
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def _numbers(text: str, flag: str, count: int | None = None) -> list[float]:
    """The comma-separated finite numbers given to ``flag``, ``count`` of them if set."""
    entries = text.split(",")
    if count is not None and len(entries) != count:
        raise BlochampError(f"{flag} takes {count} comma-separated numbers, got {text!r}")
    for entry in entries:
        try:
            finite = np.isfinite(float(entry))
        except ValueError:
            finite = False
        if not finite:
            raise BlochampError(f"{flag}: {entry!r} is not a finite number")
    return [float(v) for v in entries]


def _add_channel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=presets.preset_names(),
                   help="named channel definition")
    p.add_argument("--spec", metavar="FILE",
                   help="JSON channel spec file (alternative to --preset)")
    for name in _PRESET_PARAMS:
        p.add_argument(f"--{name}", type=float, help=_PARAM_HELP.get(name))


def _build_channel(args) -> ChannelSpec:
    if (args.preset is None) == (args.spec is None):
        raise BlochampError("provide exactly one of --preset or --spec")
    if args.spec is not None:
        return load_spec(args.spec)
    params = _given(args, _PRESET_PARAMS)
    return presets.expand_preset(presets.Preset(args.preset, params))


def _add_initial_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau0", type=float, default=1.0, help="initial trace")
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--z0", type=float, default=0.0)


def _add_integrator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--allow-off-cone", action="store_true",
                   help="disable the cone and apex halting checks")
    p.add_argument("--stop-on-surface", action="store_true",
                   help="end the run when the state becomes pure")


def _opts_from_args(args) -> IntegratorOpts:
    return IntegratorOpts(allow_off_cone=args.allow_off_cone,
                          stop_on_surface=args.stop_on_surface)


def _initial_from_args(args) -> PsdState:
    return PsdState(args.tau0, [args.x0, args.y0, args.z0],
                    physical=not args.allow_off_cone)


def _write_out(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_simulate(args) -> int:
    spec = _build_channel(args)
    if args.samples < 2:
        raise BlochampError(f"--samples must be at least 2, got {args.samples}")
    traj = integrate(spec, _initial_from_args(args), args.t, _opts_from_args(args),
                     sample_times=np.linspace(0.0, args.t, args.samples))
    traj.write_csv(sys.stdout if args.out in (None, "-") else args.out)
    return 0


def _cmd_fixed_points(args) -> int:
    spec = _build_channel(args)
    rep = analysis.find_fixed_points(spec)
    _print_json({
        "restricted_to_tau_plane": rep.restricted_to_tau_plane,
        "points": [
            {
                "r": [float(v) for v in p.r],
                "jacobian_eigenvalues": [
                    {"re": float(e.real), "im": float(e.imag)}
                    for e in p.jacobian_eigenvalues
                ],
                "stability": p.stability,
                "residual": float(p.residual),
            }
            for p in rep.points
        ],
        "fixed_lines": [
            {
                "point": [float(v) for v in line.point],
                "direction": [float(v) for v in line.direction],
                "marginal": line.marginal,
            }
            for line in rep.fixed_lines
        ],
    })
    return 0


def _cmd_stability(args) -> int:
    spec = _build_channel(args)
    traj = integrate(spec, _initial_from_args(args), args.t, _opts_from_args(args),
                     min_steps=GRID_STEPS)
    dev = np.abs(traj.tau - 1.0)
    _print_json({
        "classification": dataclasses.asdict(classify(spec)),
        "tau0": args.tau0,
        "initial_trace_deviation": float(dev[0]),
        "final_trace_deviation": float(dev[-1]),
        "deviation_monotone_decaying": bool(np.all(np.diff(dev) <= MONOTONE_TOL)),
        "tr_x_omega_min": float(traj.tr_x_omega.min()),
        "tr_x_omega_max": float(traj.tr_x_omega.max()),
        "plane_attracting": bool(dev[-1] <= dev[0] + MONOTONE_TOL),
    })
    return 0


def _cmd_slowdown(args) -> int:
    spec = _build_channel(args)
    if args.fp is not None:
        fp = _numbers(args.fp, "--fp", 3)
    else:
        rep = analysis.find_fixed_points(spec)
        found = [p.r for p in rep.points] + [line.point for line in rep.fixed_lines]
        if not found:
            raise BlochampError("no fixed point found; pass one with --fp")
        fp = [float(v) for v in found[0]]
    direction = _numbers(args.dir, "--dir", 3)
    exponent = analysis.slowdown_exponent(spec, fp, direction)
    _print_json({"fixed_point": fp, "direction": direction,
                 "exponent": exponent})
    return 0


def _cmd_choi(args) -> int:
    spec = _build_channel(args)
    if args.times is not None:
        ts = _numbers(args.times, "--times")
    elif args.scan is not None:
        if args.scan < 1:
            raise BlochampError(f"--scan must be at least 1, got {args.scan}")
        ts = list(np.linspace(args.t / args.scan, args.t, args.scan))
    else:
        ts = [args.t]
    spectra = analysis.choi_spectra(spec, ts)
    cp_floor = -CP_TOL * np.maximum(1.0, spectra.sum(axis=1) / 2.0)
    rows = [
        {
            "t": float(t),
            "eigenvalues": [float(v) for v in spectra[i]],
            "min_eigenvalue": float(spectra[i, 0]),
            "completely_positive": bool(spectra[i, 0] >= cp_floor[i]),
        }
        for i, t in enumerate(ts)
    ]
    _print_json(rows[0] if len(rows) == 1 else rows)
    return 0


def _cmd_gate_plan(args) -> int:
    plan = analysis.plan_amplification(args.gate, _given(args, _GATE_PARAMS),
                                       args.target_purity,
                                       **_given(args, ("epsilon", "t_max")))
    achieved_purity, achieved_entropy = purity_entropy(plan.achieved)
    out = {
        "gate": plan.gate,
        "target_purity": plan.target_purity,
        "epsilon": plan.epsilon,
        "t_gate": plan.t_gate,
        "stages": [],
        "achieved": {
            "tau": plan.achieved.tau,
            "r": [float(v) for v in plan.achieved.r],
            "purity": achieved_purity,
            "entropy": achieved_entropy,
        },
    }
    if plan.pre_amp is not None:
        out["stages"].append({"role": "pre_amplification",
                              "duration": plan.pre_amp.duration})
    out["stages"].append({"role": "main", "duration": plan.main.duration})
    _print_json(out)
    return 0


_SWEEP_OBSERVABLES = ("tau", "x", "y", "z", "r_norm", "purity", "entropy")


def _cmd_sweep(args) -> int:
    if args.preset is None:
        raise BlochampError("sweep requires --preset")
    values = _numbers(args.values, "--values")
    params = _given(args, _PRESET_PARAMS)
    lines = ["param,value,observable,result"]
    for value in values:
        params[args.param] = value
        spec = presets.expand_preset(presets.Preset(args.preset, params))
        traj = integrate(spec, PsdState(args.tau0, [args.x0, args.y0, args.z0]), args.t,
                         sample_times=[args.t])
        fin = traj.final_state
        results = (fin.tau, *fin.r, fin.r_norm, traj.purity[-1], traj.entropy[-1])
        lines += [f"{args.param},{_fmt(value)},{obs},{_fmt(res)}"
                  for obs, res in zip(_SWEEP_OBSERVABLES, results)]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    criteria = args.criteria.split(",") if args.criteria else None
    results = verify.run_all(seed=args.seed, criteria=criteria)
    width = max(len(r.cid) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{r.cid:<{width}}  {status}  {r.seconds:7.2f}s  {r.detail}")
        failed += 0 if r.ok else 1
    total = len(results)
    print(f"{total - failed}/{total} criteria passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blochamp",
        description="Simulate and analyze single-qubit Markovian channels "
                    "for Bloch vector amplification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write the exact trajectory of a "
                                        f"channel ({CSV_HEADER})")
    _add_channel_args(p)
    _add_initial_state_args(p)
    _add_integrator_args(p)
    p.add_argument("--t", type=float, required=True, help="integration time")
    p.add_argument("--samples", type=int, default=GRID_STEPS + 1,
                   help="number of uniformly spaced rows (default: %(default)s)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fixed-points", help="fixed points, eigenvalues, "
                                            "stability labels")
    _add_channel_args(p)
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("stability", help="probe the unit-trace plane with a "
                                         "perturbed initial trace")
    _add_channel_args(p)
    _add_initial_state_args(p)
    _add_integrator_args(p)
    p.add_argument("--t", type=float, default=5.0)
    p.set_defaults(func=_cmd_stability, tau0=1.05)

    p = sub.add_parser("slowdown", help="speed-versus-distance exponent at a "
                                        "fixed point")
    _add_channel_args(p)
    p.add_argument("--fp", help="fixed point as x,y,z (default: the first "
                                "isolated fixed point, else the point of the "
                                "first fixed line)")
    p.add_argument("--dir", default="1,0,0", help="approach direction x,y,z")
    p.set_defaults(func=_cmd_slowdown)

    p = sub.add_parser("choi", help="Choi eigenvalues of a linear channel at "
                                    "finite time")
    _add_channel_args(p)
    p.add_argument("--t", type=float, default=0.1, help="time (or scan end)")
    p.add_argument("--times", help="comma-separated list of times")
    p.add_argument("--scan", type=int,
                   help="scan this many times in (0, --t]")
    p.set_defaults(func=_cmd_choi)

    p = sub.add_parser("gate-plan", help="plan an amplification gate to a "
                                         "target purity")
    p.add_argument("--gate", required=True, choices=tuple(analysis.GATES))
    for name in _GATE_PARAMS:
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--target-purity", type=float, required=True)
    p.add_argument("--epsilon", type=float,
                   help="pre-amplified radius for the two-stage gates")
    p.add_argument("--t-max", type=float,
                   help="refuse plans needing more time than this")
    p.set_defaults(func=_cmd_gate_plan)

    p = sub.add_parser("sweep", help="rerun one preset over a parameter "
                                     "range, one CSV row per observable")
    _add_channel_args(p)
    _add_initial_state_args(p)
    p.add_argument("--param", required=True,
                   help="preset parameter to sweep "
                        f"({', '.join(_PRESET_PARAMS)})")
    p.add_argument("--values", required=True,
                   help="comma-separated parameter values")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--suite", choices=("paper",), default="paper",
                   help="criterion suite to run")
    p.add_argument("--criteria", help="comma-separated subset of criteria")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                   help="seed for the generated test states")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs more than most commands."""
    return build_parser()


def run_cli(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BlochampError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
