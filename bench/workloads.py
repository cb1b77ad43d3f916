"""Seeded inputs and operations of the three benchmark workloads.

A workload is a *round*: a fixed list of operations whose make-up (kinds,
channel families, grid sizes) is the same for every seed, and whose
parameters and initial states are drawn from the seed.  A run repeats its
round, so every run attempts the same operations in the same shares.

Each operation calls the program through public names only (``blochamp``'s
``__all__`` and ``blochamp.cli.run_cli``) and returns its raw output.  The
checks against the exact solution live in ``checks.py``, which is imported
only after the timed part; an operation carries the plain data they need.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import blochamp as bl
import blochamp.cli
import exact

WORKLOADS = ("interactive", "ensemble", "dense")

# Stated integrator tolerance of every library run (the CLI default too).
RTOL, ATOL = 1e-10, 1e-12

# Latency percentile reported as op_tail_ms, chosen so that every run has at
# least ten completed operations beyond it (see ``min_rounds``).
TAIL_PERCENTILE = {"interactive": 99.0, "ensemble": 99.0, "dense": 95.0}

PRESETS = ("linear_cptp", "nojump_nino", "onejump_nino", "pseudolinear_nino",
           "threejump_nino", "linear_noncp")
GATES = ("linear_cptp", "one_jump", "three_jump", "linear_non_cp")

# Blow-up inputs (g = 1, L = -a I, tau0 > 1): fixed, not drawn from the seed.
BLOW_UP = ((1.0, 1.5),)


@dataclass
class Op:
    """One operation: ``run`` calls the program, ``check`` names its check.

    ``chan`` describes the channel for the reference: ``("preset", name,
    params)`` or ``("spec", spec_dict)``.  ``data`` holds the inputs the
    check needs.
    """

    kind: str
    run: Callable[[], object]
    check: str
    chan: tuple
    data: dict = field(default_factory=dict)
    ok: Callable[[object], bool] = lambda out: True


# ---------------------------------------------------------------------------
# Random channels in spec-file form.  The cost of an integration follows the
# channel's rates and the run's duration, so both are set per round position
# (jump counts, norms, durations) and the seed draws directions, states and a
# small jitter around those levels.

JUMP_NORM, ELL_NORM, H_NORM = 0.8, 0.5, 0.7
# Every random channel is rescaled so that its linear generator has this norm.
GENERATOR_NORM = 2.5


def jitter(rng, level: float, rel: float = 0.05) -> float:
    return float(level * rng.uniform(1.0 - rel, 1.0 + rel))


def direction(rng, n: int) -> np.ndarray:
    d = rng.normal(size=n)
    return d / np.linalg.norm(d)


def _jump(rng, zeta=1):
    v = JUMP_NORM * direction(rng, 8)
    return {"xi_re": v[:4].tolist(), "xi_im": v[4:].tolist(), "zeta": zeta}


def _btb_coeffs(jumps) -> np.ndarray:
    """Pauli coefficients of sum zeta B^dag B (Omega is its negative when L = 0)."""
    omega = exact.Channel.from_dict({"ell": [0.0] * 4, "jumps": jumps}).omega
    return -0.5 * exact.coords(omega).real


def _spec(ell, jumps, g, h=(0.0, 0.0, 0.0)) -> dict:
    return {"ell": [float(v) for v in ell], "jumps": jumps, "g": float(g),
            "h": [float(v) for v in h]}


def _normalized(spec: dict) -> dict:
    """The spec with L and h scaled by k and the jumps by sqrt(k), for GENERATOR_NORM."""
    k = GENERATOR_NORM / float(np.linalg.norm(exact.Channel.from_dict(spec).A, 2))
    return {"ell": [k * v for v in spec["ell"]], "g": spec["g"], "h": [k * v for v in spec["h"]],
            "jumps": [{"xi_re": [math.sqrt(k) * v for v in j["xi_re"]],
                       "xi_im": [math.sqrt(k) * v for v in j["xi_im"]], "zeta": j["zeta"]}
                      for j in spec["jumps"]]}


def nino_cp(rng, n_jumps) -> dict:
    """g = 1 with completely positive jumps and a random L."""
    return _spec(ELL_NORM * direction(rng, 4), [_jump(rng) for _ in range(n_jumps)], 1.0)


def nino_attracting(rng, n_jumps) -> dict:
    """g = 1, CP jumps, Omega <= -I: the unit-trace plane attracts."""
    jumps = [_jump(rng) for _ in range(n_jumps)]
    hv = ELL_NORM * direction(rng, 4)
    c = 0.5 + abs(hv[0]) + float(np.linalg.norm(hv[1:]))
    return _spec(-0.5 * _btb_coeffs(jumps) + hv + [c, 0, 0, 0], jumps, 1.0)


def pseudolinear_cp(rng, n_jumps) -> dict:
    """g = 1, CP jumps, L chosen so that Omega = kappa I."""
    jumps = [_jump(rng) for _ in range(n_jumps)]
    return _spec(-0.5 * _btb_coeffs(jumps) + [rng.uniform(-0.3, 0.3), 0, 0, 0], jumps, 1.0)


def gksl(rng, n_jumps) -> dict:
    """Linear trace-preserving CP channel: L = -(1/2) sum B^dag B."""
    jumps = [_jump(rng) for _ in range(n_jumps)]
    return _spec(-0.5 * _btb_coeffs(jumps), jumps, 0.0)


def linear_noncp_random(rng, n_jumps) -> dict:
    """Linear trace-preserving channel whose last jump has the negative sign."""
    jumps = [_jump(rng) for _ in range(n_jumps - 1)] + [_jump(rng, zeta=-1)]
    return _spec(-0.5 * _btb_coeffs(jumps), jumps, 0.0)


def g_half(rng, n_jumps) -> dict:
    return {**nino_cp(rng, n_jumps), "g": 0.5}


def precessing(rng, n_jumps) -> dict:
    jumps = [_jump(rng) for _ in range(n_jumps)]
    return _spec(ELL_NORM * direction(rng, 4), jumps, 1.0, H_NORM * direction(rng, 3))


FAMILIES = {f.__name__: f for f in (nino_cp, nino_attracting, pseudolinear_cp, gksl,
                                    linear_noncp_random, g_half, precessing)}


def random_chan(rng, family: str, position: int) -> tuple:
    """Normalized channel of a random family; the round position sets 1 to 3 jumps."""
    n_jumps = 1 + position % 3
    if family == "linear_noncp_random":
        n_jumps = max(n_jumps, 2)
    return ("spec", _normalized(FAMILIES[family](rng, n_jumps)))


def preset_params(rng, name) -> dict:
    if name in ("threejump_nino", "linear_noncp"):
        big_m = jitter(rng, 1.1)
        return {"M": big_m, "gamma": big_m * jitter(rng, 0.35)}
    if name == "nojump_nino":
        return {"l0": rng.uniform(-0.2, 0.2), "l1": jitter(rng, 1.0)}
    return {"m": jitter(rng, 1.0)}


def preset_chan(rng, name) -> tuple:
    return ("preset", name, preset_params(rng, name))


def interior(rng, r_max) -> list[float]:
    """Uniform point of the ball |r| <= r_max."""
    return (direction(rng, 3) * r_max * rng.random() ** (1 / 3)).tolist()


def amplifiable(rng, r_max=0.9) -> list[float]:
    """Interior point whose growing rotated coordinate |x+y|/2 is 0.1 to 0.2."""
    while True:
        r = interior(rng, r_max)
        if 0.2 <= abs(r[0] + r[1]) <= 0.4:
            return r


# ---------------------------------------------------------------------------
# Calling the program


def program_spec(chan: tuple):
    if chan[0] == "preset":
        return bl.expand_preset(bl.Preset(chan[1], dict(chan[2])))
    d = chan[1]
    jumps = tuple(bl.JumpTerm(bl.PauliVectorC(np.add(j["xi_re"], 1j * np.asarray(j["xi_im"]))),
                              j["zeta"]) for j in d["jumps"])
    return bl.ChannelSpec(ell=bl.HermitianPauliVector(d["ell"]), jumps=jumps,
                          g=d["g"], h=d["h"])


class CliResult(NamedTuple):
    rc: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    """Run one command in process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = blochamp.cli.run_cli(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def _cli_ok(out: CliResult) -> bool:
    return out.rc == 0


class SpecFiles:
    """Writes seeded channel spec files into a work directory."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def write(self, spec: dict) -> str:
        path = self.dir / f"spec{len(self.paths)}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        self.paths.append(path)
        return str(path)


def channel_args(chan: tuple, files: SpecFiles) -> list[str]:
    if chan[0] == "spec":
        return ["--spec", files.write(chan[1])]
    args = ["--preset", chan[1]]
    for k, v in chan[2].items():
        args.append(opt(k, v))
    return args


def num(v) -> str:
    """Exact decimal form of a float for the command line."""
    return repr(float(v))


def opt(name: str, value) -> str:
    """``--name=value``: a negative value in exponent form is not taken for an option."""
    return f"--{name}={num(value)}"


def state_args(tau0, r0) -> list[str]:
    return [opt("tau0", tau0), opt("x0", r0[0]), opt("y0", r0[1]), opt("z0", r0[2])]


def cli_op(kind, argv, check, chan, **data) -> Op:
    return Op(kind, lambda: call_cli(argv), check, chan, data, ok=_cli_ok)


def integrate_op(kind, chan, tau0, r0, t_end, *, surface=False, samples=None) -> Op:
    spec = program_spec(chan)
    opts = bl.IntegratorOpts(rtol=RTOL, atol=ATOL, stop_on_surface=surface)
    sample_times = [t_end] if samples is None else np.linspace(0.0, t_end, samples)
    r0 = list(r0)

    def run():
        return bl.integrate(spec, bl.PsdState(tau0, r0), t_end, opts,
                            sample_times=sample_times)

    return Op(kind, run, "trajectory", chan,
              {"tau0": tau0, "r0": r0, "t_end": t_end, "surface": surface})


def blow_up_op(a: float, tau0: float) -> Op:
    """g = 1, L = -a I from (tau0, 0): the exact flow blows up at t*.

    The operation succeeds when ``integrate`` names the blow-up at t*: it
    raises an error other than StepFailure, or returns with a stop reason
    other than t_end or surface, at t* to within 1e-6 relative.
    """
    chan = ("spec", _spec([-a, 0, 0, 0], [], 1.0))
    spec = program_spec(chan)
    t_star = math.log(tau0 / (tau0 - 1.0)) / (2.0 * a)
    opts = bl.IntegratorOpts(rtol=RTOL, atol=ATOL)

    def run():
        try:
            traj = bl.integrate(spec, bl.PsdState(tau0, [0.0, 0.0, 0.0]), 2.0 * t_star,
                                opts, sample_times=[2.0 * t_star])
        except bl.BlochampError as exc:
            return type(exc).__name__, getattr(exc, "t", None)
        return traj.stop_reason, float(traj.t[-1])

    def ok(out):
        reason, t = out
        return (reason not in ("StepFailure", "t_end", "surface") and t is not None
                and abs(t - t_star) <= 1e-6 * t_star)

    return Op("blow_up", run, "blow_up", chan, {"t_star": t_star}, ok=ok)


def choi_op(chan, ts) -> Op:
    spec = program_spec(chan)
    ts = list(ts)
    return Op("choi_spectra", lambda: bl.choi_spectra(spec, ts), "choi_spectra", chan,
              {"ts": ts})


# ---------------------------------------------------------------------------
# Rounds


INTERACTIVE_REPEATS = 3
GATE_PURITIES = (0.9, 0.95, 0.98)


def interactive_round(rng, files: SpecFiles) -> list[Op]:
    """40 single CLI commands, three times over with fresh inputs (120)."""
    ops = []
    for rep in range(INTERACTIVE_REPEATS):
        for name in PRESETS:
            chan = preset_chan(rng, name)
            ops.append(simulate_short(rng, chan, files))
            ops.append(fixed_points(chan, files))
            ops.append(stability(rng, chan, files))
            ops.append(slowdown(rng, chan, files))
        for i, family in enumerate(("nino_cp", "gksl", "pseudolinear_cp")):
            chan = random_chan(rng, family, rep + i)
            ops.append(simulate_short(rng, chan, files))
            ops.append(fixed_points(chan, files))
        for i, family in enumerate(("nino_attracting", "gksl")):
            ops.append(stability(rng, random_chan(rng, family, rep + i), files))
        for chan in (preset_chan(rng, "linear_cptp"), preset_chan(rng, "linear_noncp"),
                     random_chan(rng, "gksl", rep), random_chan(rng, "linear_noncp_random", rep)):
            t = jitter(rng, 0.1)
            ops.append(cli_op("cli.choi", ["choi", *channel_args(chan, files), opt("t", t)],
                              "choi_cli", chan, t=t))
        for gate in GATES:
            ops.append(gate_plan(rng, gate, GATE_PURITIES[rep % len(GATE_PURITIES)]))
    return ops


def simulate_short(rng, chan, files) -> Op:
    r0, t = interior(rng, 0.5), jitter(rng, 0.35)
    argv = ["simulate", *channel_args(chan, files), *state_args(1.0, r0), opt("t", t),
            "--out", "-"]
    return cli_op("cli.simulate", argv, "csv_rows", chan, tau0=1.0, r0=r0)


def fixed_points(chan, files) -> Op:
    return cli_op("cli.fixed-points", ["fixed-points", *channel_args(chan, files)],
                  "fixed_points", chan)


def stability(rng, chan, files) -> Op:
    # The unstable-center presets grow up to e^4-fold by t = 5; a start
    # within 1e-3 of the center keeps them inside the cone.
    amplifying = chan[0] == "preset" and chan[1] in ("threejump_nino", "linear_noncp")
    r0 = interior(rng, 1e-3 if amplifying else 0.5)
    argv = ["stability", *channel_args(chan, files), *state_args(1.05, r0)]
    return cli_op("cli.stability", argv, "stability", chan, tau0=1.05, r0=r0, t=5.0)


def slowdown(rng, chan, files) -> Op:
    """Approach the fixed point (1,0,0) along x, or the unstable center at random."""
    if chan[1] in ("threejump_nino", "linear_noncp"):
        fp, d = [0.0, 0.0, 0.0], direction(rng, 3).tolist()
    else:
        fp, d = [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]
    argv = ["slowdown", *channel_args(chan, files), "--fp=" + ",".join(map(num, fp)),
            "--dir=" + ",".join(map(num, d))]
    return cli_op("cli.slowdown", argv, "slowdown", chan, fp=fp, dir=d,
                  exponent=2.0 if chan[1] == "onejump_nino" else 1.0)


def gate_plan(rng, gate, purity_level) -> Op:
    if gate in ("linear_cptp", "one_jump"):
        params = {"m": jitter(rng, 1.0)}
    else:
        big_m = jitter(rng, 1.1)
        params = {"M": big_m, "gamma": big_m * jitter(rng, 0.35)}
    purity = jitter(rng, purity_level, 0.002)
    argv = ["gate-plan", "--gate", gate, opt("target-purity", purity)]
    for k, v in params.items():
        argv.append(opt(k, v))
    return cli_op("cli.gate-plan", argv, "gate_plan", ("gate", gate, params),
                  target_purity=purity)


ENSEMBLE_SHARES = (
    # (family, operations per round); 200 in all
    ("preset", 60), ("nino_cp", 30), ("pseudolinear_cp", 20), ("gksl", 20),
    ("g_half", 15), ("precessing", 15), ("off_plane_nino", 20),
    ("off_plane_preset", 19), ("blow_up", len(BLOW_UP)),
)
ENSEMBLE_T_END = 2.0
SURFACE_T_END = 10.0


def ensemble_round(rng, files: SpecFiles) -> list[Op]:
    """200 library integrations recording only the final state."""
    ops = []
    for family, count in ENSEMBLE_SHARES:
        for i in range(count):
            if family == "blow_up":
                ops.append(blow_up_op(*BLOW_UP[i]))
                continue
            tau0, t_end, surface = 1.0, jitter(rng, ENSEMBLE_T_END), False
            if family == "preset":
                name = PRESETS[i % len(PRESETS)]
                chan = preset_chan(rng, name)
                surface = name in ("threejump_nino", "linear_noncp")
                if surface:
                    t_end = SURFACE_T_END
            elif family == "off_plane_preset":
                chan = preset_chan(rng, ("onejump_nino", "pseudolinear_nino")[i % 2])
                tau0 = rng.uniform(0.8, 1.2)
            elif family == "off_plane_nino":
                chan = random_chan(rng, "nino_attracting", i)
                tau0 = rng.uniform(0.8, 1.2)
            else:
                chan = random_chan(rng, family, i)
                if family == "gksl":
                    tau0 = rng.uniform(0.5, 2.0)
            r0 = amplifiable(rng) if surface else interior(rng, 0.9)
            ops.append(integrate_op(f"integrate.{family}", chan, tau0,
                                    [tau0 * v for v in r0], t_end, surface=surface))
    return ops


DENSE_REPEATS = 2
DENSE_T_END = 3.0
CHOI_FAMILIES = ("linear_cptp", "linear_noncp", "gksl", "linear_noncp_random")
CHOI_GRID_POINTS = (20, 30, 40, 50)
SAMPLED_FAMILIES = ("linear_cptp", "onejump_nino", "pseudolinear_nino", "nino_cp", "gksl",
                    "precessing")


def dense_round(rng, files: SpecFiles) -> list[Op]:
    """15 recording operations, twice over with fresh inputs (30)."""
    ops = []
    for rep in range(DENSE_REPEATS):
        for i, family in enumerate(CHOI_FAMILIES):
            chan = (preset_chan(rng, family) if family in PRESETS
                    else random_chan(rng, family, rep + i))
            n = CHOI_GRID_POINTS[(i + rep) % len(CHOI_GRID_POINTS)]
            ops.append(choi_op(chan, np.linspace(0.0, jitter(rng, DENSE_T_END), n)))
        for i, family in enumerate(SAMPLED_FAMILIES):
            chan = (preset_chan(rng, family) if family in PRESETS
                    else random_chan(rng, family, rep + i))
            ops.append(integrate_op("integrate.sampled", chan, 1.0, interior(rng, 0.9),
                                    jitter(rng, DENSE_T_END), samples=200))
        for chan in (preset_chan(rng, "nojump_nino"), random_chan(rng, "nino_cp", rep),
                     random_chan(rng, "gksl", rep + 1)):
            r0, t = interior(rng, 0.9), jitter(rng, DENSE_T_END)
            argv = ["simulate", *channel_args(chan, files), *state_args(1.0, r0),
                    opt("t", t), "--samples", "201", "--out", "-"]
            ops.append(cli_op("cli.simulate.samples", argv, "csv_rows", chan, tau0=1.0,
                              r0=r0, samples=201))
        ops.append(sweep(rng, "threejump_nino", "gamma"))
        ops.append(sweep(rng, "linear_cptp", "m"))
    return ops


def sweep(rng, name, param) -> Op:
    """Five parameter values; the other parameters and the start are seeded."""
    params = preset_params(rng, name)
    if param == "gamma":
        values = np.linspace(0.0, 0.5, 5) * params["M"]
        r0 = [0.001, 0.0, 0.0]
    else:
        values = [jitter(rng, v) for v in (0.8, 0.9, 1.0, 1.1, 1.2)]
        r0 = interior(rng, 0.9)
    del params[param]
    t = jitter(rng, DENSE_T_END)
    argv = ["sweep", "--preset", name, "--param", param,
            "--values", ",".join(map(num, values)), opt("t", t), *state_args(1.0, r0)]
    for k, v in params.items():
        argv.append(opt(k, v))
    return cli_op("cli.sweep", argv, "sweep", ("preset", name, params), param=param,
                  values=list(values), tau0=1.0, r0=r0, t=t)


ROUNDS = {"interactive": interactive_round, "ensemble": ensemble_round,
          "dense": dense_round}


def make_round(workload: str, seed: int, files: SpecFiles) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return ROUNDS[workload](rng, files)


def warmup_round(workload: str, files: SpecFiles) -> list[Op]:
    """First call of each operation kind, on inputs that do not depend on the seed.

    Blow-up operations are left out: they fail today and are not set-up work.
    """
    seen, ops = set(), []
    for op in make_round(workload, 0, files):
        if op.kind not in seen and op.kind != "blow_up":
            seen.add(op.kind)
            ops.append(op)
    return ops


def min_rounds(workload: str, completed_per_round: int) -> int:
    """Rounds needed for ten completed operations beyond the tail percentile."""
    beyond = 1.0 - TAIL_PERCENTILE[workload] / 100.0
    return max(1, math.ceil(10.0 / beyond / completed_per_round))
