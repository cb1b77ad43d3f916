"""Print the reference figures quoted in bench/README.md.

    python3 bench/reference_figures.py

Measures, on this machine and in one thread: ``assemble`` by jump count,
one public ``rhs`` call, one ``build_parser`` call, the per-criterion wall
times of ``blochamp verify --suite paper``, and, from a traced run of each
workload (seed 1, at the benchmark's ``run_seconds``), the DP45 cost per
step and the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))[
    "run_seconds"]

import blochamp as bl  # noqa: E402
import blochamp.cli  # noqa: E402


def per_call_us(fn, repeats=7, number=200) -> float:
    """Median over ``repeats`` of the mean time of ``number`` calls, in us."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return 1e6 * statistics.median(times)


def verify_times() -> dict[str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        blochamp.cli.run_cli(["verify", "--suite", "paper"])
    times = {}
    for line in out.getvalue().splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] in ("PASS", "FAIL") and parts[2].endswith("s"):
            times[parts[0]] = float(parts[2][:-1])
    return times


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", str(RUN_SECONDS), "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def main() -> None:
    presets = {0: "nojump_nino", 1: "onejump_nino", 3: "threejump_nino"}
    for n_jumps, name in presets.items():
        spec = bl.expand_preset(bl.Preset(name, {}))
        print(f"assemble, {n_jumps} jumps ({name}): "
              f"{per_call_us(lambda: bl.assemble(spec)):.1f} us")
    spec, state = bl.expand_preset(bl.Preset("threejump_nino", {})), bl.PsdState(1.0, [0.1, 0, 0])
    print(f"rhs (threejump_nino): {per_call_us(lambda: bl.rhs(spec, state)):.1f} us")
    build_parser = getattr(blochamp.cli, "build_parser", None)
    if build_parser is not None:
        print(f"build_parser: {per_call_us(build_parser, number=20) / 1e3:.2f} ms")

    times = verify_times()
    print(f"verify --suite paper: {sum(times.values()):.2f} s in all")
    for cid, sec in times.items():
        print(f"  {cid}: {sec:.2f} s")

    for workload in ("interactive", "ensemble", "dense"):
        m = traced(workload)
        print(f"traced {workload}: us_per_step {m['dynamics.us_per_step']:.1f}, "
              f"steps_per_integrate {m['dynamics.steps_per_integrate']:.1f}, "
              f"tracing overhead {m['trace.overhead_pct']:.1f}% of "
              f"{m['trace.untraced_ms_per_op']:.2f} ms per operation")


if __name__ == "__main__":
    main()
