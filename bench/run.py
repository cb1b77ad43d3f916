"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload {interactive,ensemble,dense} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source tree; the package is imported from
``src/``.  Each measurement runs in a fresh single-threaded interpreter
(``child.py``).  With ``--trace 0`` set-up is measured in five fresh
interpreters, the last of which also runs the timed operations, and the
median is reported as ``setup_s``.  With ``--trace 1`` one interpreter
reports the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The whole run must end within ``110 + 2 * seconds`` seconds (170 s for
30 s runs); a workload process still running then is stopped and the run
fails without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("interactive", "ensemble", "dense")
SETUP_RUNS = 5
DEADLINE_MARGIN_S = 110.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("workload process timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"workload process exited with {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "blochamp" / "__init__.py").is_file():
        print(f"error: no blochamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_MARGIN_S + 2.0 * args.seconds
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            # The first interpreter also writes the bytecode caches; its time is dropped.
            run_child(args, ["--setup-only"], deadline)
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_child(args, ["--setup-only"], deadline)["setup_s"])
        res = run_child(args, [], deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        res["setup_runs_s"] = setups
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    detail = {k: v for k, v in res.items() if k not in ("correct", "attempted", "failed",
                                                         "metrics", "problems", "round_s")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    (ROOT / ".bench_work" / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(res, indent=1), encoding="utf-8")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
