"""One workload run in a fresh interpreter; ``run.py`` starts it.

    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1 \
        [--setup-only]

It times set-up (importing ``blochamp`` and ``blochamp.cli`` plus the first
call of each operation kind), then repeats the workload's round for the
given seconds, reads the peak resident memory, and only then loads the
exact-solution reference and checks the outputs.  Spec files and spans
are written under ``.bench_work/`` at the root of the source tree.  With ``--trace 1`` it
runs each operation untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  The last line of standard
output is one JSON object.
"""

import time

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path


def fingerprint(out):
    """A value equal for equal outputs, to compare repeated operations."""
    if hasattr(out, "stats"):
        return out.stop_reason, out.t.tobytes(), out.tau.tobytes(), out.r.tobytes()
    if hasattr(out, "tobytes"):
        return out.tobytes()
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    return out


class Runner:
    """Repeats one round of operations and keeps the first round's outputs."""

    def __init__(self, ops, program_errors):
        self.ops = ops
        self.errors = program_errors
        self.first: list = [None] * len(ops)
        self.latencies: list[float] = []
        self.round_s: list[float] = []
        self.attempted = self.failed = 0
        self.output_bytes = 0
        self.mismatches: list[str] = []

    def rounds(self, seconds: float, min_rounds: int) -> int:
        """Run whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
        start = time.perf_counter()
        while len(self.round_s) < min_rounds or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            for i, op in enumerate(self.ops):
                self.one(i, op, None)
            self.round_s.append(time.perf_counter() - t0)
        return len(self.round_s)

    def one(self, i, op, tracer) -> float:
        """Run operation ``i`` once; return its latency in seconds."""
        if tracer is not None:
            tracer.op_id = self.attempted
            span = tracer.begin(f"op.{op.kind}")
        t0 = time.perf_counter()
        try:
            out = op.run()
            ok = op.ok(out)
        except self.errors as exc:
            out, ok = exc, False
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
        self.attempted += 1
        if ok:
            self.latencies.append(t1 - t0)
        else:
            self.failed += 1
        stdout = getattr(out, "stdout", None)   # a CLI command's captured output
        if stdout is not None:
            self.output_bytes += len(stdout)
        fp = fingerprint(out)
        if self.first[i] is None:
            self.first[i] = (out, ok, fp)
        elif fp != self.first[i][2]:
            self.mismatches.append(f"{op.kind} #{i}: output differs from its first run")
        return t1 - t0


def machine() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": model or platform.processor()}


def traced_rounds(runner, seconds):
    """Run each operation untraced and then traced, for whole rounds.

    Pairing at the operation keeps the machine's speed the same for both
    halves, so the difference is the tracing overhead.  Returns the number
    of rounds, the per-layer metrics and the tracer.
    """
    import spans
    tracer = spans.Tracer()
    rounds, untraced_s, traced_s, traced_bytes = 0, 0.0, 0.0, 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(runner.ops):
            untraced_s += runner.one(i, op, None)
            bytes_before = runner.output_bytes
            tracer.install()
            try:
                traced_s += runner.one(i, op, tracer)
            finally:
                tracer.uninstall()
            traced_bytes += runner.output_bytes - bytes_before
        rounds += 1
    metrics = spans.layer_metrics(tracer.summary(), rounds * len(runner.ops), traced_bytes,
                                  untraced_s, traced_s)
    return rounds, metrics, tracer


def check_outputs(ops, runner) -> tuple[float, list[str]]:
    import checks
    worst, problems = 0.0, list(runner.mismatches)
    for op, (out, ok, _) in zip(ops, runner.first):
        if not ok:
            if op.kind != "blow_up":
                problems.append(f"{op.kind}: operation failed: {out!r}"[:300])
            continue
        res = checks.check(op, out)
        worst = max([worst, *res.devs])
        problems += res.problems
    return worst, problems


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t0 = time.perf_counter()
    import blochamp
    import blochamp.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import numpy as np
    import workloads as wl

    workdir = Path(__file__).resolve().parent.parent / ".bench_work"
    work = workdir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        warm = wl.warmup_round(args.workload, wl.SpecFiles(work / "warm"))
        t1 = time.perf_counter()
        for op in warm:
            if not op.ok(op.run()):
                raise RuntimeError(f"warm-up operation {op.kind} failed")
        setup_s = import_s + time.perf_counter() - t1
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = wl.make_round(args.workload, args.seed, wl.SpecFiles(work / "round"))
        runner = Runner(ops, (blochamp.BlochampError, ValueError))
        if args.trace:
            n_rounds, metrics, tracer = traced_rounds(runner, args.seconds)
            tracer.write(workdir / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            completed = sum(op.kind != "blow_up" for op in ops)
            n_rounds = runner.rounds(args.seconds, wl.min_rounds(args.workload, completed))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        worst, problems = check_outputs(ops, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        lat_ms = 1e3 * np.asarray(runner.latencies)
        q = wl.TAIL_PERCENTILE[args.workload]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat_ms) / sum(runner.round_s), "unit": "1/s"},
            "op_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
            "op_tail_ms": {"value": float(np.percentile(lat_ms, q)), "unit": "ms"},
            "accuracy_digits": {"value": -math.log10(max(worst, np.finfo(float).eps)),
                                "unit": "digits"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": metrics, "problems": problems[:20], "rounds": n_rounds,
        "ops_per_round": len(ops), "completed": len(runner.latencies),
        "tail_percentile": wl.TAIL_PERCENTILE[args.workload],
        "worst_rel_dev": worst, "machine": machine(), "round_s": runner.round_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
