"""Spans around the calls into each blochamp layer, recorded from outside.

``Tracer.install`` wraps each layer's public functions under every name
through which a blochamp module reaches them (``assemble`` is reached as
``channels.assemble``, ``dynamics.assemble`` and ``analysis.assemble``).
A class is traced through its ``__init__``.  Names that a version of the
package does not have are skipped.  Spans are kept in memory as
(name, start, end, parent span, operation id) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Layer -> public names whose calls are traced.
LAYERS = {
    "cli": ("run_cli",),
    "channels": ("assemble", "classify", "load_spec"),
    "presets": ("expand_preset",),
    "pauli": ("PsdState",),
    "dynamics": ("integrate", "rhs"),
    "analysis": ("choi_spectra", "find_fixed_points", "plan_amplification",
                 "slowdown_exponent"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.steps: dict[int, tuple[int, int, int]] = {}  # integrate span -> counts
        self._stack: list[int] = []
        self._patches: list[tuple] | None = None
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            stats = getattr(result, "stats", None)
            if stats is not None:
                tracer.steps[idx] = (stats.accepted, stats.rejected, len(result))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(object, attribute, traced, original) for every name to patch."""
        modules = [m for n, m in sys.modules.items()
                   if n == "blochamp" or n.startswith("blochamp.")]
        patches = []
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"blochamp.{layer}")
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                span = f"{layer}.{name}"
                if isinstance(orig, type):
                    init = orig.__dict__.get("__init__")
                    if init is not None:
                        patches.append((orig, "__init__", self._wrap(span, init), init))
                    continue
                traced = self._wrap(span, orig)
                patches += [(mod, name, traced, orig) for mod in modules
                            if getattr(mod, name, None) is orig]
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for obj, name, traced, _ in self._patches:
            setattr(obj, name, traced)

    def uninstall(self) -> None:
        for obj, name, _, orig in reversed(self._patches or ()):
            setattr(obj, name, orig)

    # -- analysis ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, child counts by name.

        Self time is a span's duration minus the durations of its direct
        children, which run one after another in this single thread.
        """
        self_time = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_time[s[3]] -= s[2] - s[1]
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            agg = out.setdefault(name, _blank())
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += self_time[i]
            if i in self.steps:
                agg["counted"] += 1
                agg["counted_self"] += self_time[i]
                agg["steps"] = [a + b for a, b in zip(agg["steps"], self.steps[i])]
            if parent >= 0:
                kids = out.setdefault(self.spans[parent][0], _blank())["children"]
                kids[name] = kids.get(name, 0) + 1
        return out


def _blank() -> dict:
    return {"calls": 0, "total": 0.0, "self": 0.0, "children": {}, "steps": [0, 0, 0],
            "counted": 0, "counted_self": 0.0}


# The per-layer metrics, with their units, as BENCHMARK.json declares them.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)["per_layer"]}


def layer_metrics(summary: dict, n_ops: int, output_bytes: int,
                  untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from a span summary; 0 where a layer did not run.

    The integrate metrics cover the calls that returned a trajectory.
    """

    def get(name):
        return summary.get(name, _blank())

    def ratio(a, b):
        return a / b if b else 0.0

    cli, asm = get("cli.run_cli"), get("channels.assemble")
    psd, integ, rhs = get("pauli.PsdState"), get("dynamics.integrate"), get("dynamics.rhs")
    choi = get("analysis.choi_spectra")
    accepted, rejected, rows = integ["steps"]
    steps = accepted + rejected
    values = {
        "cli.run_cli.self_ms_per_op": 1e3 * ratio(cli["self"], n_ops),
        "cli.output_bytes_per_op": ratio(output_bytes, n_ops),
        "channels.assemble.calls_per_op": ratio(asm["calls"], n_ops),
        "channels.assemble.us_per_call": 1e6 * ratio(asm["total"], asm["calls"]),
        "pauli.PsdState.calls_per_op": ratio(psd["calls"], n_ops),
        "pauli.PsdState.us_per_call": 1e6 * ratio(psd["total"], psd["calls"]),
        "dynamics.integrate.self_ms_per_call": 1e3 * ratio(integ["counted_self"],
                                                           integ["counted"]),
        "dynamics.steps_per_integrate": ratio(steps, integ["counted"]),
        "dynamics.step_accept_ratio": ratio(accepted, steps),
        "dynamics.us_per_step": 1e6 * ratio(integ["counted_self"], steps),
        "dynamics.rows_per_integrate": ratio(rows, integ["counted"]),
        "dynamics.rhs.calls_per_op": ratio(rhs["calls"], n_ops),
        "dynamics.rhs.us_per_call": 1e6 * ratio(rhs["total"], rhs["calls"]),
        "analysis.choi_spectra.self_ms_per_call": 1e3 * ratio(choi["self"], choi["calls"]),
        "analysis.choi_spectra.integrate_calls_per_call": ratio(
            choi["children"].get("dynamics.integrate", 0), choi["calls"]),
        "trace.untraced_ms_per_op": 1e3 * ratio(untraced_s, n_ops),
        "trace.overhead_pct": 100.0 * ratio(traced_s - untraced_s, untraced_s),
    }
    for name in ("channels.classify", "channels.load_spec", "presets.expand_preset"):
        s = get(name)
        values[f"{name}.us_per_call"] = 1e6 * ratio(s["total"], s["calls"])
    for name in ("analysis.find_fixed_points", "analysis.plan_amplification",
                 "analysis.slowdown_exponent"):
        s = get(name)
        values[f"{name}.ms_per_call"] = 1e3 * ratio(s["total"], s["calls"])
    if values.keys() != PER_LAYER.keys():
        raise ValueError("computed per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(values.keys() ^ PER_LAYER.keys())}")
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
