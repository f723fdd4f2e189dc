"""Span tracing for the traced benchmark run.

Each public function of a layer is replaced, in every ``npceemd`` module
namespace that holds it, by a wrapper that records one span: name, start,
end, parent span and record id. Spans stay in memory until the run writes
them out. Nothing here runs unless the benchmark is started with
``--trace 1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("emd", "noise", "ensemble", "mi", "spectral", "pipeline", "cli", "simulate")

# (module, function) pairs that become spans; the layer is the module.
WRAPPED = (
    ("emd", "emd"),
    ("emd", "sift_once"),
    ("emd", "spline_envelope"),
    ("emd", "find_extrema"),
    ("noise", "generate_fgn"),
    ("noise", "generate_white"),
    ("ensemble", "decompose"),
    ("mi", "score_imfs"),
    ("mi", "knn_mutual_information"),
    ("spectral", "analytic_envelope"),
    ("spectral", "envelope_spectrum"),
    ("spectral", "detect_defect_peak"),
    ("pipeline", "diagnose"),
    ("pipeline", "separation_scores"),
    ("cli", "main"),
    ("cli", "read_signal_csv"),
    ("simulate", "gen_combined"),
    ("simulate", "gen_degradation_run"),
)

# Counts recorded at a span boundary: name -> (counter, f(args, result)).
COUNTERS = {
    "emd.emd": ("emd.imfs", lambda args, result: result.n_imfs),
    "mi.knn_mutual_information": ("mi.points", lambda args, result: len(args[0])),
    "cli.read_signal_csv": ("cli.bytes_read", lambda args, result: os.path.getsize(args[0])),
}

# Counters the workloads add to directly.
EXTRA_COUNTERS = ("cli.bytes_written",)


class Tracer:
    """In-memory span recorder; ``record`` tags spans with the current record."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.record: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.record))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.record)
            if counter is not None and tracer.record is not None:
                tracer.counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever a npceemd module binds it."""
        loaded = [
            m for key, m in list(sys.modules.items())
            if key == "npceemd" or key.startswith("npceemd.")
        ]
        for module_name, fn_name in WRAPPED:
            # import_module returns the submodule even where the package
            # re-exports a function of the same name (npceemd.emd).
            module = importlib.import_module(f"npceemd.{module_name}")
            original = getattr(module, fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for namespace in loaded:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._patched.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round calls, inclusive seconds, module self seconds and counts,
        over the spans tagged with a timed record."""
        metrics: dict[str, float] = {}
        for module_name, fn_name in WRAPPED:
            metrics[f"{module_name}.{fn_name}.calls"] = 0.0
            metrics[f"{module_name}.{fn_name}.s"] = 0.0
        self_s = {m: 0.0 for m in MODULES}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, _, record) in enumerate(self.spans):
            if record is None:
                continue
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.s"] += end - start
            self_s[name.split(".")[0]] += end - start - child_s[i]
        for module_name, value in self_s.items():
            metrics[f"{module_name}.self_s"] = value
        for counter, _ in COUNTERS.values():
            metrics[counter] = self.counts.get(counter, 0.0)
        for counter in EXTRA_COUNTERS:
            metrics[counter] = self.counts.get(counter, 0.0)
        return {k: v / rounds for k, v in metrics.items()}

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent index, record."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_cost(calls: int = 100000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    probe = Tracer()
    probe.record = "probe"

    def noop():
        return None

    wrapped = probe._wrap("probe.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - start - bare) / calls
