#!/usr/bin/env python3
"""Benchmark of the npceemd package: one workload per run, closed loop.

Usage, from the root of a checkout:

    python3 bench/run.py --workload degradation-diagnose --seed 1 --seconds 20 --trace 0

One client runs one record at a time, in rounds of the same records, until
the timed records add up to ``--seconds``; the round in progress is
finished. Each record's output is digested and the outputs of the first
round are checked against references computed in ``oracles.py``. With
``--trace 0`` the last line of standard output is the end-to-end result;
with ``--trace 1`` the public functions of each module are wrapped (see
``tracing.py``) and the last line holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "work")

# Set-up (package import in a fresh interpreter, inputs generated and
# written) is repeated this many times and the median reported.
SETUP_REPEATS = 3

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import npceemd, npceemd.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy ships with, if it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run_rounds(workload, seconds: float, tracer, meter) -> dict:
    """Whole rounds until the timed records add up to ``seconds`` of wall time.

    The speedometer samples the reference kernel before the first record and
    after every record, outside the timed region.
    """
    records = workload.records()
    prepare = getattr(workload, "prepare", None)
    finish = getattr(workload, "finish", None)
    done: list[tuple[str, float, float, bool]] = []  # (label, start, wall seconds, completed)
    digests = []
    first = None
    rounds = 0
    timed = 0.0
    meter.sample()
    while rounds == 0 or timed < seconds:
        outputs = {}
        for label, call in records:
            if prepare:
                prepare(label)
            if tracer:
                tracer.record = f"{rounds}:{label}"
            start = time.perf_counter()
            try:
                output = call()
            except Exception as exc:  # a failed record is counted, not fatal
                output = exc
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.record = None
            if finish:
                finish(label)
            timed += elapsed
            good = not (isinstance(output, Exception) or workload.failed(label, output))
            done.append((label, start, elapsed, good))
            outputs[label] = output
            meter.sample()
        crashed = {k: v for k, v in outputs.items() if isinstance(v, Exception)}
        digests.append(repr(crashed) if crashed else workload.digest(outputs))
        if first is None:
            first = outputs
        rounds += 1
    scales = [meter.scale(start, start + t) for _, start, t, _ in done]
    return {
        "first": first, "digests": digests, "timed": timed, "rounds": rounds,
        "scales": scales, "labels": [label for label, _ in records],
        "attempted": len(done), "failed": sum(not good for *_, good in done),
        "raw": [(label, t, good) for label, _, t, good in done],
        "adjusted": [(label, t * f, good) for (label, _, t, good), f in zip(done, scales)],
    }


def timing_metrics(run: dict, records: list) -> tuple[float, float]:
    """records_per_s and record_s.p50 from (label, seconds, completed) records.

    Every round repeats the same records, so each record is represented by
    its median over the rounds: a slow spell during one round moves the
    result less than a plain total would. records_per_s is the completed
    records of a round over the round's time; record_s.p50 is the median
    of the completed records' medians.
    """
    round_s, medians = 0.0, []
    for label in run["labels"]:
        times = [t for name, t, _ in records if name == label]
        round_s += statistics.median(times)
        completed = [t for name, t, good in records if name == label and good]
        if completed:
            medians.append(statistics.median(completed))
    per_round = (run["attempted"] - run["failed"]) / run["rounds"]
    return per_round / round_s, statistics.median(medians)


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "npceemd", "__init__.py")):
        print(f"error: no npceemd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import npceemd
    import npceemd.cli  # noqa: F401  (binds npceemd.cli)

    if not os.path.abspath(npceemd.__file__).startswith(SRC + os.sep):
        print(f"error: npceemd imported from {npceemd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](npceemd, args.seed, os.path.join(WORK, args.workload))

    meter = speed.Speedometer()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        start = time.perf_counter()
        imported = import_seconds()
        generate = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        meter.sample()
        raw_setups.append(imported + end - generate)
        setups.append(raw_setups[-1] * meter.scale(start, end, nearest=2))

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        workload.tracer = tracer
    try:
        run = run_rounds(workload, args.seconds, tracer, meter)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, notes = [], []
    crashed = {k: v for k, v in run["first"].items() if isinstance(v, Exception)}
    if crashed:
        errors += [f"{label}: {exc!r}" for label, exc in crashed.items()]
    else:
        errors, notes = workload.check(run["first"])
    if len(set(run["digests"])) != 1:
        errors.append(f"rounds gave different outputs: {sorted(set(run['digests']))}")

    records_per_s, p50 = timing_metrics(run, run["adjusted"])
    raw_records_per_s, raw_p50 = timing_metrics(run, run["raw"])
    times = [t for _, t, good in run["adjusted"] if good]
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"digest {args.workload} {run['digests'][0]}")
    print(f"rounds {run['rounds']} x {len(run['labels'])} records, timed {run['timed']:.3f} s wall")
    scales = run["scales"]
    print(
        f"speed scale median {statistics.median(scales):.4f} "
        f"(min {min(scales):.4f}, max {max(scales):.4f}) over {len(scales)} records, "
        f"{len(meter.samples)} kernel samples"
    )
    print(
        f"wall records_per_s {raw_records_per_s:.6f}, record_s.p50 {raw_p50:.6f} s, "
        f"setup_s {statistics.median(raw_setups):.6f} s"
    )
    print(f"setup_s runs {[round(v, 4) for v in setups]}")
    if len(times) >= 40:
        print(f"record_s.p90 {statistics.quantiles(times, n=10)[-1]:.6f} s over {len(times)} records")
    for label in run["labels"]:
        spent = statistics.median(t for name, t, _ in run["adjusted"] if name == label)
        print(f"record {label} median {spent:.6f} s")
    for note in notes:
        print("note " + note)
    for error in errors:
        print("ERROR " + error)

    if tracer:
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"trace {len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
        cost = tracing.span_cost()
        print(
            f"tracing overhead estimate {len(tracer.spans)} spans x {cost * 1e6:.2f} us = "
            f"{len(tracer.spans) * cost / run['timed']:.2%} of the timed records"
        )
        units = {".calls": "count", ".s": "s", ".self_s": "s"}
        metrics = {}
        scale = statistics.median(scales)
        for name, value in tracer.layer_metrics(run["rounds"]).items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), None)
            if unit == "s":
                value *= scale
            metrics[name] = {"value": value, "unit": unit or ("bytes" if "bytes" in name else "count")}
        metrics["trace.records_per_s"] = {"value": records_per_s, "unit": "records/s"}
    else:
        metrics = {
            "records_per_s": {"value": records_per_s, "unit": "records/s"},
            "record_s.p50": {"value": p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result = {
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
