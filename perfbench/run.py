#!/usr/bin/env python3
"""leggettsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from ``workloads.py`` for S seconds in a closed loop, checks
every output, prints one line per metric and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` gives the per-layer metrics from a run
that takes each cycle of ops once untraced and once traced by ``tracing.py``.
The package is imported from
``src/`` of the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from workloads import CHILD_TIMEOUT_S, OUT_DIR, SRC, WORKLOADS, child_env

SETUP_REPS = 11
STARTUP_REPS = 11
# a run ends on a cycle boundary with at least this many ops, so the tail
# percentile has ten samples beyond it
MIN_OPS = 24
TAIL_BEYOND = 10
CLI_SUBCOMMANDS = ("sweep", "verify", "thresholds", "report", "simulate")
# a fresh child that times its own imports: numpy, then the package on top
IMPORT_CODE = """\
import time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
start = time.perf_counter()
import leggettsim.cli
print(numpy_s, time.perf_counter() - start)
"""
# a fresh child that imports the modules the workload's op uses (argv[3:]),
# then builds one cycle of inputs, and prints the seconds both took; the
# benchmark's own modules are imported between the two and are not timed
SETUP_CODE = """\
import importlib, sys, time
start = time.perf_counter()
for module in sys.argv[3:]:
    importlib.import_module(module)
imported_s = time.perf_counter() - start
sys.path.insert(0, {bench_dir!r})
from workloads import WORKLOADS
start = time.perf_counter()
workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
for index in range(workload.cycle):
    workload.op_input(index)
print(imported_s + time.perf_counter() - start)
"""


def tail(values):
    """(value, percentile): the highest sample with TAIL_BEYOND samples above it.

    The percentile is the share of samples at or below that value.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Durations, work and check results of consecutive ops."""

    def __init__(self):
        self.durations = []
        self.work = 0
        self.failed = 0
        self.zs = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def extend(self, other: "Loop"):
        self.durations += other.durations
        self.work += other.work
        self.failed += other.failed
        self.zs += other.zs


def run_cycle(workload, first, tracer=None) -> Loop:
    """Run one cycle of ops: ``first`` to ``first + workload.cycle - 1``."""
    loop = Loop()
    collect = getattr(workload, "collect", None)
    for index in range(first, first + workload.cycle):
        op = workload.op_input(index)
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            out = workload.run(op, tracer)
        except Exception:
            end = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            problems = ["op raised"]
        else:
            end = time.perf_counter()
            try:
                if tracer is not None and collect is not None:
                    collect(tracer, out)
                problems = workload.check(op, out, loop.zs)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if tracer is not None:
            tracer.end_op(f"op:{op[0]}", start, end)
        loop.durations.append(end - start)
        loop.work += workload.work(op)
        if problems:
            loop.failed += 1
            print(f"op {index} ({op[0]}) failed: {'; '.join(problems[:3])}", file=sys.stderr)
    return loop


def run_child(code, *args) -> tuple:
    """(wall seconds, stdout) of a fresh ``python -c code args...``."""
    argv = [sys.executable, "-c", code, *args]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def setup_seconds(args, workload) -> float:
    """Seconds a fresh process takes to import the op's modules and build inputs."""
    code = SETUP_CODE.format(bench_dir=str(Path(__file__).resolve().parent))
    return float(run_child(code, workload.name, str(args.seed), *workload.modules)[1])


def startup_ms() -> dict:
    """Median ms of interpreter start (a ``pass`` child) and of imports timed in a child."""
    interpreter, numpy_import, package_import = [], [], []
    for _ in range(STARTUP_REPS):
        interpreter.append(1000.0 * run_child("pass")[0])
        numpy_s, package_s = map(float, run_child(IMPORT_CODE)[1].split())
        numpy_import.append(1000.0 * numpy_s)
        package_import.append(1000.0 * package_s)
    return {
        "startup.interpreter_ms": statistics.median(interpreter),
        "startup.numpy_import_ms": statistics.median(numpy_import),
        "startup.package_import_ms": statistics.median(package_import),
    }


def rms(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else 0.0


def end_to_end(args, workload) -> tuple:
    run_cycle(workload, 0)  # warm caches and lazy imports
    loop, setup = Loop(), []
    began = time.perf_counter()
    while (
        loop.attempted < MIN_OPS
        or len(setup) < SETUP_REPS
        or time.perf_counter() - began < args.seconds
    ):
        # Set-up samples are spread over the run, between cycles, so that they
        # see the same drift of the host's speed as the ops do.
        if time.perf_counter() - began >= len(setup) * args.seconds / SETUP_REPS:
            setup.append(setup_seconds(args, workload))
        loop.extend(run_cycle(workload, loop.attempted))
    tail_s, tail_pct = tail(loop.durations)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms.p50": (1000.0 * statistics.median(loop.durations), "ms"),
        "op_ms.tail": (1000.0 * tail_s, "ms"),
        "work_per_s": (loop.work / sum(loop.durations), "1/s"),
        "peak_rss_mb": (resource.getrusage(workload.rusage).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"op_ms.tail is p{tail_pct:.1f} of {loop.attempted} ops",
        f"error_rate = {loop.failed}/{loop.attempted}",
        f"work_per_s counts {workload.work_unit}",
    ]
    return loop, metrics, notes


def per_layer(args, workload) -> tuple:
    from tracing import END, ID, LAYER, LAYERS, NAME, PARENT, START, Tracer, self_times

    startup = startup_ms()
    run_cycle(workload, 0)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer()
    plain, traced = Loop(), Loop()
    overheads = []
    began = time.perf_counter()
    first = 0
    # Each cycle of ops runs once untraced and once traced, the two in
    # alternating order, so that the host's drift cancels in their difference.
    while traced.attempted < MIN_OPS or time.perf_counter() - began < args.seconds:
        passes = {}
        for traced_pass in (False, True) if len(overheads) % 2 == 0 else (True, False):
            if traced_pass:
                tracer.install()
            try:
                passes[traced_pass] = run_cycle(
                    workload, first, tracer if traced_pass else None
                )
            finally:
                tracer.uninstall()
        overheads.append(
            (sum(passes[True].durations) - sum(passes[False].durations)) / workload.cycle
        )
        plain.extend(passes[False])
        traced.extend(passes[True])
        first += workload.cycle
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)

    ops = traced.attempted
    op_time = sum(traced.durations)
    self_s = self_times(tracer.spans)
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span[LAYER]] += 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / ops, "1/op")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / ops, "s/op")
        metrics[f"{layer}.share"] = (self_s.get(layer, 0.0) / op_time, "ratio")
    counters = tracer.counters
    builds = sum(1 for span in tracer.spans if span[NAME] == "qstate.correlation_tensor")
    corrected = counters["expsim.corrected_settings"]
    metrics["qstate.tensor_builds"] = (builds / ops, "1/op")
    metrics["expsim.settings"] = (counters["expsim.settings"] / ops, "1/op")
    metrics["expsim.clip_events"] = (counters["expsim.clip_events"] / ops, "1/op")
    metrics["expsim.clip_ratio"] = (
        counters["expsim.clip_events"] / corrected if corrected else 0.0, "ratio"
    )
    zs = plain.zs + traced.zs
    metrics["expsim.raw_z_rms"] = (rms(z for z, _ in zs), "sigma")
    metrics["expsim.corrected_z_rms"] = (rms(z for _, z in zs), "sigma")
    metrics["oracle.cells"] = (counters["oracle.cells"] / ops, "1/op")
    metrics["oracle.peak_alloc_mb"] = (tracer.peak_alloc_bytes / 2**20, "MB")
    metrics.update({k: (v, "ms") for k, v in startup.items()})

    op_names = {span[ID]: span[NAME] for span in tracer.spans if span[LAYER] == "bench"}
    main_ms = defaultdict(list)
    for span in tracer.spans:
        if span[NAME] == "cli.main":
            sub = op_names[span[PARENT]].removeprefix("op:")
            main_ms[sub].append(1000.0 * (span[END] - span[START]))
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}_ms"] = (statistics.median(main_ms[sub]) if main_ms[sub] else 0.0, "ms")
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s/op")

    startup_total = sum(startup.values())
    notes = [
        f"spans written to {spans_path.relative_to(OUT_DIR.parent)}",
        f"expsim.clip_ratio base: {corrected} corrected settings",
        f"z_rms base: {len(zs)} sampled values",
        f"startup total {startup_total:.1f} ms vs untraced op p50 "
        f"{1000.0 * statistics.median(plain.durations):.1f} ms",
        "self-time share: " + ", ".join(
            f"{layer} {self_s.get(layer, 0.0) / op_time:.3f}" for layer in (*LAYERS, "bench")
        ),
    ]
    plain.extend(traced)
    return plain, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leggettsim" / "__init__.py").is_file():
        print(f"error: no leggettsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import leggettsim

    if Path(leggettsim.__file__).resolve().parent != SRC / "leggettsim":
        print(f"error: leggettsim imported from {leggettsim.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    measure = per_layer if args.trace else end_to_end
    loop, metrics, notes = measure(args, workload)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
