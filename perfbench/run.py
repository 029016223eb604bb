#!/usr/bin/env python3
"""pcekit benchmark: one client in a closed loop, in a single process.

    python3 perfbench/run.py --workload bitmask|basis|small-n \\
        --seed N --seconds S --trace 0|1

Run it from the root of a pcekit checkout.  The client imports pcekit from
``src/``, writes seeded documents, then calls ``pcekit.cli.main(argv)`` and
the library functions the README advertises, each call one operation, and
checks every output with `perfbench.checker`.  It runs passes of the
workload, each on a fresh import of pcekit and freshly written documents,
for ``--seconds`` of wall time: the first pass always runs to its end, and
a later pass stops at the first operation that would start after the time
is up.  Every time it reports is scaled to a reference host speed by
`perfbench.calibration`.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it name every metric
with its unit, plus the facts behind them (tail percentile and sample count,
input digest, environment).

``--trace 1`` alternates untraced and traced passes: per-layer metrics come
from the traced ones, per pass, and the gap in ops_per_s between the two is
the tracing overhead.  End-to-end numbers come only from untraced runs.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one client, one thread, no oversubscription.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import importlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench.calibration import Calibration  # noqa: E402
from perfbench.checker import CliResult  # noqa: E402
from perfbench.inputs import InputWriter  # noqa: E402
from perfbench.tracing import LAYER_METRICS, OP_SPAN, SPAN_CAP, Tracer  # noqa: E402
from perfbench.workloads import MEMORY_BOUND, WORKLOADS  # noqa: E402

# Set-up runs before every pass, and also between operations whenever this
# much wall time has gone by since the last one, so that its repeats are
# spread over the whole run; setup_s is their median.
SETUP_EVERY_S = 5.0
# A run makes at least this many set-ups.
MIN_SETUPS = 5
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_OVERHEAD = {"trace.ops_per_s_delta": "1/s", "trace.overhead_pct": "%"}
PER_LAYER = {name: unit for name, unit, _, _ in LAYER_METRICS} | TRACE_OVERHEAD


class Tally:
    """When each operation of the pass ran, in every pass, the number of
    passes that ran to their end, and the failures seen."""

    def __init__(self, ops):
        self.spans: list[list[tuple[float, float]]] = [[] for _ in ops]
        self.kinds = [op.kind for op in ops]
        self.failures: list[str] = []
        self.passes = 0

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.spans)

    def latencies(self, calibration: Calibration | None) -> list[float]:
        """One latency per operation: the median of its passes, each scaled
        by ``calibration``, or as measured without one.  Every pass runs on
        a fresh import and fresh documents, so nothing pcekit keeps from one
        run of an input can speed up the next."""
        if calibration is None:
            return [statistics.median(end - start for start, end in s) for s in self.spans]
        return [statistics.median(calibration.seconds(start, end) for start, end in s) for s in self.spans]

    def ops_per_s(self, calibration: Calibration | None) -> float:
        """Operations completed per second by a pass that takes each
        operation's latency."""
        return len(self.spans) / sum(self.latencies(calibration))


def import_pcekit():
    """A fresh import of pcekit from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "pcekit"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pk = importlib.import_module("pcekit")
    importlib.import_module("pcekit.cli")
    if Path(pk.__file__).resolve().parent != SRC / "pcekit":
        raise RuntimeError(f"pcekit imported from {pk.__file__}, not from {SRC}")
    return pk


def warm(pk, writer: InputWriter) -> None:
    """Fill pcekit's caches and finish lazy set-up before the first timed op."""
    for n in range(1, 4):
        pk.dense.choi_basis_terms(n)
    for n in range(1, 6):
        pk.pauli_basis(n)
    path = writer.write("warm", {"n": 1, "basis": ["10"]})
    for argv in (["--format", "json", "check", path], ["decompose", path]):
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                pk.cli.main(argv)
            finally:
                sys.stdout = stdout


def setup(workload: str, seed: int, directory: Path, tiny: bool):
    """Import pcekit, write the seeded inputs, warm the caches."""
    pk = import_pcekit()
    writer = InputWriter(directory)
    ops = WORKLOADS[workload](pk, random.Random(f"{workload}/{seed}"), writer, tiny)
    warm(pk, writer)
    return ops, writer.digest


class Setups:
    """Timed set-ups of one run, each into its own directory under ``root``.

    `fresh` makes the set-up a pass runs on.  `spot` makes one only to time
    it, between two operations of a pass, and then puts back the pcekit
    modules that the pass is using.
    """

    def __init__(self, workload: str, seed: int, root: Path, tiny: bool, calibration: Calibration):
        self.workload, self.seed, self.root, self.tiny = workload, seed, root, tiny
        self.calibration = calibration
        self.spans: list[tuple[float, float]] = []
        self.digests: set[str] = set()
        self.last = 0.0
        self.current: Path | None = None

    def _timed(self) -> tuple[list, Path]:
        directory = self.root / f"setup{len(self.spans)}"
        gc.collect()  # free an earlier set-up's modules and inputs first
        self.calibration.sample()
        start = time.perf_counter()
        ops, digest = setup(self.workload, self.seed, directory, self.tiny)
        self.last = time.perf_counter()
        self.calibration.sample()
        self.spans.append((start, self.last))
        self.digests.add(digest)
        return ops, directory

    def fresh(self):
        """A set-up for the next pass; the previous pass's documents go."""
        if self.current:
            shutil.rmtree(self.current, ignore_errors=True)
        ops, self.current = self._timed()
        return ops

    def spot(self) -> None:
        if time.perf_counter() - self.last < SETUP_EVERY_S:
            return
        running = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "pcekit"}
        try:
            shutil.rmtree(self._timed()[1], ignore_errors=True)
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] == "pcekit"]:
                del sys.modules[name]
            sys.modules.update(running)


def run_pass(ops, tally: Tally, tracer: Tracer | None, calibration: Calibration,
             between=None, deadline=math.inf) -> None:
    """Run every operation of ``ops`` once, in order, but none that would
    start at or after ``deadline``, with a calibration probe right before
    and right after each; ``between`` is called after each operation's
    result is checked."""
    op_span = tracer.span_id(OP_SPAN) if tracer else None
    for index, op in enumerate(ops):
        if time.perf_counter() >= deadline:
            return
        calibration.sample()
        if tracer:
            tracer.op_id += 1
            tracer.enter(op_span)
        start = time.perf_counter()
        try:
            result, problem = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        calibration.sample()
        if tracer:
            tracer.leave()
            if isinstance(result, CliResult):
                tracer.counters["cli.stdout_bytes"] += len(result.out)
        if problem is None:
            try:
                problem = op.check(result)
            except Exception as exc:  # a checker crash marks the output wrong
                problem = f"check raised {type(exc).__name__}: {exc}"
        tally.spans[index].append((start, end))
        if problem:
            tally.failures.append(f"{op.kind}: {problem}")
        if between:
            between()
    tally.passes += 1


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that still has
    `TAIL_BEYOND` samples beyond it; the maximum if there are too few."""
    ordered = sorted(latencies)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    rank = len(ordered) - beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result line and the facts behind it."""
    deadline = time.perf_counter() + seconds
    calibration = Calibration(streams=workload in MEMORY_BOUND)
    setups = Setups(workload, seed, OUT / f"{workload}-seed{seed}-{os.getpid()}", tiny, calibration)
    try:
        ops = setups.fresh()
        tracer = Tracer() if trace else None
        untraced, traced = Tally(ops), Tally(ops)
        passes = 0
        # One whole pass of each kind, then passes until the time is up; a
        # traced pass always runs to its end, so per-layer metrics count
        # whole passes.
        while passes < (2 if trace else 1) or time.perf_counter() < deadline:
            if passes:
                ops = None
                ops = setups.fresh()
            traced_pass = trace and passes % 2 == 1
            if traced_pass:
                tracer.install()
            try:
                if traced_pass:
                    run_pass(ops, traced, tracer, calibration, setups.spot)
                else:
                    run_pass(ops, untraced, None, calibration, setups.spot, deadline if passes else math.inf)
            finally:
                if traced_pass:
                    tracer.uninstall()
            passes += 1
        while len(setups.spans) < MIN_SETUPS:
            setups.fresh()
    finally:
        shutil.rmtree(setups.root, ignore_errors=True)
    if len(setups.digests) != 1:
        raise RuntimeError("set-ups of one seed wrote different inputs")
    digest = setups.digests.pop()

    failures = untraced.failures + traced.failures
    attempted = untraced.attempted + traced.attempted
    latencies = untraced.latencies(calibration)
    value, percentile, samples = tail(latencies)
    measured = untraced.latencies(None)
    setup_times = [calibration.seconds(start, end) for start, end in setups.spans]
    facts = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "setups": len(setups.spans),
        "ops_per_pass": len(ops),
        "probe_samples": len(calibration.took),
        "probe_median_ms": 1000 * statistics.median(calibration.took),
        "measured_ops_per_s": untraced.ops_per_s(None),
        "measured_op_p50_ms": 1000 * statistics.median(measured),
        "measured_op_tail_ms": 1000 * tail(measured)[0],
        "measured_setup_s": statistics.median(end - start for start, end in setups.spans),
        "input_digest": digest,
        "fail_ratio": len(failures) / attempted,
        "op_tail_percentile": percentile,
        "op_tail_samples": samples,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }
    if trace:
        metrics = tracer.layer_metrics(traced.passes)
        plain, slowed = untraced.ops_per_s(calibration), traced.ops_per_s(calibration)
        metrics["trace.ops_per_s_delta"] = plain - slowed
        metrics["trace.overhead_pct"] = 100.0 * (1 - slowed / plain)
        trace_file = OUT / f"trace-{workload}-seed{seed}.npz"
        tracer.write(trace_file)
        facts |= {"spans": tracer.spans, "spans_written": min(tracer.spans, SPAN_CAP),
                  "trace_file": trace_file.relative_to(ROOT)}
        units = PER_LAYER
    else:
        metrics = {
            "ops_per_s": untraced.ops_per_s(calibration),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "facts": facts,
        "failures": failures,
        "kinds": kind_summary(untraced, calibration),
    }


def kind_summary(tally: Tally, calibration: Calibration) -> dict[str, tuple[int, float, float]]:
    """Per operation kind: count, median and maximum latency in ms."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(tally.kinds, tally.latencies(calibration)):
        by_kind.setdefault(kind, []).append(1000 * latency)
    return {k: (len(v), statistics.median(v), max(v)) for k, v in by_kind.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcekit" / "__init__.py").is_file():
        print(f"perfbench: no pcekit sources under {SRC}", file=sys.stderr)
        return 2

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in result["facts"].items():
        print(f"fact {key} {value}")
    for kind, (count, p50, worst) in result["kinds"].items():
        print(f"kind {kind} count={count} p50_ms={p50:.3f} max_ms={worst:.3f}")
    for failure in result["failures"][:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
