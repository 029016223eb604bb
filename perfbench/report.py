#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric, by name, with its unit.

    python3 perfbench/report.py [--seeds 1 2 ...] [--out FILE]

For each workload in BENCHMARK.json this runs ``perfbench/run.py`` once per
seed untraced and once traced (first seed), each as a child process, and
prints the median and quartiles of every end-to-end metric, the spread
(quartile distance over the median) against the metric's bound, the failure
ratio, the tail percentile with its sample count, every per-layer metric and
the tracing overhead.  ``--out`` also writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.splitlines()
    facts = dict(line.split(" ", 2)[1:] for line in lines if line.startswith("fact "))
    return json.loads(lines[-1]) | {"facts": facts}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def report(workload: str, seeds: list[int]) -> dict:
    runs = [run_once(workload, seed, 0) for seed in seeds]
    traced = run_once(workload, seeds[0], 1)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out = {
        "end_to_end": {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
            | {"unit": m["unit"], "bound": m["bound"]}
            for m in BENCHMARK["end_to_end"]
        },
        "per_layer": traced["metrics"],
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "op_tail_percentile": float(runs[0]["facts"]["op_tail_percentile"]),
        "op_tail_samples": int(runs[0]["facts"]["op_tail_samples"]),
        "input_digests": {seed: r["facts"]["input_digest"] for seed, r in zip(seeds, runs)},
        "environment": {k: runs[0]["facts"][k] for k in ("nproc", "python", "numpy", "blas_threads")},
        "traced_run_failed": traced["failed"],
    }
    print(f"== {workload}: {len(seeds)} untraced run(s), seeds {seeds}; 1 traced run")
    for name, s in out["end_to_end"].items():
        print(f"{workload} {name} {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f} bound {s['bound']}")
    print(f"{workload} fail_ratio {out['fail_ratio']:.6g} ratio  ({failed} of {attempted})")
    print(f"{workload} op_tail_percentile {out['op_tail_percentile']:.2f} %  "
          f"of {out['op_tail_samples']} samples")
    for name, metric in traced["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    results = {w["name"]: report(w["name"], args.seeds) for w in BENCHMARK["workloads"]}
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
