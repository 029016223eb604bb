"""Self-tests of the benchmark: python -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from perfbench import checker, run
from perfbench.calibration import Calibration
from perfbench.inputs import InputWriter, make_channel
from perfbench.tracing import Tracer
from perfbench.workloads import Op, PassPlan, basis, bitmask

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload):
    plain = run.run_benchmark(workload, 1, 0.0, trace=False, tiny=True)
    traced = run.run_benchmark(workload, 1, 0.0, trace=True, tiny=True)
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in plain["metrics"].values())


def test_metric_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert declared == run.END_TO_END | run.PER_LAYER


def test_same_seed_gives_same_input_digest(tmp_path):
    digests = [run.setup("small-n", seed, tmp_path / f"d{i}", tiny=True)[1]
               for i, seed in enumerate((5, 5, 6))]
    assert digests[0] == digests[1] != digests[2]


def _tiny_ops(tmp_path):
    pk = run.import_pcekit()
    writer = InputWriter(tmp_path)
    return pk, writer, bitmask(pk, random.Random(0), writer, tiny=True)


def test_corrupted_expected_output_counts_as_failure(tmp_path):
    pk, writer, ops = _tiny_ops(tmp_path)
    ch = make_channel(random.Random(1), 3, 3)
    wrong = dataclasses.replace(ch, basis=ch.basis[:-1])
    p = PassPlan(pk, writer)
    path = writer.write("corrupt", ch.preserved_doc())
    p.cli("check", ["--format", "json", "check", path], partial(checker.check_report, wrong))
    ops = ops + p.ops
    tally = run.Tally(ops)
    run.run_pass(ops, tally, None, Calibration())
    assert len(tally.failures) == 1 and tally.failures[0].startswith("check:")
    assert tally.attempted == len(ops)


def test_wrong_program_output_counts_as_failure(tmp_path, monkeypatch):
    pk, _, ops = _tiny_ops(tmp_path)
    monkeypatch.setattr(pk, "reflect", lambda pce, k: pk.PceMap(pce.n, 1))
    tally = run.Tally(ops)
    run.run_pass(ops, tally, None, Calibration())
    reflect_ops = sum(op.kind == "reflect_twice" for op in ops)
    assert len(tally.failures) == reflect_ops > 0


def test_raising_operation_counts_as_failure():
    def boom():
        raise ValueError("boom")

    ops = [Op("boom", boom, lambda result: None)]
    tally = run.Tally(ops)
    run.run_pass(ops, tally, None, Calibration())
    assert tally.failures == ["boom: raised ValueError: boom"]


def test_checker_rejects_a_wrong_spectrum():
    ch = make_channel(random.Random(2), 2, 2)
    good = {"n": 2, "is_pce": True, "is_channel": True, "K": 2, "popcount": 4,
            "spectrum": {"values": [{"value": "0", "count": 12}, {"value": "1", "count": 4}],
                         "min": "0", "sum": "4"},
            "oracle": {"lambda_min": 0.0, "cp": True, "agrees": True}}
    assert checker.check_report(ch, checker.CliResult(0, json.dumps(good), "")) is None
    bad = json.loads(json.dumps(good))
    bad["spectrum"]["values"] = [{"value": "0", "count": 8}, {"value": "1/2", "count": 8}]
    assert checker.check_report(ch, checker.CliResult(0, json.dumps(bad), "")) is not None


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0],
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (Path(tmp_path) / ".perfbench_out").exists()


def test_traced_compose_records_one_span_per_library_compose(tmp_path):
    pk = run.import_pcekit()
    ops = [op for op in basis(pk, random.Random(0), InputWriter(tmp_path), tiny=True)
           if op.kind == "compose"]
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(ops, run.Tally(ops), tracer, Calibration())
    finally:
        tracer.uninstall()
    assert len(ops) > 0
    assert tracer.total_calls("maps.compose") == len(ops)


def test_per_layer_counts_are_per_traced_pass(tmp_path):
    pk, _, ops = _tiny_ops(tmp_path)
    counts = []
    for passes in (1, 3):
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(passes):
                run.run_pass(ops, run.Tally(ops), tracer, Calibration())
        finally:
            tracer.uninstall()
        counts.append(tracer.layer_metrics(passes))
    for name in ("cli.calls", "maps.preserved_indices.calls", "maps.tau_bits", "gf2.rref.calls"):
        assert counts[0][name] == counts[1][name] > 0, name


def test_calibration_scales_by_the_probes_around_an_interval():
    calibration = Calibration()
    reference = calibration.reference
    calibration.at = [0.0, 1.0, 10.0, 11.0]
    calibration.took = [2 * reference, 2 * reference, reference / 2, reference / 2]
    assert calibration.seconds(0.2, 0.8) == pytest.approx(0.3)  # host at half speed
    assert calibration.seconds(10.2, 10.8) == pytest.approx(1.2)  # host at twice the speed
