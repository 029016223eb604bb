"""Command-line interface behavior, formats, and exit codes."""

import io
import json
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pcekit.cli import _round12, main
from pcekit.dense import apply_pce, check_report, from_pauli_components, verify_report
from pcekit.dynamics import (
    evolve_components,
    fixed_point_components,
    process_from_json_dict,
    schedule_from_json_dict,
)
from pcekit.maps import (
    PceMap,
    choi_spectrum,
    closure,
    load_channel_document,
    subspace_to_map,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def channel_file(tmp_path):
    return write_json(
        tmp_path, "channel.json", {"n": 2, "preserved": ["00", "30", "03", "33"]}
    )


@pytest.fixture
def bad_channel_file(tmp_path):
    return write_json(
        tmp_path, "bad.json", {"n": 2, "preserved": ["00", "10", "02", "22", "32"]}
    )


def test_check_text_output(channel_file, capsys):
    code, out, _ = run_cli(["check", channel_file], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "is_pce: yes" in lines
    assert "is_channel: yes" in lines
    assert "K: 2" in lines
    assert "popcount: 4" in lines
    assert "lambda_sum: 4" in lines
    assert "oracle_agrees: yes" in lines


def test_check_json_output(channel_file, capsys):
    code, out, _ = run_cli(["--format", "json", "check", channel_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["is_channel"] is True
    assert doc["K"] == 2
    assert doc["spectrum"]["sum"] == "4"
    assert doc["oracle"]["agrees"] is True


def test_check_non_channel_reports_witness_and_exits_1(bad_channel_file, capsys):
    code, out, _ = run_cli(["check", bad_channel_file], capsys)
    assert code == 1
    assert "is_channel: no" in out
    assert "witness: 10 + 02 -> 12 (erased)" in out
    assert "lambda_min: -1/4" in out


def test_check_reads_stdin(channel_file, capsys, monkeypatch):
    payload = pathlib.Path(channel_file).read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code, out, _ = run_cli(["check", "-"], capsys)
    assert code == 0
    assert "is_channel: yes" in out


def test_check_subspace_document_beyond_bitmask_range(tmp_path, capsys):
    # A 16-qubit basis document: no bitmask or spectrum, but still a channel.
    doc = {"n": 16, "basis": ["1" + "0" * 31]}
    path = write_json(tmp_path, "big.json", doc)
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 0
    assert "is_channel: yes" in out
    assert "spectrum" not in out


# Recorded when every spectrum still came from the sign transform, so they
# pin the closed-form report to it byte for byte.  Values: (document, exit).
CHECK_GOLDEN_DOCUMENTS = {
    "basis_2": ({"n": 2, "basis": ["0101", "1010"]}, 0),
    "basis_12": (
        {
            "n": 12,
            "basis": [
                "001100110011100010000101",
                "111110100010111111101010",
                "100110011010100111000111",
                "001000001110011101111011",
                "011111011010011111100011",
                "111010111110001010101001",
                "101001011000010110101111",
            ],
        },
        0,
    ),
    "closed_3": (
        {"n": 3, "preserved": ["000", "030", "211", "221", "212", "222", "003", "033"]},
        0,
    ),
    "not_closed_2": ({"n": 2, "preserved": ["00", "10", "02", "22", "32"]}, 1),
    "not_tp_2": ({"n": 2, "preserved": ["30", "03", "33"]}, 1),
    "basis_16": (
        {
            "n": 16,
            "basis": [
                "11111010001100111001000001001001",
                "00100101101000000100110101101100",
                "00000100110101111110110001000111",
                "01011111100010101001110101010010",
                "01000100100011100000010000011111",
                "11010101101000111001001011101011",
                "10010110110101010100001001000100",
                "10100001101110011111001101010101",
                "10111110101101000110001110111000",
            ],
        },
        0,
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CHECK_GOLDEN_DOCUMENTS))
def test_check_matches_golden_files(name, fmt, tmp_path, capsys):
    doc, expected_code = CHECK_GOLDEN_DOCUMENTS[name]
    path = write_json(tmp_path, f"{name}.json", doc)
    code, out, _ = run_cli(["--format", fmt, "check", path], capsys)
    assert code == expected_code
    assert out == (GOLDEN_DIR / f"check_{name}_{fmt}.txt").read_text()


@pytest.mark.parametrize("name", sorted(CHECK_GOLDEN_DOCUMENTS))
def test_check_report_is_the_json_golden_before_rounding(name):
    doc, _ = CHECK_GOLDEN_DOCUMENTS[name]
    report = _round12(check_report(load_channel_document(doc)))
    golden = json.loads((GOLDEN_DIR / f"check_{name}_json.txt").read_text())
    assert report == golden
    assert list(report) == list(golden)


@pytest.mark.parametrize("n", [1, 2])
def test_check_zero_map_oracle_agrees(n, tmp_path, capsys):
    # The zero map erases tau_0, so it is not a channel, but its Choi matrix
    # is 0 and the oracle rightly calls it CP: the two verdicts agree.
    path = write_json(tmp_path, "zero.json", {"n": n, "preserved": []})
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 1
    lines = set(out.splitlines())
    assert {"is_channel: no", "oracle_cp: yes", "oracle_agrees: yes"} <= lines
    code, out, _ = run_cli(["--format", "json", "check", path], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["is_channel"] is False
    assert doc["oracle"] == {"lambda_min": 0.0, "cp": True, "agrees": True}


def test_check_prints_the_oracle_lambda_min_on_the_dyadic_grid(tmp_path, capsys):
    # Tau mask 51: its solved lambda_min is rounding noise near 0, which 12
    # significant digits would show.
    path = write_json(tmp_path, "mask51.json", {"n": 2, "preserved": ["00", "10", "01", "11"]})
    code, out, _ = run_cli(["check", path], capsys)
    assert code == 0
    assert "oracle_lambda_min: 0" in out.splitlines()
    code, out, _ = run_cli(["--format", "json", "check", path], capsys)
    assert code == 0
    assert '"lambda_min": 0.0,' in out


def test_check_report_snaps_lambda_min_but_judges_the_solved_value(monkeypatch):
    pce = load_channel_document({"n": 2, "preserved": ["00", "30", "03", "33"]})
    for solved, tol, reported, cp in (
        (-0.0, 1e-9, 0.0, True),
        (-5e-10, 1e-12, 0.0, False),  # printed 0, yet not CP at this --tol
        (0.2500000004, 1e-9, 0.25, True),
        (-2e-9, 1e-9, -2e-9, False),  # off the grid: printed as solved
    ):
        monkeypatch.setattr(
            "pcekit.dense._choi_min_eigenvalues", lambda n, bits: np.array([solved])
        )
        oracle = check_report(pce, tol)["oracle"]
        assert (oracle["lambda_min"], oracle["cp"], oracle["agrees"]) == (reported, cp, cp)
        assert str(oracle["lambda_min"]) == str(reported)


def test_check_reports_channel_spectra_without_the_sign_transform(
    tmp_path, capsys, monkeypatch
):
    closed = {"n": 4, "preserved": ["0000", "3000", "0110", "3110"]}
    expected = choi_spectrum(load_channel_document(closed)).value_counts()

    def refuse(vec):
        raise RuntimeError("sign_transform called")

    monkeypatch.setattr("pcekit.maps.sign_transform", refuse)
    doc, _ = CHECK_GOLDEN_DOCUMENTS["basis_12"]
    path = write_json(tmp_path, "basis_12.json", doc)
    code, out, _ = run_cli(["--format", "json", "check", path], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "check_basis_12_json.txt").read_text()

    path = write_json(tmp_path, "closed_4.json", closed)
    code, out, _ = run_cli(["--format", "json", "check", path], capsys)
    assert code == 0
    assert json.loads(out)["spectrum"]["values"] == [
        {"value": str(v), "count": c} for v, c in expected
    ]
    monkeypatch.undo()

    # A non-channel's counts are those of its full spectrum, below and above
    # the qubit count where they are counted over the preserved set's span.
    members = subspace_to_map(closure(8, [3, 4**7 + 16, 2**15 + 5])).preserved()
    for near in (
        {"n": 4, "preserved": ["0000", "3000", "0110"]},
        {"n": 8, "preserved": [m.to_string() for m in members[:-1]]},
        {"n": 8, "preserved": [m.to_string() for m in members] + ["01230123"]},
    ):
        path = write_json(tmp_path, "near.json", near)
        code, out, _ = run_cli(["--format", "json", "check", path], capsys)
        assert code == 1
        expected = choi_spectrum(load_channel_document(near)).value_counts()
        assert json.loads(out)["spectrum"]["values"] == [
            {"value": str(v), "count": c} for v, c in expected
        ]


def test_check_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(["check", "/nonexistent/channel.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_check_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["check", str(path)], capsys)
    assert code == 2
    assert "error:" in err
    # A JSON bool is not a qubit count, although Python's bool is an int.
    path = write_json(tmp_path, "bool_n.json", {"n": True, "preserved": ["0"]})
    code, out, err = run_cli(["check", path], capsys)
    assert (code, out) == (2, "")
    assert '"n" must be an integer' in err


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    nested = tmp_path / "nested.json"
    nested.write_text('{"n": 1, "preserved": [' + "[" * 5000 + "]" * 5000 + "]}")
    proc = write_json(tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]})
    sched = write_json(tmp_path, "sched.json", {"n": 1, "labels": ["3"]})
    state = write_json(tmp_path, "state.json", {"n": 1, "components": [1, 0, 0, 0]})
    for bad in (str(deep), str(nested)):
        for argv in (
            ["check", bad],
            ["decompose", bad],
            ["diagram", bad],
            ["evolve", bad, state, "1.0"],
            ["evolve", proc, bad, "1.0"],
            ["collide", bad, state],
            ["collide", sched, bad],
        ):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, ""), argv
            assert err == f"error: {bad}: JSON nested too deeply to parse\n", argv


def test_census_text(capsys):
    code, out, _ = run_cli(["census", "2"], capsys)
    assert code == 0
    assert "total 67 67" in out
    assert "symmetric: yes" in out


@pytest.mark.parametrize("n, per_K", [(1, [1, 3, 1]), (2, [1, 15, 35, 15, 1])])
def test_census_json_small_n_reports_enumeration(n, per_K, capsys):
    code, out, _ = run_cli(["--format", "json", "census", str(n)], capsys)
    assert code == 0
    doc = json.loads(out)
    counts = {str(K): c for K, c in enumerate(per_K)}
    assert (doc["per_K"], doc["enumerated"]) == (counts, counts)
    assert doc["formula_matches_enumeration"] is True


def test_census_json_large_n_formula_only(capsys):
    code, out, _ = run_cli(["--format", "json", "census", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetric"] is True
    assert "enumerated" not in doc
    assert doc["per_K"]["0"] == 1


def test_census_rejects_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "17"])
    assert exc.value.code == 2


def test_diagram_ascii_golden(channel_file, capsys):
    code, out, _ = run_cli(["diagram", channel_file], capsys)
    assert code == 0
    assert out == "#..#\n....\n....\n#..#\n"


def test_diagram_svg(channel_file, capsys):
    code, out, _ = run_cli(["diagram", channel_file, "--format", "svg"], capsys)
    assert code == 0
    assert out.startswith("<?xml")
    assert out.count("<rect") == 16


def test_diagram_refuses_the_global_json_format(channel_file, capsys):
    for argv in (["diagram", channel_file], ["diagram", channel_file, "--format", "svg"]):
        code, out, err = run_cli(["--format", "json", *argv], capsys)
        assert code == 2
        assert out == ""
        assert "its own --format ascii|svg" in err


def test_diagram_large_n_is_usage_error(tmp_path, capsys):
    docs = [
        {"n": 4, "preserved": ["0000"]},
        {"n": 4, "basis": ["00000001"]},
        # Above the bitmask limit too: the diagram limit is reported first.
        {"n": 14, "basis": ["0" * 27 + "1"]},
    ]
    for doc in docs:
        path = write_json(tmp_path, "big.json", doc)
        code, _, err = run_cli(["diagram", path], capsys)
        assert code == 2, doc
        assert "JSON" in err, err


def test_decompose_output_and_self_check(tmp_path, capsys):
    path = write_json(
        tmp_path, "ch.json", {"n": 2, "preserved": ["00", "11", "02", "13"]}
    )
    code, out, _ = run_cli(["decompose", path], capsys)
    assert code == 0
    assert out == "labels: 22 10\nrecompose check: OK\n"


def test_decompose_identity_is_empty(tmp_path, capsys):
    doc = {"n": 1, "preserved": ["0", "1", "2", "3"]}
    path = write_json(tmp_path, "id.json", doc)
    code, out, _ = run_cli(["--format", "json", "decompose", path], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 1, "labels": [], "recompose_check": "OK"}


def test_decompose_non_channel_exits_1_with_witness(bad_channel_file, capsys):
    code, _, err = run_cli(["decompose", bad_channel_file], capsys)
    assert code == 1
    assert "10 + 02" in err


def test_evolve_trajectory(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    )
    state = write_json(
        tmp_path, "state.json", {"n": 1, "components": [1.0, 0.8, 0.0, 0.6]}
    )
    code, out, _ = run_cli(["evolve", proc, state, "2.0", "--steps", "4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,alpha,r"
    data_lines = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_lines) == 5 * 4
    # The damped component decreases strictly down its column.
    x_values = [float(l.split(",")[2]) for l in data_lines if l.split(",")[1] == "1"]
    assert all(b < a for a, b in zip(x_values, x_values[1:]))
    # The protected component is constant.
    z_values = {l.split(",")[2] for l in data_lines if l.split(",")[1] == "3"}
    assert z_values == {"0.6"}
    assert lines[-1].startswith("# max_abs_distance_to_fixed_point = ")


def test_evolve_json_holds_the_csv_rows(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    )
    state = write_json(
        tmp_path, "state.json", {"n": 1, "components": [1.0, 0.8, 0.0, 0.6]}
    )
    argv = [proc, state, "2.0", "--steps", "4"]
    code, csv, _ = run_cli(["evolve", *argv], capsys)
    assert code == 0
    code, out, _ = run_cli(["--format", "json", "evolve", *argv], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["n", "t", "r", "max_abs_distance_to_fixed_point"]
    assert doc["n"] == 1 and doc["t"] == [0.0, 0.5, 1.0, 1.5, 2.0]
    lines = csv.splitlines()
    assert [f"{t:.12g},{a},{v:.12g}" for t, row in zip(doc["t"], doc["r"])
            for a, v in enumerate(row)] == lines[1:-1]
    distance = doc["max_abs_distance_to_fixed_point"]
    assert lines[-1] == f"# max_abs_distance_to_fixed_point = {distance:.12g}"


def test_evolve_streams_its_text_rows_in_slices(tmp_path, capsys, monkeypatch):
    # The size bound scaled down from 10**7 values: text keeps streaming, one
    # evolve_components call per slice, and only the JSON document is refused.
    import pcekit.cli as cli

    proc = write_json(
        tmp_path, "proc.json", {"n": 2, "terms": [{"alpha": "13", "gamma": 0.7}]}
    )
    state = write_json(
        tmp_path, "state.json", {"n": 2, "components": [1.0] + [0.25] * 15}
    )
    argv = ["evolve", proc, state, "3.0", "--steps", "7"]
    code, whole, _ = run_cli(argv, capsys)
    assert code == 0 and len(whole.splitlines()) == 2 + 8 * 16
    calls = []
    evolve = cli.evolve_components
    monkeypatch.setattr(cli, "evolve_components", lambda *a: calls.append(a) or evolve(*a))
    # At 128 the 8 rows are one slice, so JSON holds exactly the text rows.
    for limit, rows_per_call in ((128, 8), (40, 2), (10, 1)):
        monkeypatch.setattr(cli, "DEFAULT_ENUMERATION_LIMIT", limit)
        calls.clear()
        assert run_cli(argv, capsys)[:2] == (0, whole)
        assert [len(a[2]) for a in calls] == [rows_per_call] * (8 // rows_per_call)
        code, out, err = run_cli(["--format", "json", *argv], capsys)
        if rows_per_call == 8:
            assert code == 0
            doc = json.loads(out)
            assert len(doc["r"]) == 8
            assert [f"{t:.12g},{a},{v:.12g}" for t, row in zip(doc["t"], doc["r"])
                    for a, v in enumerate(row)] == whole.splitlines()[1:-1]
        else:
            assert (code, out) == (2, "")
            assert f"--steps 7 at n=2 makes 128 values; evolve's JSON holds at most {limit}" in err


def test_evolve_zero_time_echoes_initial_state(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "1", "gamma": 2.0}]}
    )
    state = write_json(
        tmp_path, "state.json", {"n": 1, "components": [1.0, 0.5, 0.25, -0.5]}
    )
    code, out, _ = run_cli(["evolve", proc, state, "0", "--steps", "2"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
    assert all(row[0] == "0" for row in rows)
    assert [row[2] for row in rows[:4]] == ["1", "0.5", "0.25", "-0.5"]
    assert out.splitlines()[-1].endswith("= 0.5")


def test_evolve_steps_must_be_at_least_1(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    )
    state = write_json(tmp_path, "state.json", {"n": 1, "components": [1, 0.5, 0, 0]})
    code, out, err = run_cli(["evolve", proc, state, "1.0", "--steps", "0"], capsys)
    assert (code, out, err) == (2, "", "error: --steps must be at least 1\n")


def test_evolve_refuses_an_overflowing_time_before_the_header(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    )
    state = write_json(tmp_path, "state.json", {"n": 1, "components": [1, 0.5, 0, 0]})
    for t, steps, message in (
        # Row t = 2 * 1e308 / 2 overflows, so no row may be printed.
        ("1e308", "2", "time * --steps must be finite"),
        # --steps is checked first, so it keeps its own message.
        ("-1.0", "-1", "--steps must be at least 1"),
    ):
        code, out, err = run_cli(["evolve", proc, state, t, "--steps", steps], capsys)
        assert (code, out) == (2, ""), (t, steps)
        assert message in err, err
    code, out, _ = run_cli(["evolve", proc, state, "1e308", "--steps", "1"], capsys)
    assert code == 0 and out.startswith("t,alpha,r\n0,0,1\n")


def test_evolve_dimension_mismatch_is_usage_error(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 2, "terms": [{"alpha": "33", "gamma": 1.0}]}
    )
    state = write_json(tmp_path, "state.json", {"n": 1, "components": [1, 0, 0, 0]})
    code, _, err = run_cli(["evolve", proc, state, "1.0"], capsys)
    assert code == 2
    assert "error:" in err


def test_evolve_malformed_numbers_are_usage_errors(tmp_path, capsys, monkeypatch):
    import pcekit.dense

    good_proc = {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    good_state = {"n": 1, "components": [1.0, 0.5, 0.0, 0.5]}
    cases = [
        ({"n": True, "terms": good_proc["terms"]}, good_state, "1.0", '"n"'),
        (good_proc, {"n": True, "components": [1, 0, 0, 0]}, "1.0", '"n"'),
        (good_proc, {"n": -1, "components": [1, 0, 0, 0]}, "1.0", '"n"'),
        (good_proc, {"n": 1, "components": [1, float("nan"), 0, 0]}, "1.0", "finite"),
        ({"n": 1, "terms": [{"alpha": "3", "gamma": "inf"}]}, good_state, "1.0", "finite"),
        ({"n": 1, "terms": [{"alpha": "3", "gamma": None}]}, good_state, "1.0", "number"),
        ({"n": 1, "terms": [{"alpha": "3", "gamma": 10**400}]}, good_state, "1.0", "number"),
        (good_proc, good_state, "nan", "finite"),
        (good_proc, good_state, "inf", "finite"),
        (good_proc, {"n": 1, "components": {}}, "1.0", '"components" must be'),
        (good_proc, {"n": 1, "components": [1, {}, 0, 0]}, "1.0", '"components" must be'),
        (good_proc, {"n": 1, "components": "1000"}, "1.0", '"components" must be'),
        (good_proc, {"n": 1, "components": [10**400, 0, 0, 0]}, "1.0", '"components" must be'),
        (good_proc, {"n": 1}, "1.0", 'state document needs exactly one of "components" or "rho"'),
        (
            good_proc,
            {"n": 1, "components": [1, 0.5, 0, 0], "rho": "junk"},
            "1.0",
            'state document needs exactly one of "components" or "rho"',
        ),
        (good_proc, {"n": 1, "rho": {"a": 1}}, "1.0", '"rho" must be'),
        (good_proc, {"n": 1, "rho": [[[1, 0], [0, 0]], [[0, 0]]]}, "1.0", '"rho" must be'),
        # JSON strings and bools are not numbers.
        (good_proc, {"n": 1, "components": ["1", True, 0, 0]}, "1.0", '"components" must be'),
        (
            good_proc,
            {"n": 1, "rho": [[["0.5", 0], [0, False]], [[0, 0], [0.5, 0]]]},
            "1.0",
            '"rho" must be',
        ),
        ({"terms": [{"alpha": 3, "gamma": True}]}, good_state, "1.0", '"gamma" must be'),
        ({"terms": [{"alpha": "3", "gamma": True}]}, good_state, "1.0", "finite number"),
        ({"terms": [{"alpha": "3", "gamma": "1"}]}, good_state, "1.0", "finite number"),
        # Each rate is finite, but they add up to inf: Y, which anticommutes
        # with both terms, would decay at an infinite rate.
        (
            {"terms": [{"alpha": "1", "gamma": 1e308}, {"alpha": "3", "gamma": 1e308}]},
            good_state,
            "1.0",
            "the rates must add up to a finite number",
        ),
        # States must be density matrices: unit trace, positive semidefinite
        # up to the state limit, and beyond it |r_f| <= 1 and purity <= 1.
        (good_proc, {"n": 1, "rho": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]}, "1.0", "unit trace"),
        (good_proc, {"n": 1, "rho": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}, "1.0", "unit trace"),
        (good_proc, {"n": 1, "components": [1, 0.8, 0, 0.8]}, "1.0", "positive semidefinite"),
        # Qubit 1's Bloch vector has length 1.56; |r_f| and purity pass.
        (
            {"n": 6, "terms": [{"alpha": "300000", "gamma": 1.0}]},
            {"n": 6, "components": [1, 0.9, 0.9, 0.9] + [0] * 4092},
            "1.0",
            "state is not positive semidefinite",
        ),
    ]
    heuristic_cases = [
        (good_proc, {"n": 6, "components": [1, 2] + [0] * 4094}, "1.0", "|r_f| <= 1"),
        (good_proc, {"n": 6, "components": [1] + [0.5] * 4095}, "1.0", "purity <= 1"),
    ]

    def refused(cases):
        for proc_doc, state_doc, t, message in cases:
            proc = write_json(tmp_path, "proc.json", proc_doc)
            state = write_json(tmp_path, "state.json", state_doc)
            code, out, err = run_cli(["evolve", proc, state, t], capsys)
            assert (code, out) == (2, ""), (proc_doc, state_doc, t)
            assert message in err, err

    refused(cases)
    # The |r_f| and purity checks past STATE_QUBIT_LIMIT, reached at n = 6
    # with the limit lowered to 5.
    monkeypatch.setattr(pcekit.dense, "STATE_QUBIT_LIMIT", 5)
    refused(heuristic_cases)


def test_collide_malformed_schedule_is_usage_error(tmp_path, capsys):
    good_sched = {"n": 1, "labels": ["3"]}
    good_state = {"n": 1, "components": [1, 0, 0, 0]}
    for fmt, sched_doc, state_doc, message in (
        ("text", {"n": True, "labels": ["3"]}, good_state, '"n" must be an integer'),
        ("text", {"n": True, "labels": []}, good_state, '"n" must be an integer'),
        ("text", {"labels": [3]}, good_state, "not a base-4 digit string: 3"),
        ("text", {"n": 1, "labels": ["3", True]}, good_state, "not a base-4 digit string: True"),
        ("text", good_sched, {"n": 1, "components": [1, 5, 0, 0]}, "positive semidefinite"),
        ("text", good_sched, {"n": 1, "components": [0.5, 0, 0, 0]}, "unit trace"),
        # Qubit 1's Bloch vector has length 1.56; |r_f| and purity pass.
        (
            "text",
            {"n": 6, "labels": ["300000"]},
            {"n": 6, "components": [1, 0.9, 0.9, 0.9] + [0] * 4092},
            "state is not positive semidefinite",
        ),
        ("text", {"n": 2, "labels": ["33"]}, good_state, "state has n=1 but schedule has n=2"),
        (
            "text",
            good_sched,
            {"n": 1, "components": [1, 0, 0, 0], "rho": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            'state document needs exactly one of "components" or "rho"',
        ),
        # The JSON document is a density matrix, which stops at the state limit.
        (
            "json",
            {"n": 11, "labels": ["1" * 11]},
            {"n": 11, "components": [1] + [0] * (4**11 - 1)},
            "a dense matrix needs 1 <= n <= 10, got n=11",
        ),
    ):
        sched = write_json(tmp_path, "sched.json", sched_doc)
        state = write_json(tmp_path, "state.json", state_doc)
        code, out, err = run_cli(["--format", fmt, "collide", sched, state], capsys)
        assert (code, out) == (2, ""), (sched_doc, state_doc)
        assert message in err


def test_collide_builds_the_state_matrix_once(tmp_path, capsys, monkeypatch):
    import pcekit.cli
    import pcekit.dense

    builds = []
    original = pcekit.dense.from_pauli_components

    def counting(r):
        builds.append(len(r))
        return original(r)

    for module in (pcekit.cli, pcekit.dense):
        monkeypatch.setattr(module, "from_pauli_components", counting, raising=False)
    sched = write_json(tmp_path, "sched.json", {"n": 2, "labels": ["31", "02"]})
    state = write_json(
        tmp_path, "state.json", {"n": 2, "components": [1.0] + [0.1] * 15}
    )
    code, out, _ = run_cli(["collide", sched, state], capsys)
    assert code == 0 and out.startswith("n: 2\n")
    assert builds == [16]


@pytest.mark.parametrize("n", [5, 6])
def test_collide_text_runs_past_the_dense_limit_with_exact_values(tmp_path, capsys, n):
    # Z on qubit 1 keeps Z1 (index 3) and erases X1 (index 1) and every
    # component the state does not hold.
    sched = write_json(tmp_path, "sched.json", {"n": n, "labels": ["3" + "0" * (n - 1)]})
    state = write_json(
        tmp_path, "state.json", {"n": n, "components": [1, 0.5, 0, 0.5] + [0] * (4**n - 4)}
    )
    code, out, _ = run_cli(["collide", sched, state], capsys)
    assert code == 0
    values = ["1", "0", "0", "0.5"] + ["0"] * (4**n - 4)
    assert out == f"n: {n}\n" + "".join(f"{a} {v}\n" for a, v in enumerate(values))


def seeded_components(rng, n):
    """A unit-trace state's components over many magnitudes, with signed
    zeros among them.  The components off 0 add up to 0.9 in absolute value,
    so every eigenvalue is at least 0.1 / 2**n."""
    r = rng.uniform(-1, 1, 4**n) * 10.0 ** rng.uniform(-9, 0, 4**n)
    r *= 0.9 / np.abs(r[1:]).sum()
    r[0] = 1.0
    r[2::7] = -0.0
    r[3::11] = 0.0
    return r


def random_labels(rng, n, count):
    return ["".join(rng.choice(list("0123"), n)) for _ in range(count)]


@pytest.mark.parametrize("n, steps", [(1, 20), (2, 5), (3, 3), (4, 2), (5, 2), (9, None)])
def test_evolve_and_collide_text_equal_one_f_string_per_value(tmp_path, capsys, n, steps):
    # The expected text is built from the library's own answers, one
    # f-string per value.  It is compared as text and not pinned by a digest:
    # exp may differ by an ulp between numpy builds.
    rng = np.random.default_rng(2025 + n)
    r0 = seeded_components(rng, n)
    state = write_json(tmp_path, "state.json", {"n": n, "components": r0.tolist()})
    sched_doc = {"n": n, "labels": random_labels(rng, n, int(rng.integers(0, 4)))}
    sched = write_json(tmp_path, "sched.json", sched_doc)
    code, out, _ = run_cli(["collide", sched, state], capsys)
    r = fixed_point_components(schedule_from_json_dict(sched_doc), r0)
    assert code == 0
    assert out == f"n: {n}\n" + "".join(f"{a} {v:.12g}\n" for a, v in enumerate(r.tolist()))
    if steps is None:
        return
    proc_doc = {
        "terms": [
            {"alpha": alpha, "gamma": float(rng.uniform(0.05, 4.0))}
            for alpha in random_labels(rng, n, 3)
        ]
    }
    proc = write_json(tmp_path, "proc.json", proc_doc)
    code, out, _ = run_cli(["evolve", proc, state, "2.5", "--steps", str(steps)], capsys)
    process = process_from_json_dict(proc_doc)
    times = 2.5 * np.arange(steps + 1) / steps
    rows = evolve_components(process, r0, times)
    distance = float(np.abs(rows[-1] - fixed_point_components(process, r0)).max())
    expected = "".join(
        f"{t:.12g},{a},{v:.12g}\n"
        for t, row in zip(times.tolist(), rows.tolist())
        for a, v in enumerate(row)
    )
    assert code == 0
    assert out == (
        f"t,alpha,r\n{expected}# max_abs_distance_to_fixed_point = {distance:.12g}\n"
    )


def test_tol_reaches_the_hermiticity_check_of_rho_states(tmp_path, capsys):
    # Off-diagonal entries differ by 1e-6i: Hermitian within 1e-3, not 1e-9.
    rho = [[[0.5, 0], [0.1, 1e-6]], [[0.1, 0], [0.5, 0]]]
    state = write_json(tmp_path, "state.json", {"n": 1, "rho": rho})
    proc = write_json(
        tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    )
    sched = write_json(tmp_path, "sched.json", {"n": 1, "labels": ["3"]})
    for command in (["evolve", proc, state, "1.0"], ["collide", sched, state]):
        code, out, _ = run_cli(["--tol", "1e-3", *command], capsys)
        assert code == 0 and out, command
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, ""), command
        assert "not Hermitian within tolerance" in err


def test_evolve_accepts_density_matrix_state(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    )
    rho = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    state = write_json(tmp_path, "state.json", {"n": 1, "rho": rho})
    code, out, _ = run_cli(["evolve", proc, state, "1.0"], capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith("= 0")


def test_collide_text_and_json(tmp_path, capsys):
    sched = write_json(tmp_path, "sched.json", {"n": 1, "labels": ["3"]})
    state = write_json(
        tmp_path, "state.json", {"n": 1, "components": [1.0, 0.8, 0.0, 0.6]}
    )
    code, out, _ = run_cli(["collide", sched, state], capsys)
    assert code == 0
    assert out == "n: 1\n0 1\n1 0\n2 0\n3 0.6\n"
    code, out, _ = run_cli(["--format", "json", "collide", sched, state], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 1
    assert doc["rho"][0][0] == [0.8, 0.0]
    assert doc["rho"][1][1] == [0.2, 0.0]


def test_collide_json_runs_to_the_state_limit(tmp_path, capsys):
    n = 6
    rng = np.random.default_rng(6)
    r0 = seeded_components(rng, n)
    sched_doc = {"n": n, "labels": ["300000", "003100"]}
    sched = write_json(tmp_path, "sched.json", sched_doc)
    state = write_json(tmp_path, "state.json", {"n": n, "components": r0.tolist()})
    code, out, _ = run_cli(["--format", "json", "collide", sched, state], capsys)
    assert code == 0
    rho = from_pauli_components(fixed_point_components(schedule_from_json_dict(sched_doc), r0))
    expected = np.stack((rho.real, rho.imag), axis=-1).tolist()
    assert json.loads(out) == {"n": n, "rho": _round12(expected)}


def test_no_command_builds_the_pauli_table(tmp_path, capsys, monkeypatch):
    import pcekit
    import pcekit.dense
    import pcekit.pauli

    def refuse(n):
        raise AssertionError(f"pauli_basis({n}) was built")

    for module in (pcekit, pcekit.pauli, pcekit.dense):
        monkeypatch.setattr(module, "pauli_basis", refuse, raising=False)
    sched = write_json(tmp_path, "sched.json", {"n": 5, "labels": ["30000", "01300"]})
    state = write_json(
        tmp_path, "state.json", {"n": 5, "components": [1] + [0.9 / 1023] * 1023}
    )
    code, out, _ = run_cli(["--format", "json", "collide", sched, state], capsys)
    assert code == 0 and len(json.loads(out)["rho"]) == 32
    rho = _round12(np.stack((np.eye(8) / 8, np.zeros((8, 8))), axis=-1).tolist())
    rho[0][4] = rho[4][0] = [0.05, 0.0]  # X on qubit 1, the leftmost factor
    state = write_json(tmp_path, "rho.json", {"n": 3, "rho": rho})
    proc = write_json(tmp_path, "proc.json", {"terms": [{"alpha": "301", "gamma": 1.0}]})
    code, out, _ = run_cli(["evolve", proc, state, "1.0", "--steps", "2"], capsys)
    assert code == 0 and out.startswith("t,alpha,r\n0,0,1\n0,1,0.1\n")
    masked = apply_pce(PceMap.from_preserved(2, [0, 3]), np.diag([0.5, 0.5, 0, 0]))
    assert masked.tolist() == [1, 0, 0, 1] + [0] * 12


def test_text_rows_written_in_slices_equal_one_row_at_once(tmp_path, capsys, monkeypatch):
    import pcekit.cli as cli

    rng = np.random.default_rng(11)
    r0 = seeded_components(rng, 3)
    state = write_json(tmp_path, "state.json", {"n": 3, "components": r0.tolist()})
    proc = write_json(tmp_path, "proc.json", {"terms": [{"alpha": "130", "gamma": 0.4}]})
    sched = write_json(tmp_path, "sched.json", {"n": 3, "labels": ["102"]})
    commands = (["evolve", proc, state, "2.0", "--steps", "3"], ["collide", sched, state])
    whole = [run_cli(argv, capsys) for argv in commands]
    assert all(code == 0 for code, _, _ in whole)
    for row_slice in (1, 7, 64):
        monkeypatch.setattr(cli, "_ROW_SLICE", row_slice)
        assert [run_cli(argv, capsys) for argv in commands] == whole


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_text_rows_hold_one_slice_at_a_time(monkeypatch):
    import pcekit.cli as cli

    class Sink:
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    row = np.linspace(-1, 1, 1 << 16)
    peaks = {}
    for row_slice in (1 << 8, 1 << 16):
        monkeypatch.setattr(cli, "_ROW_SLICE", row_slice)
        peaks[row_slice] = _traced_peak(lambda: cli._write_indexed_lines("%d %.12g\n", row))
    # The whole row at once holds its floats, the items and the text (7 MB).
    assert peaks[1 << 8] < 1 << 18 and 20 * peaks[1 << 8] < peaks[1 << 16]


def test_collide_json_matrix_is_json_dumps_written_a_row_at_a_time(monkeypatch, capsys):
    import pcekit.cli as cli

    rng = np.random.default_rng(29)
    for dim in (2, 8, 64):
        matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        matrix[0, :2] = [-0.0, 1e-300 - 0.0j]  # -0.0, and a value printed in e-notation
        matrix[-1, -1] = 1 / 3 + 2e17j  # rounded to 12 digits, and past 1e16
        n = dim.bit_length() - 1
        rho = np.stack((matrix.real, matrix.imag), -1)
        cli._emit_json({"n": n, "rho": rho})
        expected = json.dumps(_round12({"n": n, "rho": rho.tolist()}), indent=2)
        assert capsys.readouterr().out == expected + "\n"

    class Sink:
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    peaks = {}
    for dim in (32, 256):
        rho = rng.normal(size=(dim, dim, 2))
        peaks[dim] = _traced_peak(lambda: cli._emit_json({"n": 8, "rho": rho}))
    # At most a slice of 2**16 values at a time: the whole 32 x 32 matrix, or
    # one row of the 256 x 256 one.  The whole document held about 30 MB at
    # dim = 256.
    assert peaks[256] < 12 * peaks[32] and peaks[256] < 1 << 20


def test_evolve_json_is_json_dumps_written_a_slice_at_a_time(tmp_path, capsys, monkeypatch):
    import pcekit.cli as cli

    rng = np.random.default_rng(30)
    r0 = seeded_components(rng, 3)
    state = write_json(tmp_path, "state.json", {"n": 3, "components": r0.tolist()})
    terms = [{"alpha": "130", "gamma": 0.4}, {"alpha": "021", "gamma": 1.5}]
    proc_doc = {"terms": terms}
    argv = ["--format", "json", "evolve", write_json(tmp_path, "p.json", proc_doc), state, "2.0"]
    argv += ["--steps", "5"]
    proc = process_from_json_dict(proc_doc)
    times = 2.0 * np.arange(6) / 5
    rows = evolve_components(proc, r0, times)
    distance = float(np.abs(rows[-1] - fixed_point_components(proc, r0)).max())
    doc = {"n": 3, "t": times.tolist(), "r": rows.tolist()}
    doc["max_abs_distance_to_fixed_point"] = distance
    whole = (0, json.dumps(_round12(doc), indent=2) + "\n", "")
    assert run_cli(argv, capsys) == whole
    # A slice of one value, part rows, whole rows, and the whole array.
    for row_slice in (1, 7, 64, 384):
        monkeypatch.setattr(cli, "_ROW_SLICE", row_slice)
        assert run_cli(argv, capsys) == whole

    class Sink:
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    rows = np.linspace(-1, 1, 1 << 16).reshape(4, -1)
    peaks = {}
    for row_slice in (1 << 8, 1 << 16):
        monkeypatch.setattr(cli, "_ROW_SLICE", row_slice)
        peaks[row_slice] = _traced_peak(lambda: cli._emit_json({"n": 8, "r": rows}))
    # The whole array at once holds its rounded floats and its text (about 10 MB).
    assert peaks[1 << 8] < 1 << 18 and 20 * peaks[1 << 8] < peaks[1 << 16]


def test_verify_report_holds_one_chunk_of_masks_at_a_time(monkeypatch):
    import pcekit.dense as dense

    verify_report(2, [1])  # the oracle's cached block table, before tracing
    monkeypatch.setattr(dense, "VERIFY_CHUNK", 1024)
    peaks = {}
    for count in (2048, 32768):
        masks = (2 * (i * 7919 % 2**15) + 1 for i in range(count))
        peaks[count] = _traced_peak(lambda: verify_report(2, masks))
    # Read all at once, 32,768 masks peak about twice as high as 2,048.
    assert peaks[32768] < 1.1 * peaks[2048]


def test_verify_in_shrunk_chunks_gives_the_one_chunk_counts(monkeypatch, capsys):
    import pcekit.cli as cli
    import pcekit.dense as dense

    argvs = [
        ["--format", fmt, "--seed", "3", "verify", "3", "--samples", "200"]
        for fmt in ("text", "json")
    ]
    whole = [run_cli(argv, capsys) for argv in argvs]
    batches = []
    closed_flags = dense._closed_flags
    monkeypatch.setattr(
        dense, "_closed_flags", lambda n, bits: batches.append(len(bits)) or closed_flags(n, bits)
    )
    for module in (cli, dense):
        monkeypatch.setattr(module, "VERIFY_CHUNK", 64)
    assert [run_cli(argv, capsys) for argv in argvs] == whole
    assert batches == [64, 64, 64, 8] * 2


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_sampled_masks_drawn_in_chunks_equal_one_draw(seed):
    import pcekit.cli as cli

    for count in (1, 250, 65536, 65537, 300000):
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        assert list(cli._sampled_masks(seed, count)) == [int(d) | 1 for d in draws]


def test_verify_exhaustive_single_qubit(capsys):
    code, out, _ = run_cli(["verify", "1", "--exhaustive"], capsys)
    assert code == 0
    assert "maps checked: 8" in out
    assert "cp (symbolic): 5" in out
    assert "cp (oracle): 5" in out
    assert "verdict: PASS" in out


def test_verify_sampled_three_qubits_json(capsys):
    code, out, _ = run_cli(
        ["--format", "json", "--seed", "5", "verify", "3", "--samples", "200"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["maps_checked"] == 200
    assert doc["disagreements"] == 0
    assert doc["verdict"] == "PASS"
    assert "seed 5" in doc["mode"]


def test_verify_decides_every_mask_in_one_batched_call(monkeypatch, capsys):
    import pcekit.dense as dense
    import pcekit.maps as maps

    calls = {"batches": 0, "masks": 0, "maps": 0, "checks": 0, "decoded": 0}
    closed_flags, set_pce = maps._closed_flags, maps._set_pce
    check_tau, unpack = maps._check_tau, maps._unpack

    def counting_closed_flags(n, bits):
        calls["batches"] += 1
        calls["masks"] += len(bits)
        return closed_flags(n, bits)

    def counting_set_pce(pce, n, packed):  # every PceMap constructor fills its slots here
        calls["maps"] += 1
        set_pce(pce, n, packed)

    def counting_check_tau(n, tau):
        calls["checks"] += 1
        return check_tau(n, tau)

    def counting_unpack(n, packed):  # the one bytes-to-bits step
        bits = unpack(n, packed)
        calls["decoded"] += len(bits)
        return bits

    monkeypatch.setattr(dense, "_closed_flags", counting_closed_flags)
    monkeypatch.setattr(maps, "_set_pce", counting_set_pce)
    monkeypatch.setattr(maps, "_check_tau", counting_check_tau)
    monkeypatch.setattr(maps, "_unpack", counting_unpack)
    for argv, count in ((["verify", "2"], 2**15), (["verify", "3", "--samples", "50"], 50)):
        calls.update(batches=0, masks=0, maps=0, checks=0, decoded=0)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert f"maps checked: {count}" in out
        # Each mask is checked once, where it enters the library, and
        # decoded once, with no PceMap built.
        assert calls == {"batches": 1, "masks": count, "maps": 0, "checks": count, "decoded": count}


def test_verify_mode_restrictions(capsys):
    code, _, err = run_cli(["verify", "3", "--exhaustive"], capsys)
    assert code == 2
    code, _, err = run_cli(["verify", "1", "--samples", "10"], capsys)
    assert code == 2
    code, _, err = run_cli(["verify", "2", "--exhaustive", "--samples", "5"], capsys)
    assert code == 2
    for samples, message in (
        ("-5", "--samples must be at least 1"),
        ("0", "--samples must be at least 1"),
        # Refused before any draw, so nothing near 7 TiB is allocated.
        ("1000000000000", "--samples must be at most 10000000"),
        ("10000001", "--samples must be at most 10000000"),
    ):
        code, out, err = run_cli(["verify", "3", "--samples", samples], capsys)
        assert (code, out) == (2, "")
        assert message in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_tolerance_must_be_nonnegative_and_finite(capsys):
    for tol in ("nan", "inf", "-1e-9"):
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "verify", "1"])
        assert exc.value.code == 2
        assert "nonnegative and finite" in capsys.readouterr().err


def test_tolerance_must_be_above_rounding_noise(capsys):
    # Channels' dense lambda_min reaches about -1.5e-15 in rounding noise.
    for tol in ("0", "1e-16", "9.9e-13"):
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "verify", "2"])
        assert exc.value.code == 2
        assert f"must be at least 1e-12, above the dense solvers' rounding noise, got {tol}" in (
            capsys.readouterr().err
        )
    code, out, _ = run_cli(["--tol", "1e-12", "verify", "2"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "verdict: PASS")


def test_seed_must_be_a_nonnegative_integer(capsys):
    for seed in ("-1", "1.5", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", seed, "verify", "3", "--samples", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be a nonnegative integer, got {seed}" in err
    code, out, _ = run_cli(["--seed", "0", "verify", "3", "--samples", "5"], capsys)
    assert (code, "seed 0" in out) == (0, True)


def test_reruns_are_byte_identical(channel_file, capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(["--format", "json", "check", channel_file], capsys)
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(["diagram", channel_file, "--format", "svg"], capsys)
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_diagram_matches_golden_files(tmp_path, capsys):
    cases = {
        "identity_1.txt": {"n": 1, "preserved": ["0", "1", "2", "3"]},
        "dephasing_1.txt": {"n": 1, "preserved": ["0", "3"]},
        "depolarizing_1.txt": {"n": 1, "preserved": ["0"]},
        "erase_x_1.txt": {"n": 1, "preserved": ["0", "2", "3"]},
        "depolarizing_2.txt": {"n": 2, "preserved": ["00"]},
        "four_component_2.txt": {"n": 2, "preserved": ["00", "11", "02", "13"]},
        "gen_x1_2.txt": {
            "n": 2,
            "preserved": ["00", "10", "01", "11", "02", "12", "03", "13"],
        },
        "gen_z1y2_2.txt": {
            "n": 2,
            "preserved": ["00", "30", "02", "32", "11", "21", "13", "23"],
        },
        "gen_y1y2_2.txt": {
            "n": 2,
            "preserved": ["00", "20", "02", "22", "11", "31", "13", "33"],
        },
        "identity_2.txt": {
            "n": 2,
            "preserved": [f"{a}{b}" for a in "0123" for b in "0123"],
        },
    }
    for name, doc in cases.items():
        path = write_json(tmp_path, name.replace(".txt", ".json"), doc)
        code, out, _ = run_cli(["diagram", path], capsys)
        assert code == 0
        assert out == (GOLDEN_DIR / name).read_text(), name


NESTED_3 = {
    "n": 3,
    "preserved": ["000", "100", "010", "001", "123", "321", "213", "332", "031"],
}
DIAGRAM_GOLDEN_DOCUMENTS = {
    "svg_1": ({"n": 1, "preserved": ["0", "2", "3"]}, "svg"),
    "svg_2": (
        {"n": 2, "preserved": ["00", "30", "02", "32", "11", "21", "13", "23"]},
        "svg",
    ),
    "svg_3": (NESTED_3, "svg"),
    "ascii_3": (NESTED_3, "ascii"),
}


@pytest.mark.parametrize("name", sorted(DIAGRAM_GOLDEN_DOCUMENTS))
def test_diagram_svg_and_nested_grid_match_golden_files(name, tmp_path, capsys):
    doc, diagram_format = DIAGRAM_GOLDEN_DOCUMENTS[name]
    path = write_json(tmp_path, f"{name}.json", doc)
    code, out, _ = run_cli(["diagram", path, "--format", diagram_format], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / f"diagram_{name}.txt").read_text()


def test_main_uses_the_parser_built_at_import(channel_file, capsys, monkeypatch):
    # The parser is built once per process; a call that rebuilt it would raise.
    def rebuild():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr("pcekit.cli.build_parser", rebuild)
    code, out, _ = run_cli(["check", channel_file], capsys)
    assert (code, "is_channel: yes" in out) == (0, True)


def test_shared_parser_carries_no_state_between_calls(channel_file, capsys):
    # Each call in one process matches a fresh process on the same argv, so a
    # flag or a refused parse does not leak into the call after it.
    sequence = [
        ["--format", "json", "--seed", "5", "verify", "3", "--samples", "20"],
        ["verify", "3", "--samples", "20"],
        ["diagram", channel_file, "--format", "svg"],
        ["diagram", channel_file],
        ["--tol", "-1", "check", channel_file],
        ["check", channel_file],
    ]
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "pcekit", *argv], capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv
    assert code == 0


def test_module_entry_point_subprocess(tmp_path):
    path = write_json(
        tmp_path, "ch.json", {"n": 1, "preserved": ["0", "3"]}
    )
    result = subprocess.run(
        [sys.executable, "-m", "pcekit", "--format", "json", "check", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["is_channel"] is True
    result = subprocess.run(
        [sys.executable, "-m", "pcekit", "diagram", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.stdout == "#\n.\n.\n#\n"
