"""Command-line interface behavior, formats, and exit codes."""

import io
import json
import pathlib
import subprocess
import sys

import pytest

from pcekit.cli import main
from pcekit.maps import choi_spectrum, load_channel_document

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


def test_check_reports_channel_spectra_without_the_sign_transform(
    tmp_path, capsys, monkeypatch
):
    def refuse(pce):
        raise RuntimeError("choi_spectrum called")

    monkeypatch.setattr("pcekit.cli.choi_spectrum", refuse)
    doc, _ = CHECK_GOLDEN_DOCUMENTS["basis_12"]
    path = write_json(tmp_path, "basis_12.json", doc)
    code, out, _ = run_cli(["--format", "json", "check", path], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "check_basis_12_json.txt").read_text()

    closed = {"n": 4, "preserved": ["0000", "3000", "0110", "3110"]}
    path = write_json(tmp_path, "closed_4.json", closed)
    code, out, _ = run_cli(["--format", "json", "check", path], capsys)
    assert code == 0
    expected = choi_spectrum(load_channel_document(closed)).value_counts()
    assert json.loads(out)["spectrum"]["values"] == [
        {"value": str(v), "count": c} for v, c in expected
    ]

    near = {"n": 4, "preserved": ["0000", "3000", "0110"]}
    path = write_json(tmp_path, "near_4.json", near)
    with pytest.raises(RuntimeError, match="choi_spectrum called"):
        main(["check", path])


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


def test_census_text(capsys):
    code, out, _ = run_cli(["census", "2"], capsys)
    assert code == 0
    assert "total 67 67" in out
    assert "symmetric: yes" in out


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


def test_diagram_large_n_is_usage_error(tmp_path, capsys):
    path = write_json(tmp_path, "big.json", {"n": 4, "preserved": ["0000"]})
    code, _, err = run_cli(["diagram", path], capsys)
    assert code == 2
    assert "JSON" in err


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


def test_evolve_dimension_mismatch_is_usage_error(tmp_path, capsys):
    proc = write_json(
        tmp_path, "proc.json", {"n": 2, "terms": [{"alpha": "33", "gamma": 1.0}]}
    )
    state = write_json(tmp_path, "state.json", {"n": 1, "components": [1, 0, 0, 0]})
    code, _, err = run_cli(["evolve", proc, state, "1.0"], capsys)
    assert code == 2
    assert "error:" in err


def test_evolve_malformed_numbers_are_usage_errors(tmp_path, capsys):
    good_proc = {"n": 1, "terms": [{"alpha": "3", "gamma": 1.0}]}
    good_state = {"n": 1, "components": [1.0, 0.5, 0.0, 0.5]}
    cases = [
        ({"n": True, "terms": good_proc["terms"]}, good_state, "1.0", '"n"'),
        (good_proc, {"n": True, "components": [1, 0, 0, 0]}, "1.0", '"n"'),
        (good_proc, {"n": -1, "components": [1, 0, 0, 0]}, "1.0", '"n"'),
        (good_proc, {"n": 1, "components": [1, float("nan"), 0, 0]}, "1.0", "finite"),
        ({"n": 1, "terms": [{"alpha": "3", "gamma": "inf"}]}, good_state, "1.0", "finite"),
        ({"n": 1, "terms": [{"alpha": "3", "gamma": None}]}, good_state, "1.0", "number"),
        (good_proc, good_state, "nan", "finite"),
        (good_proc, good_state, "inf", "finite"),
    ]
    for proc_doc, state_doc, t, message in cases:
        proc = write_json(tmp_path, "proc.json", proc_doc)
        state = write_json(tmp_path, "state.json", state_doc)
        code, out, err = run_cli(["evolve", proc, state, t], capsys)
        assert (code, out) == (2, ""), (proc_doc, state_doc, t)
        assert message in err, err


def test_collide_malformed_schedule_is_usage_error(tmp_path, capsys):
    state = write_json(tmp_path, "state.json", {"n": 1, "components": [1, 0, 0, 0]})
    for doc in ({"n": True, "labels": ["3"]}, {"n": True, "labels": []}):
        sched = write_json(tmp_path, "sched.json", doc)
        code, out, err = run_cli(["collide", sched, state], capsys)
        assert (code, out) == (2, ""), doc
        assert '"n" must be an integer' in err


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


def test_verify_mode_restrictions(capsys):
    code, _, err = run_cli(["verify", "3", "--exhaustive"], capsys)
    assert code == 2
    code, _, err = run_cli(["verify", "1", "--samples", "10"], capsys)
    assert code == 2
    code, _, err = run_cli(["verify", "2", "--exhaustive", "--samples", "5"], capsys)
    assert code == 2
    for samples in ("-5", "0"):
        code, out, err = run_cli(["verify", "3", "--samples", samples], capsys)
        assert (code, out) == (2, "")
        assert "--samples must be at least 1" in err


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
