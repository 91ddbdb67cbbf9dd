import json
import math

import pytest

from qsignal.cli import main

BELL_TEXT = "qubits 2\nh 1\ncnot 1 0\nmeasure 0\nmeasure 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_bit_zero(capsys):
    code, out, err = run_cli(capsys, "exact", "--bit", "0")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["experiment"] == "exact"
    assert record["bit"] == 0
    assert record["p_bob_1"] == 0.0


def test_exact_bit_one(capsys):
    code, out, _ = run_cli(capsys, "exact", "--bit", "1")
    record = json.loads(out)
    assert abs(record["p_bob_1"] - 0.5) < 1e-12


def test_exact_rejects_bad_bit(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["exact", "--bit", "2"])
    assert excinfo.value.code != 0


def test_ancilla_matches_collapse_model(capsys):
    code, out, _ = run_cli(capsys, "ancilla", "--bit", "1")
    assert code == 0
    record = json.loads(out)
    assert abs(record["p_bob_1"] - 0.5) < 1e-12
    assert record["max_abs_diff_vs_collapse"] < 1e-12


def test_block_records_parameters_and_rates(capsys):
    code, out, _ = run_cli(
        capsys, "block", "--n", "4", "--bit", "1", "--trials", "20000", "--seed", "9"
    )
    assert code == 0
    record = json.loads(out)
    assert record["n_pairs"] == 4
    assert record["trials"] == 20000
    assert record["seed"] == 9
    assert record["expected_error_rate"] == 0.0625
    assert record["count_decoded_one"] + round(record["error_rate"] * 20000) == 20000
    assert abs(record["error_rate"] - 0.0625) < 3 * math.sqrt(0.0625 * 0.9375 / 20000)


def test_block_bit_zero_has_no_false_ones(capsys):
    _, out, _ = run_cli(
        capsys, "block", "--n", "3", "--bit", "0", "--trials", "5000", "--seed", "1"
    )
    record = json.loads(out)
    assert record["count_decoded_one"] == 0
    assert record["error_rate"] == 0.0
    assert record["expected_error_rate"] == 0.0


def test_block_output_is_byte_identical_across_reruns_and_workers(capsys):
    args = ["block", "--n", "2", "--bit", "1", "--trials", "30000", "--seed", "5"]
    outputs = []
    for workers in ("1", "1", "3"):
        code, out, _ = run_cli(capsys, *args, "--workers", workers)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_block_requires_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["block", "--n", "2", "--bit", "1"])
    assert excinfo.value.code != 0


def test_block_rejects_zero_pairs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["block", "--n", "0", "--bit", "1", "--seed", "1"])
    assert excinfo.value.code != 0


def test_block_rejects_unbounded_trials(capsys):
    code, out, err = run_cli(capsys, "block", "--n", "1", "--bit", "1",
                             "--trials", "100000000000000", "--seed", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: trials must be between 1 and")


@pytest.mark.parametrize("argv, message", [
    (["block", "--n", "100000000", "--bit", "1", "--trials", "1"],
     "n_pairs must be between 1 and 65536"),
    (["block", "--n", "65536", "--bit", "1", "--trials", "65537"],
     "trials must be between 1 and 65536"),
    (["transmit", "--message", "10", "--n", "1000000000"],
     "n_pairs must be between 1 and 65536"),
])
def test_simulations_reject_unbounded_pairs(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--seed", "0")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}, got")


def test_channel_mutual_information(capsys):
    code, out, _ = run_cli(capsys, "channel", "--n", "1", "--prior", "0.5")
    assert code == 0
    record = json.loads(out)
    assert abs(record["mutual_information_bits"] - 0.3112781244591329) < 1e-12
    assert record["p_missed_one"] == 0.5
    assert record["p_false_one"] == 0.0


def test_channel_capacity(capsys):
    code, out, _ = run_cli(capsys, "channel", "--n", "10")
    record = json.loads(out)
    assert 0.994 < record["capacity_bits"] < 1.0
    assert abs(record["argmax_prior_p1"] - 0.4985487) < 1e-4


def test_channel_rejects_zero_pairs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["channel", "--n", "0"])
    assert excinfo.value.code != 0


def test_channel_rejects_prior_outside_unit_interval(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["channel", "--n", "1", "--prior", "1.5"])
    assert excinfo.value.code != 0


def test_run_reports_histogram(capsys, tmp_path):
    path = tmp_path / "pair.qc"
    path.write_text(BELL_TEXT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path), "--shots", "2000", "--seed", "3")
    assert code == 0
    rows = json.loads(out)
    assert {row["outcome"] for row in rows} == {"00", "11"}
    assert sum(row["count"] for row in rows) == 2000
    for row in rows:
        assert row["shots"] == 2000 and row["seed"] == 3


def test_run_missing_file_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "run", "no_such_file.qc", "--seed", "1")
    assert code == 1
    assert out == ""
    assert "no_such_file.qc" in err


def test_run_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 2\ncnot 0 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), "--seed", "1")
    assert code == 1
    assert out == ""
    assert "cnot operands must differ, line 2" in err


def test_run_is_byte_identical_per_seed(capsys, tmp_path):
    path = tmp_path / "pair.qc"
    path.write_text(BELL_TEXT, encoding="utf-8")
    _, first, _ = run_cli(capsys, "run", str(path), "--shots", "500", "--seed", "11")
    _, second, _ = run_cli(capsys, "run", str(path), "--shots", "500", "--seed", "11")
    assert first == second


def test_run_csv_has_header(capsys, tmp_path):
    path = tmp_path / "pair.qc"
    path.write_text(BELL_TEXT, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "run", str(path), "--shots", "100", "--seed", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "experiment,file,shots,seed,outcome,count,frequency"
    assert len(lines) >= 2


def test_transmit_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "transmit", "--message", "0110", "--n", "10", "--seed", "21"
    )
    assert code == 0
    record = json.loads(out)
    assert record["message"] == "0110"
    assert len(record["decoded"]) == 4
    assert record["decoded"] == "0110"  # n=10 redundancy; this seed decodes cleanly
    assert record["bit_errors"] == 0


def test_transmit_rejects_non_binary_message(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["transmit", "--message", "0120", "--seed", "1"])
    assert excinfo.value.code != 0


def test_csv_format_for_single_record(capsys):
    code, out, _ = run_cli(capsys, "exact", "--bit", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "experiment,bit,p_bob_0,p_bob_1"
    assert len(lines) == 2
    assert lines[1].startswith("exact,0,")


def test_format_env_var_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("QSIGNAL_FORMAT", "csv")
    _, out, _ = run_cli(capsys, "exact", "--bit", "0")
    assert out.splitlines()[0] == "experiment,bit,p_bob_0,p_bob_1"


def test_format_flag_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("QSIGNAL_FORMAT", "csv")
    _, out, _ = run_cli(capsys, "exact", "--bit", "0", "--format", "json")
    assert json.loads(out)["experiment"] == "exact"


def test_invalid_format_env_var_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("QSIGNAL_FORMAT", "xml")
    code, out, err = run_cli(capsys, "exact", "--bit", "0")
    assert code == 1
    assert out == ""
    assert "QSIGNAL_FORMAT" in err
