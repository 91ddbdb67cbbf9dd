import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsignal
from qsignal import cli, dsl, execute, load
from qsignal.cli import main

BELL_TEXT = "qubits 2\nh 1\ncnot 1 0\nmeasure 0\nmeasure 1\n"
BELL = str(Path(__file__).resolve().parent.parent / "circuits" / "bell.qc")
MIXED12 = str(Path(__file__).resolve().parent / "golden" / "mixed12.qc")


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
    (["transmit", "--message", "1" * 65537, "--n", "1"],
     "message must have between 1 and 65536 bits"),
    (["block", "--n", "1", "--bit", "1", "--trials", "10", "--workers", "65"],
     "workers must be between 1 and 64"),
    (["run", BELL, "--shots", "4294967297"],
     "shots must be between 1 and 4294967296"),
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
    # far past the smallest float the miss probability is 0.0, not an overflow
    code, out, err = run_cli(capsys, "channel", "--n", "1" + "0" * 400)
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["n_pairs"] == 10**400
    assert record["p_missed_one"] == 0.0
    assert record["capacity_bits"] == 1.0


def test_channel_rejects_zero_pairs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["channel", "--n", "0"])
    assert excinfo.value.code != 0


def test_channel_rejects_prior_outside_unit_interval(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["channel", "--n", "1", "--prior", "1.5"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("argv", [
    ["block", "--n", "1", "--bit", "1"],
    ["run", BELL],
    ["transmit", "--message", "1"],
])
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--seed", "-1"])
    assert excinfo.value.code == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["block", "--n", "abc", "--bit", "1", "--seed", "0"], "--n"),
    (["block", "--n", "1", "--bit", "1", "--seed", "0", "--trials", "1e3"], "--trials"),
    (["channel", "--n", "1", "--prior", "x"], "--prior"),
    (["run", BELL, "--seed", "0", "--shots", "many"], "--shots"),
])
def test_bad_values_name_the_flag_not_a_private_function(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert f"argument {flag}: invalid " in err
    assert not re.search(r"\b_\w", err), err


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


def test_run_counts_outcomes_wider_than_a_machine_word(capsys, tmp_path):
    # 65 random bits per shot: a histogram keyed on 64-bit packed integers would merge or
    # truncate outcomes
    path = tmp_path / "wide.qc"
    path.write_text("qubits 1\n" + "h 0\nmeasure 0\n" * 65, encoding="utf-8")
    code, out, _ = run_cli(capsys, "run", str(path), "--shots", "300", "--seed", "4")
    assert code == 0
    records = execute(load(path), 300, np.random.default_rng(4))
    expected = Counter("".join(str(m.bit) for m in r.measurement_outcomes) for r in records)
    assert {row["outcome"]: row["count"] for row in json.loads(out)} == expected
    assert {len(outcome) for outcome in expected} == {65}


def test_run_without_measurements_evolves_no_state(capsys, tmp_path):
    # one 20-qubit state is 8 MiB of float64 amplitudes; none is allocated
    path = tmp_path / "ghz.qc"
    path.write_text("qubits 20\nh 0\n" + "".join(f"cnot {q - 1} {q}\n" for q in range(1, 20)),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", str(path), "--shots", "100000", "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert json.loads(out) == []
    assert peak < 4 << 20


def test_run_sorts_no_records(capsys, monkeypatch):
    # records are counted as coin patterns, so no row sort runs
    def refused(*args, **kwargs):
        raise AssertionError("numpy.unique called")
    monkeypatch.setattr(np, "unique", refused)
    for path in (BELL, MIXED12):
        code, out, err = run_cli(capsys, "run", path, "--shots", "60000", "--seed", "2")
        assert code == 0 and err == ""
        assert sum(row["count"] for row in json.loads(out)) == 60000


@pytest.mark.parametrize("text, shots", [
    # 64 determined bits and no coin: every shot counts under the empty pattern
    ("qubits 2\nx 0\n" + "measure 0\nmeasure 1\n" * 32, 100_000),
    # one coin: a list or a record per shot, or per shot of one 131072-shot
    # batch, would exceed the budget
    (BELL_TEXT, 1_000_000),
], ids=["no-coins", "bell"])
def test_run_holds_no_per_shot_records(capsys, tmp_path, text, shots):
    # a batch's 2 MiB of uniforms is freed before the next is drawn
    path = tmp_path / "circuit.qc"
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "run", str(path), "--shots", str(shots), "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert sum(row["count"] for row in json.loads(out)) == shots
    assert peak < 4 << 20


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


def test_run_names_the_line_of_a_byte_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.qc"
    path.write_bytes(b"qubits 2\nh 1\n# caf\xe9\nmeasure 1\n")
    code, out, err = run_cli(capsys, "run", str(path), "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: byte 0xe9 is not UTF-8, line 3\n"


def test_run_refuses_a_file_over_the_byte_cap_in_one_line(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(dsl, "_MAX_FILE_BYTES", len(BELL_TEXT) - 1)
    path = tmp_path / "long.qc"
    path.write_text(BELL_TEXT, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: a circuit file holds at most {len(BELL_TEXT) - 1} bytes\n"


def test_run_refuses_a_map_over_the_source_cap_in_one_line(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(dsl, "_MAX_SOURCES", 2)  # bell.qc's two outcomes name one coin each
    path = tmp_path / "bell.qc"
    path.write_text(BELL_TEXT, encoding="utf-8")
    assert run_cli(capsys, "run", str(path), "--seed", "1")[0] == 0
    path.write_text(BELL_TEXT + "measure 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: a compiled circuit holds at most 2 outcome sources\n"


def test_run_refuses_more_records_than_the_cap_before_any_draw(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(dsl, "_MAX_RECORDS", 2)  # bell.qc makes 2 records of its one coin
    assert run_cli(capsys, "run", BELL, "--seed", "1")[0] == 0
    path = tmp_path / "two_coins.qc"
    path.write_text("qubits 2\nh 0\nh 1\nmeasure 0\nmeasure 1\n", encoding="utf-8")
    assert run_cli(capsys, "run", str(path), "--shots", "2", "--seed", "1")[0] == 0

    def drawn(*args):
        raise AssertionError("coins drawn")
    monkeypatch.setattr(dsl, "_coins", drawn)
    code, out, err = run_cli(capsys, "run", str(path), "--shots", "3", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: a run holds at most 2 distinct records; 3 shots of 2 coins could make 3\n"


def test_run_refuses_records_wider_than_the_bit_cap_before_any_draw(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(dsl, "_MAX_RECORD_BITS", 4)  # bell.qc makes 2 records of 2 bits
    assert run_cli(capsys, "run", BELL, "--seed", "1")[0] == 0
    path = tmp_path / "wide.qc"  # one coin, read three times
    path.write_text("qubits 1\nh 0\nmeasure 0\nmeasure 0\nmeasure 0\n", encoding="utf-8")
    assert run_cli(capsys, "run", str(path), "--shots", "1", "--seed", "1")[0] == 0

    def drawn(*args):
        raise AssertionError("coins drawn")
    monkeypatch.setattr(dsl, "_coins", drawn)
    code, out, err = run_cli(capsys, "run", str(path), "--shots", "2", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: a run's records hold at most 4 bits; 2 records of 3 bits could hold 6\n"


SIXTEEN_COINS = "qubits 1\n" + "h 0\nmeasure 0\n" * 16


def child_env() -> dict:
    """The environment of a child interpreter that imports the qsignal under test,
    with its stdout buffered, as a shell starts it."""
    src = str(Path(qsignal.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("text, fmt, read", [
    (BELL_TEXT, "csv", 0),
    # about 13 MB over many buffer flushes: the pipe breaks mid-stream, after 64 KiB are read
    (SIXTEEN_COINS, "json", 1 << 16),
], ids=["bell-csv-unread", "16-coins-json-mid-stream"])
def test_a_closed_reader_ends_the_command_quietly(tmp_path, text, fmt, read):
    # The child reads its stdin to the end before it runs the command, so the
    # parent's read end of the child's stdout is closed before a byte is
    # written, unless the parent first reads ``read`` bytes of the output.
    code = ("import sys\nsys.stdin.read()\nfrom qsignal.cli import main\n"
            "sys.exit(main(['run', sys.argv[1], '--shots', '200000', '--seed', '0',"
            " '--format', sys.argv[2]]))")
    path = tmp_path / "circuit.qc"
    path.write_text(text, encoding="utf-8")
    with open(tmp_path / "stderr", "w+") as err:
        child = subprocess.Popen([sys.executable, "-c", code, str(path), fmt], env=child_env(),
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        if read:
            child.stdin.close()
            assert len(child.stdout.read(read)) == read
        child.stdout.close()
        child.stdin.close()
        assert child.wait(timeout=60) == 0
        err.seek(0)
        assert err.read() == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_closed_stdout_ends_the_command_quietly(fmt):
    # with fd 1 closed at start-up, sys.stdout is None: nothing is written, as print would
    command = [sys.executable, "-m", "qsignal.cli", "exact", "--bit", "1", "--format", fmt]
    child = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *command], env=child_env(),
                           capture_output=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, b"")


def limit_file_size():
    """Cap the child's file size at 16 bytes, so a write past it fails with EFBIG."""
    import resource
    import signal
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


@pytest.mark.parametrize("sink", ["/dev/full", "file-size-limit"])
@pytest.mark.parametrize("argv", [
    ["exact", "--bit", "1"],
    # fails in the middle of a multi-write JSON stream
    ["run", "{path}", "--shots", "200000", "--seed", "0"],
], ids=["exact", "16-coins-json"])
def test_a_failing_stdout_write_exits_1_with_one_line(tmp_path, argv, sink):
    # A failed write leaves its bytes in stdout's buffer, where the flush at
    # exit would fail again (status 120 and an "Exception ignored" report).
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("needs the /dev/full device")
    path = tmp_path / "circuit.qc"
    path.write_text(SIXTEEN_COINS, encoding="utf-8")
    command = [sys.executable, "-m", "qsignal.cli", *(a.format(path=path) for a in argv)]
    if sink == "/dev/full":
        target, limit, errno = sink, None, 28  # ENOSPC
    else:
        target, limit, errno = tmp_path / "out", limit_file_size, 27  # EFBIG
    with open(target, "w") as out:
        child = subprocess.run(command, env=dict(child_env(), PYTHONDONTWRITEBYTECODE="1"),
                               stdout=out, stderr=subprocess.PIPE, preexec_fn=limit, timeout=60)
    assert child.returncode == 1
    assert child.stderr == f"error: [Errno {errno}] {os.strerror(errno)}\n".encode()


def test_a_failing_stdout_write_leaves_no_descriptor_open(capsys, monkeypatch):
    # the failed stdout is pointed at /dev/null; the descriptor opened for
    # that must be closed again, or each in-process call leaks one
    if not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")):
        pytest.skip("needs /proc/self/fd and the /dev/full device")
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main(["exact", "--bit", "1"]) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(28)}\n"
    assert len(os.listdir("/proc/self/fd")) == before


class FullStringIO(io.StringIO):
    """A stdout with no descriptor whose every write fails as a full disk would."""

    def write(self, text):
        raise OSError(28, os.strerror(28))  # ENOSPC


def test_a_failing_write_to_a_stdout_without_descriptor_reports_its_own_error(capsys, monkeypatch):
    # there is no descriptor to point at /dev/null: the write's error is reported
    # (not fileno's), and no descriptor is opened for it
    fds = os.path.isdir("/proc/self/fd")
    before = len(os.listdir("/proc/self/fd")) if fds else None
    for _ in range(5):
        monkeypatch.setattr(sys, "stdout", FullStringIO())
        assert main(["exact", "--bit", "1"]) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(28)}\n"
    if fds:
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("where", ["monte_carlo_block_error", "_write"])
def test_ctrl_c_exits_130_with_nothing_written(capsys, monkeypatch, where):
    # the handler's work or the write, each interrupted as SIGINT would
    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, where, interrupted)
    try:
        code = main(["block", "--n", "2", "--bit", "1", "--trials", "1000", "--seed", "0"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == 130
    assert capsys.readouterr() == ("", "")


class InterruptedAfter(io.StringIO):
    """A stdout whose second write raises KeyboardInterrupt, as SIGINT would."""

    def write(self, text):
        if self.tell():
            raise KeyboardInterrupt
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ctrl_c_mid_write_exits_130_leaving_a_prefix(tmp_path, monkeypatch, capsys, fmt):
    path = tmp_path / "circuit.qc"
    path.write_text(SIXTEEN_COINS, encoding="utf-8")
    _, whole, _ = run_cli(capsys, "run", str(path), "--shots", "2000", "--seed", "0", "--format", fmt)
    monkeypatch.setattr(sys, "stdout", InterruptedAfter())
    code = main(["run", str(path), "--shots", "2000", "--seed", "0", "--format", fmt])
    assert code == 130
    assert capsys.readouterr().err == ""
    assert whole.startswith(sys.stdout.getvalue()) and 0 < sys.stdout.tell() < len(whole)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writing_a_run_holds_no_whole_output(monkeypatch, fmt):
    # 10^5 distinct records make about 20 MB of JSON; the write holds one
    # group of pieces, or one CSV row, at a time
    payload = [dict(zip(cli._RUN_FIELDS, ("run", "wide.qc", 10**5, 0, f"{i:040b}", 1, 1e-5)))
               for i in range(10**5)]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._write(payload, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 << 20


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


def test_run_csv_without_measurements_is_the_header_alone(capsys, tmp_path):
    # no record to take the header from: it is the run header all the same
    path = tmp_path / "silent.qc"
    path.write_text("qubits 2\nh 1\ncnot 1 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", str(path), "--seed", "3", "--format", "csv")
    assert code == 0 and err == ""
    assert out == "experiment,file,shots,seed,outcome,count,frequency\n"


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


# Each command with its required arguments, and its handler.
COMMANDS = {
    "exact": (["--bit", "1"], cli.cmd_exact),
    "ancilla": (["--bit", "1"], cli.cmd_ancilla),
    "block": (["--n", "1", "--bit", "1", "--seed", "0"], cli.cmd_block),
    "channel": (["--n", "1"], cli.cmd_channel),
    "run": ([BELL, "--seed", "0"], cli.cmd_run),
    "transmit": (["--message", "1", "--seed", "0"], cli.cmd_transmit),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_every_command_takes_format_first_and_names_its_handler(name):
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(COMMANDS) == list(cli._COMMANDS)
    options = [action.option_strings for action in subparsers.choices[name]._actions]
    assert options[:2] == [["-h", "--help"], ["--format"]]
    required, handler = COMMANDS[name]
    args = parser.parse_args([name, *required, "--format", "csv"])
    assert args.format == "csv"
    assert args.handler is handler


# Values of each argument: some it takes, then some argparse refuses.
VALUES = {
    "--format": (["json", "csv"], ["xml", ""]),
    "--bit": (["1", "0", "01"], ["2", "one"]),
    "--n": (["1", "3", "010"], ["0", "1.5"]),
    "--trials": (["5000", "1"], ["0", "1e3"]),
    "--workers": (["2", "1"], ["0", "two"]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--prior": (["0.5", "1"], ["1.5", "nan", "-0."]),
    "--shots": (["100", "1"], ["0", "-5"]),
    "--message": (["0110", "1"], ["012", ""]),
    "file": ([BELL, "a b.qc", "", "exact"], []),
}
# Tokens argparse reads in its own way: abbreviations (--s is ambiguous in run),
# attached values, help, the end of options, a lone dash, an empty string and a
# flag without its value.
ODD = ["--s", "--se", "--f", "--seed=0", "--format=csv", "-h", "--help", "--", "-", "", "--seed"]


def piece(argument, value):
    """The tokens that give ``argument`` its ``value``: a flag and its value, or a positional."""
    return [argument, value] if argument[0] == "-" else [value]


@st.composite
def command_lines(draw):
    """A command line of one command's own arguments, in any order, each
    omitted, given once or repeated, with values it takes or refuses, and now
    and then a token of ODD."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = [piece(argument, draw(st.sampled_from(takes * 3 + refuses)))
              for argument in ["--format", *cli._COMMANDS[name][2]]
              for takes, refuses in [VALUES[argument]]
              for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])))]
    if draw(st.integers(0, 3)) == 0:
        pieces.append([draw(st.sampled_from(ODD))])
    return [name, *(token for tokens in draw(st.permutations(pieces)) for token in tokens)]


def read_quietly(parse, argv):
    """``vars`` of ``parse(argv)``'s namespace, or the status it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


@given(command_lines())
@example(["run", BELL, "--s", "1", "--seed", "0"])  # ambiguous: argparse refuses it
@example(["exact", "--bit", "1", "-"])  # a lone dash is an argument: exact takes none
@example(["run", "-", "--seed", "0"])  # the same dash is run's file
@example(["channel", "--n", "1", "--prior", "-0."])  # probability takes it; argparse reads a flag
@settings(max_examples=300, deadline=None)
def test_the_reader_gives_argparses_namespace_or_leaves_the_line_to_argparse(argv):
    with mock.patch.object(cli, "_build_parser", wraps=cli._build_parser) as build:
        ours = read_quietly(cli._parse_args, argv)
    if not build.called:
        assert ours == read_quietly(lambda a: cli._build_parser().parse_args(a), argv)


@pytest.mark.parametrize("name", COMMANDS)
def test_a_canonical_command_line_builds_no_parser(monkeypatch, name):
    # every argument once, with the first value it takes in the table's order
    # and with the last one in reverse order, and the required arguments alone
    arguments = ["--format", *cli._COMMANDS[name][2]]
    first, last = ([piece(argument, VALUES[argument][0][i]) for argument in arguments]
                   for i in (0, -1))
    argvs = [[name, *sum(first, [])], [name, *sum(last[::-1], [])], [name, *COMMANDS[name][0]]]
    expected = [vars(cli._build_parser().parse_args(argv)) for argv in argvs]

    def refused():
        raise AssertionError("a parser was built")
    monkeypatch.setattr(cli, "_build_parser", refused)
    assert [vars(cli._parse_args(argv)) for argv in argvs] == expected


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
