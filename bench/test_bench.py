"""Tests of the benchmark's own code: seeded inputs, output checks, spans.

    python -m pytest bench -q
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = workloads.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
from qsignal import cli, execute, parse  # noqa: E402


def cli_stdout(job: workloads.Job) -> str:
    for rel, text in job.files.items():
        (ROOT / rel).parent.mkdir(parents=True, exist_ok=True)
        (ROOT / rel).write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(job.argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a, b = workloads.make_job(workload, 3), workloads.make_job(workload, 3)
    assert (a.argv, a.files, a.units) == (b.argv, b.files, b.units)
    c = workloads.make_job(workload, 4)
    assert (a.argv, a.files) != (c.argv, c.files)


def test_message_is_balanced():
    text = workloads.message(random.Random(1))
    assert len(text) == workloads.MESSAGE_BITS
    assert text.count("1") == workloads.MESSAGE_BITS // 2


def test_wide_circuit_has_exactly_the_predicted_outcomes():
    text, patterns = workloads.wide_circuit(random.Random(7), num_qubits=6)
    records = execute(parse(text), 200, np.random.default_rng(0))
    seen = {"".join(str(m.bit) for m in r.measurement_outcomes) for r in records}
    assert seen == set(patterns)


def test_block_check_accepts_fixture_and_rejects_corruption():
    fixture = workloads.load_fixture()
    job = workloads.mc_block_job(0, fixture=fixture)
    good = fixture["0"]
    assert job.check(good) == []
    record = json.loads(good)
    assert job.check(json.dumps(record, indent=2) + "\n") == []  # the bytes the CLI writes
    assert job.check(json.dumps(record)) != []  # other bytes: fixture mismatch
    unpinned = workloads.mc_block_job(0)
    assert unpinned.check(json.dumps(record)) == []
    shifted = dict(record, count_decoded_one=record["count_decoded_one"] - 200)
    assert unpinned.check(json.dumps(shifted)) != []
    assert unpinned.check(json.dumps(dict(record, seed=record["seed"] + 1))) != []
    assert unpinned.check(json.dumps(dict(record, error_rate=0.5))) != []
    assert unpinned.check("not json") != []


def test_histogram_check_rejects_missing_key_and_bad_counts():
    job = workloads.dsl_run_job(2)
    rows = json.loads(cli_stdout(job))
    assert job.check(json.dumps(rows)) == []
    assert job.check(json.dumps(rows[:-1])) != []  # missing histogram key
    skewed = [dict(r) for r in rows]
    skewed[0]["count"] += 3000
    skewed[1]["count"] -= 3000
    for r in skewed:
        r["frequency"] = r["count"] / workloads.DSL_SHOTS
    assert job.check(json.dumps(skewed)) != []
    renamed = [dict(rows[0], outcome="2")] + rows[1:]
    assert job.check(json.dumps(renamed)) != []


def test_transmit_check_rejects_flipped_zero_and_wrong_error_count():
    job = workloads.transmit_job(5)
    record = json.loads(cli_stdout(job))
    assert job.check(json.dumps(record)) == []
    message = record["message"]
    zero = message.index("0")
    flipped = record["decoded"][:zero] + "1" + record["decoded"][zero + 1:]
    assert job.check(json.dumps(dict(record, decoded=flipped, bit_errors=record["bit_errors"] + 1))) != []
    assert job.check(json.dumps(dict(record, bit_errors=record["bit_errors"] + 1))) != []
    all_missed = "0" * len(message)
    assert job.check(json.dumps(dict(record, decoded=all_missed, bit_errors=message.count("1")))) != []


def test_wide_check_rejects_wrong_ghz_pattern():
    job = workloads.wide_circuit_job(1)
    rows = json.loads(cli_stdout(job))
    assert job.check(json.dumps(rows)) == []
    outcome = rows[0]["outcome"]
    wrong = ("1" if outcome[0] == "0" else "0") + outcome[1:]
    assert job.check(json.dumps([dict(rows[0], outcome=wrong)] + rows[1:])) != []


def test_poisson_upper_bounds_the_tail():
    assert workloads.poisson_upper(0.0) == 0
    k = workloads.poisson_upper(0.5)
    assert 5 <= k <= 12


def test_self_time_subtracts_union_of_children():
    recorded = [
        [0, None, "cli.main", 0, 100, None, None],
        [1, 0, "dsl.execute", 10, 30, None, {"shots": 2}],
        [2, 0, "dsl.execute", 20, 50, "ValueError", {"shots": 3}],
        [3, 0, "dsl.load", 60, 70, None, None],
    ]
    summary = spans.summarize(recorded)
    assert summary["cli.main"]["self_s"] == pytest.approx(50e-9)
    assert summary["dsl.execute"]["calls"] == 2
    assert summary["dsl.execute"]["shots"] == 5
    assert summary["dsl.execute"]["errors"] == 1


def test_traced_child_nests_spans_across_modules():
    report, problems = run.run_child(
        {"mode": "job", "argv": ["transmit", "--message", "10", "--n", "3", "--seed", "1"], "trace": True},
        time.monotonic() + 60)
    assert problems == []
    by_id = {s[0]: s for s in report["spans"]}
    parent_name = {s[2]: by_id[s[1]][2] if s[1] is not None else None for s in report["spans"]}
    assert parent_name["cli.main"] is None
    assert parent_name["protocol.transmit_message"] == "cli.main"
    assert parent_name["protocol.run_block"] == "protocol.transmit_message"
    assert parent_name["protocol.run_pair"] == "protocol.run_block"
    assert parent_name["statevector.measure_qubit"] == "protocol.run_pair"
    summary = spans.summarize(report["spans"])
    assert summary["protocol.run_pair"]["calls"] == 6
    assert summary["protocol.transmit_message"]["pairs"] == 6


def test_children_ignore_the_users_output_format(monkeypatch):
    monkeypatch.setenv(run.FORMAT_ENV_VAR, "csv")
    job = workloads.wide_circuit_job(2)
    report, problems = run.run_job(job, time.monotonic() + 60)
    assert problems == []
    assert json.loads(report["stdout"])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == {
        name: row[:2] for name, row in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: row[:2] for name, row in run.PER_LAYER.items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_block", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
