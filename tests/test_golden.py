"""Golden outputs: CLI stdout and library results pinned byte for byte.

The fixtures in tests/golden/ are recorded from the code and change only
on purpose. Re-record them from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why the output moved.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qsignal import (cli, execute, load, monte_carlo_distribution, run_block, run_pair,
                     transmit_message)

from conftest import joint_counts

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI_FIXTURE = GOLDEN / "cli.json"
LIBRARY_FIXTURE = GOLDEN / "library.json"
SEEDS = (0, 1)
CIRCUITS = ("circuits/bell.qc", "circuits/protocol_send0.qc", "circuits/protocol_send1.qc")
# Twelve qubits with mid-circuit measurements: 150 shots cross the
# interpreter's batch boundaries, and every state spans 4096 amplitudes.
WIDE_CIRCUIT = "tests/golden/mixed12.qc"


def _cli_cases() -> dict[str, list[str]]:
    cases = {}
    for fmt in ("json", "csv"):

        def add(name, *argv):
            cases[f"{name}-{fmt}"] = [*argv, "--format", fmt]

        for bit in (0, 1):
            add(f"exact-bit{bit}", "exact", "--bit", str(bit))
            add(f"ancilla-bit{bit}", "ancilla", "--bit", str(bit))
        for n, prior in ((1, None), (10, None), (3, "0.3"), (10, "1")):
            add(f"channel-n{n}-prior{prior}", "channel", "--n", str(n),
                *(["--prior", prior] if prior else []))
        for seed in SEEDS:
            for bit in (0, 1):
                for workers in (1, 2):
                    add(f"block-bit{bit}-seed{seed}-workers{workers}", "block", "--n", "3",
                        "--bit", str(bit), "--trials", "70000", "--seed", str(seed),
                        "--workers", str(workers))
            # 2000 shots of one or two measurements draw at most 4096 outputs, so these
            # pin the Python PCG64 of `run`; mixed12's 60000 shots pin numpy's
            for path in CIRCUITS:
                add(f"run-{Path(path).stem}-seed{seed}", "run", path, "--shots", "2000",
                    "--seed", str(seed))
            # 60000 shots of 15 measurements are 4 batches: the histogram is merged
            # across `run`'s batch boundaries
            add(f"run-mixed12-seed{seed}", "run", WIDE_CIRCUIT, "--shots", "60000",
                "--seed", str(seed))
            add(f"transmit-seed{seed}", "transmit", "--message", "1011001110", "--n", "10",
                "--seed", str(seed))
    return cases


CLI_CASES = _cli_cases()


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def _execute_records(path: str, seed: int, shots: int) -> list:
    records = execute(load(ROOT / path), shots, np.random.default_rng(seed))
    return [[r.shot_index, [list(m) for m in r.measurement_outcomes]] for r in records]


def library_results() -> dict:
    results = {}
    for seed in SEEDS:
        for path in CIRCUITS:
            results[f"execute-{Path(path).stem}-seed{seed}"] = _execute_records(path, seed, 40)
        results[f"execute-mixed12-seed{seed}"] = _execute_records(WIDE_CIRCUIT, seed, 150)
        for bit in (0, 1):
            block = run_block(bit, 6, np.random.default_rng(seed))
            results[f"run_block-bit{bit}-seed{seed}"] = [list(block.bob_outcomes), block.decoded_bit]
        results[f"transmit_message-seed{seed}"] = transmit_message(
            [1, 0, 1, 1, 0, 0, 1, 1], 3, np.random.default_rng(seed))
    for seed in SEEDS:
        for bit in (0, 1):
            for workers in (1, 2):
                dist = monte_carlo_distribution(bit, 70000, np.random.default_rng(seed), workers)
                results[f"monte_carlo_distribution-bit{bit}-seed{seed}-workers{workers}"] = [
                    dist.p_bob_0, dist.p_bob_1, dist.stderr, dist.trials, dist.count_bob_1]
            trace = run_pair(bit, np.random.default_rng(seed))
            # amplitudes as the hex of their complex128 bytes
            results[f"run_pair-bit{bit}-seed{seed}"] = [
                trace.alice_outcome, trace.bob_outcome,
                *(s.amplitudes.tobytes().hex() for s in (trace.psi_a, trace.psi_a_prime, trace.psi_b))]
        for workers in (1, 2):
            results[f"_joint_counts-seed{seed}-workers{workers}"] = joint_counts(
                70000, np.random.default_rng(seed), workers).tolist()
    return results


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def at_root(monkeypatch):
    # `run` echoes its file argument, so circuit paths stay repo-relative.
    monkeypatch.chdir(ROOT)


def test_cli_fixture_covers_every_case():
    assert list(_read(CLI_FIXTURE)) == list(CLI_CASES)


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_stdout_matches_golden(case, at_root):
    assert cli_stdout(CLI_CASES[case]) == _read(CLI_FIXTURE)[case]


def test_library_results_match_golden():
    expected = _read(LIBRARY_FIXTURE)
    actual = json.loads(json.dumps(library_results()))
    assert list(actual) == list(expected)
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    os.chdir(ROOT)
    CLI_FIXTURE.write_text(
        json.dumps({case: cli_stdout(argv) for case, argv in CLI_CASES.items()}, indent=1) + "\n",
        encoding="utf-8")
    # One result per line keeps the long shot lists readable in a diff.
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in library_results().items()]
    LIBRARY_FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
