"""The benchmark's four CLI workloads: inputs drawn from the benchmark
seed, the argv that runs them, their work units, and the checks that
decide whether an output is correct.

Standard library only, so the parent process stays light and the tests
can import this module without numpy.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
FIXTURE_PATH = BENCH_DIR / "fixtures" / "mc_block.json"
OUT_DIR = "bench/_out"  # generated inputs and span files, relative to the repo root

N_PAIRS = 10
MC_TRIALS = 8 * 65536  # eight 65536-trial chunks, four per worker
MC_WORKERS = 2
DSL_CIRCUIT = "circuits/protocol_send1.qc"
DSL_SHOTS = 30000
MESSAGE_BITS = 1024
WIDE_QUBITS = 20
WIDE_SHOTS = 2
# Self-cancelling gate pairs spliced into the wide circuit, by kind.
WIDE_PAIRS = {"h": 8, "x": 4, "cnot": 4}

SIGMAS = 5.0
# Probability that a correct transmit output fails its miss-count bound.
TAIL_PROBABILITY = 1e-9

WORKLOADS = ("mc_block", "dsl_run", "transmit", "wide_circuit")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``qsignal <argv>``, run from the repo root."""

    workload: str
    argv: tuple[str, ...]
    units: int  # protocol pairs, or shots for wide_circuit
    check: Callable[[str], list[str]]  # stdout -> problems; empty means correct
    files: dict[str, str] = field(default_factory=dict)  # inputs to write first


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through SHA-512, so inputs are stable across runs.
    return random.Random(f"qsignal-bench:{workload}:{seed}")


def _within(count: int, trials: int, p: float) -> bool:
    return abs(count - trials * p) <= SIGMAS * math.sqrt(trials * p * (1.0 - p))


def _echo_problems(record: dict, expected: dict) -> list[str]:
    return [
        f"{key} is {record.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if record.get(key) != value
    ]


def _parse(stdout: str, kind: type):
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if not isinstance(payload, kind) or not payload:
        return None, [f"stdout is not a non-empty JSON {kind.__name__}"]
    return payload, []


# --- mc_block ---------------------------------------------------------------


def load_fixture() -> dict[str, str]:
    """Recorded mc_block stdout by benchmark seed (see record_fixture.py)."""
    if not FIXTURE_PATH.is_file():
        return {}
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def check_block(stdout: str, *, n_pairs: int, trials: int, seed: int,
                expected_stdout: str | None = None) -> list[str]:
    record, problems = _parse(stdout, dict)
    if record is None:
        return problems
    problems = _echo_problems(record, {
        "experiment": "block", "bit": 1, "n_pairs": n_pairs, "trials": trials,
        "seed": seed, "expected_error_rate": 0.5**n_pairs,
    })
    count = record.get("count_decoded_one")
    if not isinstance(count, int):
        return problems + [f"count_decoded_one is {count!r}"]
    if not _within(count, trials, 1.0 - 0.5**n_pairs):
        problems.append(f"count_decoded_one {count} is beyond {SIGMAS} sigma")
    error_rate = (trials - count) / trials
    derived = {
        "rate_decoded_one": count / trials,
        "error_rate": error_rate,
        "stderr_error_rate": math.sqrt(error_rate * (1.0 - error_rate) / trials),
    }
    for key, value in derived.items():
        got = record.get(key)
        if not isinstance(got, float) or not math.isclose(got, value, rel_tol=1e-12):
            problems.append(f"{key} is {got!r}, expected {value!r}")
    if expected_stdout is not None and stdout != expected_stdout:
        problems.append("stdout differs from the recorded fixture for this seed")
    return problems


def mc_block_job(seed: int, workers: int = MC_WORKERS, fixture: dict | None = None) -> Job:
    program_seed = _rng("mc_block", seed).randrange(2**31)
    argv = ("block", "--n", str(N_PAIRS), "--bit", "1", "--trials", str(MC_TRIALS),
            "--seed", str(program_seed), "--workers", str(workers))
    expected = (fixture or {}).get(str(seed))
    check = functools.partial(check_block, n_pairs=N_PAIRS, trials=MC_TRIALS,
                              seed=program_seed, expected_stdout=expected)
    return Job("mc_block", argv, MC_TRIALS * N_PAIRS, check)


# --- dsl_run and wide_circuit: `qsignal run` histograms ---------------------


def check_histogram(stdout: str, *, path: str, shots: int, seed: int,
                    outcomes: frozenset[str], uniform: bool) -> list[str]:
    """Rows of `qsignal run`: known outcomes only, counts summing to shots.

    With ``uniform`` every outcome must also appear, within SIGMAS
    standard deviations of an equal share.
    """
    rows, problems = _parse(stdout, list)
    if rows is None:
        return problems
    counts = {}
    for row in rows:
        if not isinstance(row, dict):
            return [f"row {row!r} is not an object"]
        problems += _echo_problems(row, {"experiment": "run", "file": path,
                                         "shots": shots, "seed": seed})
        outcome, count = row.get("outcome"), row.get("count")
        if outcome not in outcomes:
            problems.append(f"unexpected outcome {outcome!r}")
        if not isinstance(count, int) or outcome in counts:
            problems.append(f"bad or repeated count for {outcome!r}")
            continue
        counts[outcome] = count
        if row.get("frequency") != count / shots:
            problems.append(f"frequency of {outcome!r} is not count/shots")
    if sum(counts.values()) != shots:
        problems.append(f"counts sum to {sum(counts.values())}, expected {shots}")
    if uniform:
        p = 1.0 / len(outcomes)
        for outcome in sorted(outcomes):
            count = counts.get(outcome, 0)
            if not _within(count, shots, p):
                problems.append(f"count {count} of {outcome!r} is beyond {SIGMAS} sigma of {p}")
    return problems


def dsl_run_job(seed: int) -> Job:
    program_seed = _rng("dsl_run", seed).randrange(2**31)
    argv = ("run", DSL_CIRCUIT, "--shots", str(DSL_SHOTS), "--seed", str(program_seed))
    # Sender and receiver bits are independent fair coins in protocol_send1.
    check = functools.partial(check_histogram, path=DSL_CIRCUIT, shots=DSL_SHOTS,
                              seed=program_seed,
                              outcomes=frozenset({"00", "01", "10", "11"}), uniform=True)
    return Job("dsl_run", argv, DSL_SHOTS, check)


def wide_circuit(rng: random.Random, num_qubits: int = WIDE_QUBITS) -> tuple[str, tuple[str, str]]:
    """A GHZ circuit whose only two outcomes are known by construction.

    The GHZ chain, then an X mask on half the qubits, gives
    (|m> + |~m>)/sqrt(2). Self-cancelling gate pairs spliced in anywhere
    before the measurements leave that state unchanged. Every qubit is
    measured, in a seed-chosen order; returns the circuit text and the
    two outcome strings in that order.
    """
    mask = set(rng.sample(range(num_qubits), num_qubits // 2))
    body = ["h 0"] + [f"cnot {q} {q + 1}" for q in range(num_qubits - 1)]
    body += [f"x {q}" for q in sorted(mask)]
    pairs = []
    for op, count in WIDE_PAIRS.items():
        for _ in range(count):
            operands = rng.sample(range(num_qubits), 2 if op == "cnot" else 1)
            pairs.append(f"{op} {' '.join(map(str, operands))}")
    for stmt in pairs:
        at = rng.randint(0, len(body))
        body[at:at] = [stmt, stmt]
    order = rng.sample(range(num_qubits), num_qubits)
    body += [f"measure {q}" for q in order]
    text = f"# generated wide_circuit\nqubits {num_qubits}\n" + "\n".join(body) + "\n"
    pattern = "".join("1" if q in mask else "0" for q in order)
    complement = pattern.translate(str.maketrans("01", "10"))
    return text, (pattern, complement)


def wide_circuit_job(seed: int) -> Job:
    rng = _rng("wide_circuit", seed)
    text, patterns = wide_circuit(rng)
    program_seed = rng.randrange(2**31)
    path = f"{OUT_DIR}/wide_circuit-seed{seed}.qc"
    argv = ("run", path, "--shots", str(WIDE_SHOTS), "--seed", str(program_seed))
    check = functools.partial(check_histogram, path=path, shots=WIDE_SHOTS,
                              seed=program_seed, outcomes=frozenset(patterns), uniform=False)
    return Job("wide_circuit", argv, WIDE_SHOTS, check, {path: text})


# --- transmit ---------------------------------------------------------------


def message(rng: random.Random) -> str:
    """Half ones, in seed-chosen positions, so every seed costs the same."""
    chars = ["1"] * (MESSAGE_BITS // 2) + ["0"] * (MESSAGE_BITS - MESSAGE_BITS // 2)
    rng.shuffle(chars)
    return "".join(chars)


def poisson_upper(lam: float) -> int:
    """Smallest k with P(Poisson(lam) > k) <= TAIL_PROBABILITY."""
    k, term = 0, math.exp(-lam)
    cdf = term
    while 1.0 - cdf > TAIL_PROBABILITY:
        k += 1
        term *= lam / k
        cdf += term
    return k


def check_transmit(stdout: str, *, message: str, n_pairs: int, seed: int) -> list[str]:
    record, problems = _parse(stdout, dict)
    if record is None:
        return problems
    problems = _echo_problems(record, {"experiment": "transmit", "message": message,
                                       "n_pairs": n_pairs, "seed": seed})
    decoded = record.get("decoded")
    if not isinstance(decoded, str) or len(decoded) != len(message) or set(decoded) - {"0", "1"}:
        return problems + [f"decoded is {decoded!r}"]
    false_ones = sum(s == "0" and d == "1" for s, d in zip(message, decoded))
    misses = sum(s == "1" and d == "0" for s, d in zip(message, decoded))
    if false_ones:
        problems.append(f"{false_ones} sent 0s decoded as 1")
    # Misses are Binomial(ones, 0.5**n); the Poisson tail of the same mean bounds it.
    limit = poisson_upper(message.count("1") * 0.5**n_pairs)
    if misses > limit:
        problems.append(f"{misses} missed 1s exceed the tail bound {limit}")
    if record.get("bit_errors") != false_ones + misses:
        problems.append(f"bit_errors is {record.get('bit_errors')!r}, recomputed {false_ones + misses}")
    return problems


def transmit_job(seed: int) -> Job:
    rng = _rng("transmit", seed)
    text = message(rng)
    program_seed = rng.randrange(2**31)
    argv = ("transmit", "--message", text, "--n", str(N_PAIRS), "--seed", str(program_seed))
    check = functools.partial(check_transmit, message=text, n_pairs=N_PAIRS, seed=program_seed)
    return Job("transmit", argv, len(text) * N_PAIRS, check)


def make_job(workload: str, seed: int, fixture: dict | None = None) -> Job:
    if workload == "mc_block":
        return mc_block_job(seed, fixture=fixture)
    return {"dsl_run": dsl_run_job, "transmit": transmit_job,
            "wide_circuit": wide_circuit_job}[workload](seed)
