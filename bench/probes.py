"""Direct probes of qsignal's layer functions on fixed inputs.

Each probe times a public function in a loop and reports the median of
a few repeats, per call. Run inside a fresh child after the import, so
the numbers never include import work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from qsignal import (
    ZChannel,
    apply_gate,
    channel_capacity,
    cnot,
    exact_distribution,
    hadamard,
    measure_qubit,
    monte_carlo_distribution,
    new_ground_state,
    parse,
    prepare_pair,
)
from qsignal.channel import CHUNK_TRIALS

REPEATS = 5
WIDE_QUBITS = 20
# Bytes of one read and one write of the 20-qubit complex128 state: the
# least traffic a gate can cause, computed from array sizes only.
WIDE_STATE_BYTES = (1 << WIDE_QUBITS) * 16


def per_call_s(fn, number: int, repeats: int = REPEATS) -> float:
    """Median over ``repeats`` of the mean time of ``number`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def run_all(circuit_path: str) -> dict[str, float]:
    pair = prepare_pair()
    restore_cnot = cnot(1, 0)
    ground = new_ground_state(WIDE_QUBITS)
    h_mid, cnot_wide = hadamard(WIDE_QUBITS // 2), cnot(3, WIDE_QUBITS - 3)
    superposed = apply_gate(ground, hadamard(5))
    rng = np.random.default_rng(1)
    probes = {
        "statevector.apply_gate_2q_us": per_call_s(lambda: apply_gate(pair, restore_cnot), 2000) * 1e6,
        "statevector.h_20q_ms": per_call_s(lambda: apply_gate(ground, h_mid), 4) * 1e3,
        "statevector.cnot_20q_ms": per_call_s(lambda: apply_gate(ground, cnot_wide), 4) * 1e3,
        "statevector.measure_20q_ms": per_call_s(lambda: measure_qubit(superposed, 5, rng), 4) * 1e3,
    }
    probes["statevector.h_20q_gbps_computed"] = (
        2 * WIDE_STATE_BYTES / (probes["statevector.h_20q_ms"] / 1e3) / 1e9)

    chunk = per_call_s(
        lambda: monte_carlo_distribution(1, CHUNK_TRIALS, np.random.default_rng(2), 1), 3)
    probes["channel.ns_per_trial"] = chunk / CHUNK_TRIALS * 1e9
    probes["channel.rng_uniform_ns"] = per_call_s(lambda: rng.random(CHUNK_TRIALS), 20) / CHUNK_TRIALS * 1e9
    probes["channel.rng_spawn_us"] = per_call_s(lambda: rng.spawn(1024), 3) / 1024 * 1e6
    eight_chunks = [
        per_call_s(lambda: monte_carlo_distribution(
            1, 8 * CHUNK_TRIALS, np.random.default_rng(3), workers), 1, 3)
        for workers in (1, 2)
    ]
    probes["channel.parallel_efficiency"] = eight_chunks[0] / (2 * eight_chunks[1])
    probes["channel.exact_distribution_us"] = per_call_s(lambda: exact_distribution(1), 500) * 1e6
    z10 = ZChannel(10)
    probes["channel.channel_capacity_us"] = per_call_s(lambda: channel_capacity(z10), 200) * 1e6

    with open(circuit_path, encoding="utf-8") as fh:
        text = fh.read()
    probes["dsl.parse_us"] = per_call_s(lambda: parse(text), 2000) * 1e6
    return probes
