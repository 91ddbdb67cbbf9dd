import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import FakeRandom
from qsignal import (
    ALICE_QUBIT,
    BOB_QUBIT,
    AliceAction,
    BlockResult,
    ProtocolTrace,
    StateVector,
    Circuit,
    alice_step,
    ancilla_model_distribution,
    apply_gate,
    bob_step,
    collapse_qubit,
    exact_distribution,
    hadamard,
    load,
    monte_carlo_block_error,
    monte_carlo_distribution,
    new_ground_state,
    outcome_distribution,
    prepare_pair,
    restore,
    run_block,
    run_pair,
    transmit_message,
)
from qsignal import dsl, protocol
from qsignal.channel import _ancilla_circuit
from qsignal.protocol import MAX_PAIRS, _protocol_circuit

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

R = 1.0 / math.sqrt(2.0)
BELL = [R, 0, 0, R]


def test_prepare_pair_amplitudes():
    assert np.allclose(prepare_pair().amplitudes, BELL, rtol=0, atol=1e-12)


def test_preparation_intermediate_state():
    # after the Hadamard alone, the receiver's qubit is in superposition
    state = apply_gate(new_ground_state(2), hadamard(BOB_QUBIT))
    assert np.allclose(state.amplitudes, [R, 0, R, 0], rtol=0, atol=1e-12)


def test_prepare_pair_marginals_are_uniform():
    pair = prepare_pair()
    for qubit in (ALICE_QUBIT, BOB_QUBIT):
        p0, p1 = outcome_distribution(pair, qubit)
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12


def test_alice_skip_is_a_no_op():
    pair = prepare_pair()
    state, outcome = alice_step(pair, AliceAction.SKIP, FakeRandom(0.5))
    assert outcome is None
    assert state is pair  # no collapse, nothing to copy


def test_alice_skip_consumes_no_draws():
    fake = FakeRandom(0.5)
    alice_step(prepare_pair(), 0, fake)
    assert fake.calls == 0


def test_alice_measure_forced_one():
    state, outcome = alice_step(prepare_pair(), AliceAction.MEASURE, FakeRandom(0.9))
    assert outcome == 1
    assert np.allclose(state.amplitudes, [0, 0, 0, 1], rtol=0, atol=1e-12)


def test_alice_measure_forced_zero():
    state, outcome = alice_step(prepare_pair(), 1, FakeRandom(0.1))
    assert outcome == 0
    assert np.allclose(state.amplitudes, [1, 0, 0, 0], rtol=0, atol=1e-12)


def test_alice_action_rejects_other_values():
    with pytest.raises(ValueError):
        AliceAction(2)
    with pytest.raises(ValueError):
        run_pair(3, np.random.default_rng(0))


SENDER_ENTRY_POINTS = {
    "run_pair": lambda bit: run_pair(bit, np.random.default_rng(0)).bob_outcome,
    "alice_step": lambda bit: alice_step(prepare_pair(), bit, FakeRandom(0.7))[1],
    "run_block": lambda bit: run_block(bit, 5, np.random.default_rng(0)),
    "exact_distribution": exact_distribution,
    "ancilla_model_distribution": ancilla_model_distribution,
    "monte_carlo_block_error": lambda bit: monte_carlo_block_error(
        bit, 2, 10, np.random.default_rng(0)),
    "monte_carlo_distribution": lambda bit: monte_carlo_distribution(
        bit, 10, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", SENDER_ENTRY_POINTS)
def test_sender_bit_is_the_int_0_or_1_at_every_entry_point(name):
    # a float is rejected, never read as MEASURE, as transmit_message does
    run = SENDER_ENTRY_POINTS[name]
    for bit in (1.0, 0.0, 0.5, "1", 2, np.array([1]), np.array([True]), np.array(1.0), np.float64(1.0)):
        with pytest.raises(ValueError, match=f"^action must be 0 or 1, got {re.escape(repr(bit))}$"):
            run(bit)
    for bit in (True, np.int64(1), AliceAction.MEASURE, np.True_, np.array(True)):
        assert run(bit) == run(1)
    assert run(np.int64(0)) == run(np.False_) == run(np.array(False)) == run(0)


def test_alice_step_rejects_wrong_qubit_count():
    with pytest.raises(ValueError):
        alice_step(new_ground_state(3), 1, FakeRandom(0.5))


def test_restore_of_untouched_pair_is_ground_state():
    assert np.allclose(restore(prepare_pair()).amplitudes, [1, 0, 0, 0], rtol=0, atol=1e-12)


def test_restore_of_collapsed_one_branch():
    restored = restore(StateVector([0, 0, 0, 1]))
    assert np.allclose(restored.amplitudes, [R, 0, -R, 0], rtol=0, atol=1e-12)


def test_restore_of_collapsed_zero_branch():
    restored = restore(StateVector([1, 0, 0, 0]))
    assert np.allclose(restored.amplitudes, [R, 0, R, 0], rtol=0, atol=1e-12)


def test_restore_rejects_wrong_qubit_count():
    with pytest.raises(ValueError):
        restore(new_ground_state(1))
    with pytest.raises(ValueError):
        restore(new_ground_state(3))


def test_bob_step_deterministic_after_skip():
    psi_b = restore(prepare_pair())
    # exactly zero probability of a 1, not merely small
    assert outcome_distribution(psi_b, BOB_QUBIT)[1] == 0.0
    rng = np.random.default_rng(0)
    assert all(bob_step(psi_b, rng) == 0 for _ in range(1000))


@pytest.mark.parametrize("collapsed", [[0, 0, 0, 1], [1, 0, 0, 0]])
def test_bob_step_is_fair_after_collapse(collapsed):
    psi_b = restore(StateVector(collapsed))
    rng = np.random.default_rng(1)
    trials = 4000
    ones = sum(bob_step(psi_b, rng) for _ in range(trials))
    assert abs(ones / trials - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_run_pair_bit_zero_never_signals():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        assert run_pair(AliceAction.SKIP, rng).bob_outcome == 0


def test_run_pair_bit_one_statistics():
    rng = np.random.default_rng(3)
    trials = 10_000
    ones = sum(run_pair(1, rng).bob_outcome for _ in range(trials))
    assert abs(ones / trials - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_run_pair_trace_shape_bit_zero():
    trace = run_pair(0, np.random.default_rng(4))
    assert trace.alice_bit == 0
    assert trace.alice_outcome is None
    assert trace.bob_outcome == 0
    assert np.allclose(trace.psi_a.amplitudes, BELL, rtol=0, atol=1e-12)
    assert trace.psi_a_prime is trace.psi_a
    assert np.allclose(trace.psi_b.amplitudes, [1, 0, 0, 0], rtol=0, atol=1e-12)


def test_run_pair_trace_cases_bit_one():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(50):
        trace = run_pair(1, rng)
        assert trace.alice_outcome in (0, 1)
        seen.add(trace.alice_outcome)
        assert np.allclose(trace.psi_a.amplitudes, BELL, rtol=0, atol=1e-12)
        expected_prime = [0, 0, 0, 1] if trace.alice_outcome else [1, 0, 0, 0]
        assert np.allclose(trace.psi_a_prime.amplitudes, expected_prime, rtol=0, atol=1e-12)
        sign = -1.0 if trace.alice_outcome else 1.0
        assert np.allclose(trace.psi_b.amplitudes, [R, 0, sign * R, 0], rtol=0, atol=1e-12)
    assert seen == {0, 1}


@pytest.mark.parametrize("alice_bit, alice_outcome", [(0, 1), (1, None)])
def test_protocol_trace_holds_the_senders_outcome_exactly_when_she_measures(alice_bit, alice_outcome):
    pair = prepare_pair()
    with pytest.raises(ValueError, match=r"^alice_outcome must be present exactly when alice_bit is 1$"):
        ProtocolTrace(alice_bit, alice_outcome, 0, pair, pair, pair)


def test_run_pair_same_seed_gives_identical_traces():
    a = run_pair(1, np.random.default_rng(6))
    b = run_pair(1, np.random.default_rng(6))
    assert (a.alice_bit, a.alice_outcome, a.bob_outcome) == (b.alice_bit, b.alice_outcome, b.bob_outcome)
    for sa, sb in ((a.psi_a, b.psi_a), (a.psi_a_prime, b.psi_a_prime), (a.psi_b, b.psi_b)):
        assert np.array_equal(sa.amplitudes, sb.amplitudes)


def test_alice_and_bob_outcomes_are_independent():
    rng = np.random.default_rng(7)
    joint = np.zeros((2, 2))
    trials = 10_000
    for _ in range(trials):
        trace = run_pair(1, rng)
        joint[trace.alice_outcome, trace.bob_outcome] += 1
    # both post-collapse branches give the receiver a fair coin
    for a in (0, 1):
        branch = joint[a].sum()
        rate = joint[a, 1] / branch
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / branch)
    assert abs(joint[0].sum() / trials - 0.5) < 3 * math.sqrt(0.25 / trials)


@pytest.mark.parametrize("bit", [0, 1])
def test_protocol_circuit_is_the_shipped_file(bit):
    shipped = load(CIRCUITS / f"protocol_send{bit}.qc")
    assert _protocol_circuit(AliceAction(bit)) == shipped
    # the ancilla model widens the same circuit to three qubits and turns
    # the sender's measure into a CNOT onto the ancilla
    ancilla = load(CIRCUITS / "protocol_ancilla.qc") if bit else Circuit(3, shipped.instructions)
    assert _ancilla_circuit(AliceAction(bit)) == ancilla


def receiver_density_matrix(state):
    """Bob's reduced density matrix: the sender's qubit 0 traced out."""
    psi = state.amplitudes.reshape(2, 2)  # psi[bob, alice], since index = 2*bob + alice
    return psi @ psi.conj().T


def sender_branches(action):
    """(Born weight, post-step state) for each outcome of the sender's alice_step."""
    psi_a = prepare_pair()
    if action is AliceAction.SKIP:
        return [(1.0, alice_step(psi_a, action, FakeRandom(0.5))[0])]
    return [(p, collapse_qubit(psi_a, ALICE_QUBIT, outcome))
            for outcome, p in enumerate(outcome_distribution(psi_a, ALICE_QUBIT))]


def trace_distance(rho, sigma):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


@pytest.mark.parametrize("action", list(AliceAction))
def test_receiver_state_is_maximally_mixed_whatever_the_sender_does(action):
    # no-communication: before restore, Bob holds I/2 for both actions
    branches = sender_branches(action)
    rho = sum(p * receiver_density_matrix(state) for p, state in branches)
    assert trace_distance(rho, np.eye(2) / 2) < 1e-12
    # only the two-qubit restore gate makes the actions distinguishable to him
    rho = sum(p * receiver_density_matrix(restore(state)) for p, state in branches)
    assert trace_distance(rho, np.eye(2) / 2 if action else np.diag([1.0, 0.0])) < 1e-12


@pytest.mark.parametrize("bit", [0, 1])
def test_run_block_replays_run_pair(bit):
    # the batched block draws its uniforms pair by pair, as run_pair does
    block = run_block(bit, 50, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    assert block.bob_outcomes == tuple(run_pair(bit, rng).bob_outcome for _ in range(50))


def test_run_block_bit_zero_decodes_zero():
    result = run_block(0, 10, np.random.default_rng(8))
    assert result.decoded_bit == 0
    assert result.bob_outcomes == (0,) * 10


def test_run_block_decoding_is_or_of_outcomes():
    for seed in range(30):
        result = run_block(1, 3, np.random.default_rng(seed))
        assert result.n_pairs == 3
        assert len(result.bob_outcomes) == 3
        assert result.decoded_bit == int(any(result.bob_outcomes))


@pytest.mark.parametrize("n_pairs, outcomes, decoded, message", [
    (3, (0, 1), 1, "bob_outcomes length must equal n_pairs"),
    (2, (0, 1), 0, "decoded_bit must be the OR of bob_outcomes"),
    (2, (0, 0), 1, "decoded_bit must be the OR of bob_outcomes"),
])
def test_block_result_checks_its_fields(n_pairs, outcomes, decoded, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BlockResult(n_pairs, outcomes, decoded)


def test_run_block_single_pair_decode_distribution():
    rng = np.random.default_rng(9)
    trials = 10_000
    ones = sum(run_block(1, 1, rng).decoded_bit for _ in range(trials))
    assert abs(ones / trials - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_run_block_rejects_zero_pairs():
    with pytest.raises(ValueError):
        run_block(1, 0, np.random.default_rng(0))


def test_block_paths_reject_pairs_above_the_cap():
    # rejected before a single uniform is drawn or a child stream spawned
    rng = np.random.default_rng(0)
    for run in (
        lambda: run_block(1, MAX_PAIRS + 1, rng),
        lambda: transmit_message([1, 0], MAX_PAIRS + 1, rng),
    ):
        with pytest.raises(ValueError, match=f"n_pairs must be between 1 and {MAX_PAIRS}"):
            run()
    # a bool or a float is not a count: no block of True pairs
    for n_pairs in (True, 5.0):
        with pytest.raises(TypeError, match=f"^n_pairs must be an int, got {n_pairs}$"):
            run_block(1, n_pairs, rng)
        with pytest.raises(TypeError, match=f"^n_pairs must be an int, got {n_pairs}$"):
            transmit_message([1, 0], n_pairs, rng)
    assert rng.random() == np.random.default_rng(0).random()


def test_transmit_rejects_messages_above_the_cap():
    rng = np.random.default_rng(0)
    for bits in ([], [1, 0] * (1 << 15) + [1]):
        with pytest.raises(ValueError, match=f"message must have between 1 and 65536 bits, got {len(bits)}"):
            transmit_message(bits, 1, rng)
    # rejected before a single child stream was spawned
    assert rng.spawn(1)[0].random() == np.random.default_rng(0).spawn(1)[0].random()


def test_transmit_reads_a_bool_array_as_its_list():
    message = [True, False, True, True]
    expected = transmit_message(message, 3, np.random.default_rng(15))
    assert transmit_message(np.array(message), 3, np.random.default_rng(15)) == expected


def test_transmit_all_zeros_is_error_free():
    decoded = transmit_message([0, 0, 0], 10, np.random.default_rng(10))
    assert decoded == [0, 0, 0]


def test_transmit_single_one_with_redundancy():
    # miss probability 0.5**10; this seed decodes correctly
    assert transmit_message([1], 10, np.random.default_rng(11)) == [1]


def test_transmit_per_bit_error_rate_matches_binomial():
    blocks = 2000
    decoded = transmit_message([1] * blocks, 4, np.random.default_rng(12))
    misses = decoded.count(0)
    expected = 0.5**4
    stderr = math.sqrt(expected * (1.0 - expected) / blocks)
    assert abs(misses / blocks - expected) < 3 * stderr


def test_transmit_compiles_each_circuit_at_most_once(monkeypatch):
    message = [int(i % 3 == 0) for i in range(1000)]
    expected = transmit_message(message, 2, np.random.default_rng(14))
    calls = []
    compile_circuit = dsl._compile

    def counting(circuit):
        calls.append(circuit)
        return compile_circuit(circuit)

    monkeypatch.setattr(dsl, "_compile", counting)
    monkeypatch.setattr(protocol, "_compile", counting, raising=False)
    assert transmit_message(message, 2, np.random.default_rng(14)) == expected
    # the two protocol circuits, or none if an earlier call compiled them
    assert len(calls) <= 2


def test_transmit_is_deterministic_per_seed():
    message = [1, 0, 1, 1, 0]
    first = transmit_message(message, 6, np.random.default_rng(13))
    second = transmit_message(message, 6, np.random.default_rng(13))
    assert first == second


def test_transmit_sends_bit_i_on_child_stream_i():
    # one-pair blocks of bit 1 decode a fair coin each, so the decoded list is
    # the child streams' coins in spawn order, and reversing it changes it
    message = [1, 1, 0, 1, 1, 1, 0, 1]
    streams = np.random.default_rng(16).spawn(len(message))
    expected = [run_block(bit, 1, stream).decoded_bit for bit, stream in zip(message, streams)]
    assert expected != expected[::-1]
    assert transmit_message(message, 1, np.random.default_rng(16)) == expected


def test_transmit_rejects_empty_message():
    with pytest.raises(ValueError):
        transmit_message([], 10, np.random.default_rng(0))


def test_transmit_rejects_non_integral_bits():
    # no float is truncated into a bit
    with pytest.raises(ValueError, match=r"^message bit 0 must be 0 or 1, got 0\.5$"):
        transmit_message([0.5, 1.9], 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^message bit 1 must be 0 or 1, got '1'$"):
        transmit_message([1, "1"], 10, np.random.default_rng(0))


def test_transmit_checks_the_length_before_reading_bits():
    # a sized message is rejected by its length, an unsized one after one
    # bit past the cap, neither by converting ten million elements
    for bits, got in ((range(10**7), "10000000"), (iter(range(10**7)), "more than 65536")):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"message must have between 1 and 65536 bits, got {got}"):
                transmit_message(bits, 10, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
    # an unsized message within the cap is sent as a list would be
    assert (transmit_message(iter([1, 0, 1]), 10, np.random.default_rng(14))
            == transmit_message([1, 0, 1], 10, np.random.default_rng(14)))


def test_transmit_rejects_non_bits():
    # the error names the first bad bit, not the whole message
    for bits, index in (([0, 2], 1), ([0] * 65535 + [2], 65535)):
        with pytest.raises(ValueError) as excinfo:
            transmit_message(bits, 10, np.random.default_rng(0))
        message = str(excinfo.value)
        assert len(message) < 100
        assert message == f"message bit {index} must be 0 or 1, got 2"
