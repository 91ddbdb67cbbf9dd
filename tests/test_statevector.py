import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeRandom, random_state
from qsignal import (
    GateKind,
    GateOp,
    StateVector,
    apply_gate,
    cnot,
    collapse_qubit,
    hadamard,
    measure_qubit,
    new_ground_state,
    not_gate,
    outcome_distribution,
)
from qsignal.dsl import _evolve, parse
from qsignal.statevector import MIN_BRANCH_PROBABILITY, _measure

R = 1.0 / math.sqrt(2.0)


def amps(state):
    return state.amplitudes


# --- construction -----------------------------------------------------------


def test_ground_state_two_qubits():
    assert np.array_equal(amps(new_ground_state(2)), [1, 0, 0, 0])


def test_ground_state_one_qubit():
    assert np.array_equal(amps(new_ground_state(1)), [1, 0])


def test_ground_state_three_qubits():
    assert np.array_equal(amps(new_ground_state(3)), [1, 0, 0, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("n", [0, -1, 25, 100])
def test_ground_state_rejects_bad_qubit_counts(n):
    with pytest.raises(ValueError):
        new_ground_state(n)


def test_statevector_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])


def test_statevector_rejects_scalar_length():
    with pytest.raises(ValueError):
        StateVector([1.0])


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])


def test_statevector_rejects_non_finite():
    with pytest.raises(ValueError):
        StateVector([np.nan, 0.0])
    with pytest.raises(ValueError):
        StateVector([np.inf, 0.0])


def test_amplitudes_are_read_only():
    state = new_ground_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# --- gates -------------------------------------------------------------------


def test_hadamard_on_zero():
    state = apply_gate(new_ground_state(1), hadamard(0))
    assert np.allclose(amps(state), [R, R], rtol=0, atol=1e-12)


def test_hadamard_on_one():
    state = apply_gate(StateVector([0, 1]), hadamard(0))
    assert np.allclose(amps(state), [R, -R], rtol=0, atol=1e-12)


def test_not_gate_flips_qubit():
    state = apply_gate(new_ground_state(2), not_gate(1))
    assert np.array_equal(amps(state), [0, 0, 1, 0])


def test_cnot_flips_target_when_control_set():
    # control qubit 0 = 1, target qubit 1 = 0: basis index 1 -> index 3
    state = apply_gate(StateVector([0, 1, 0, 0]), cnot(0, 1))
    assert np.array_equal(amps(state), [0, 0, 0, 1])


def test_cnot_leaves_state_when_control_clear():
    state = apply_gate(new_ground_state(2), cnot(0, 1))
    assert np.array_equal(amps(state), [1, 0, 0, 0])


def test_cnot_on_middle_qubits_of_three():
    # |010> = index 2; control qubit 1 set, so target qubit 2 flips: index 6
    state = apply_gate(StateVector([0, 0, 1, 0, 0, 0, 0, 0]), cnot(1, 2))
    assert np.array_equal(amps(state), [0, 0, 0, 0, 0, 0, 1, 0])


def test_apply_gate_does_not_modify_input():
    state = new_ground_state(2)
    before = amps(state).copy()
    apply_gate(state, hadamard(0))
    assert np.array_equal(amps(state), before)


@given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_gate_norm_preservation_and_involution(seed, num_qubits, data):
    rng = np.random.default_rng(seed)
    state = random_state(rng, num_qubits)
    q = data.draw(st.integers(0, num_qubits - 1))
    if num_qubits > 1 and data.draw(st.booleans()):
        t = data.draw(st.integers(0, num_qubits - 1).filter(lambda x: x != q))
        gate = cnot(q, t)
    else:
        gate = data.draw(st.sampled_from([hadamard(q), not_gate(q)]))
    once = apply_gate(state, gate)
    assert abs(once.norm() - 1.0) < 1e-12
    twice = apply_gate(once, gate)
    assert np.allclose(amps(twice), amps(state), rtol=0, atol=1e-12)


def test_norm_preserved_for_thousand_random_states_and_gates():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        state = random_state(rng, n)
        q = int(rng.integers(0, n))
        if n > 1 and rng.random() < 0.4:
            t = int(rng.integers(0, n - 1))
            gate = cnot(q, t if t < q else t + 1)
        else:
            gate = hadamard(q) if rng.random() < 0.5 else not_gate(q)
        assert abs(apply_gate(state, gate).norm() - 1.0) < 1e-12


def test_basis_swap_identity_on_basis_states():
    # Conjugating CNOT(0->1) by Hadamards on both qubits swaps control and target.
    for index in range(4):
        start = np.zeros(4)
        start[index] = 1.0
        lhs = StateVector(start)
        for gate in (hadamard(0), hadamard(1), cnot(0, 1), hadamard(0), hadamard(1)):
            lhs = apply_gate(lhs, gate)
        rhs = apply_gate(StateVector(start), cnot(1, 0))
        assert np.allclose(amps(lhs), amps(rhs), rtol=0, atol=1e-12)


def test_gateop_rejects_equal_cnot_operands():
    with pytest.raises(ValueError):
        cnot(1, 1)


def test_gateop_rejects_negative_indices():
    with pytest.raises(ValueError):
        hadamard(-1)
    with pytest.raises(ValueError):
        cnot(-1, 0)


def test_gateop_rejects_wrong_arity():
    with pytest.raises(ValueError):
        GateOp(GateKind.CNOT, (0,))
    with pytest.raises(ValueError):
        GateOp(GateKind.HADAMARD, (0, 1))


def test_apply_gate_rejects_out_of_range_index():
    state = new_ground_state(2)
    with pytest.raises(ValueError):
        apply_gate(state, hadamard(2))
    with pytest.raises(ValueError):
        apply_gate(state, cnot(0, 5))


# --- Born probabilities ------------------------------------------------------


def brute_force_distribution(state, qubit):
    """Oracle: direct sum of |amplitude|^2 over matching basis indices."""
    p = [0.0, 0.0]
    for index, amplitude in enumerate(state.amplitudes):
        p[(index >> qubit) & 1] += abs(amplitude) ** 2
    return p[0], p[1]


def test_outcome_distribution_ground_state():
    assert outcome_distribution(new_ground_state(2), 0) == (1.0, 0.0)


def test_outcome_distribution_superposed_qubit_one():
    state = StateVector([R, 0, R, 0])
    p0, p1 = outcome_distribution(state, 1)
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12
    # qubit 0 carries no superposition in this state
    assert outcome_distribution(state, 0)[1] == 0.0


def test_outcome_distribution_matches_brute_force_on_bell():
    bell = StateVector([R, 0, 0, R])
    for qubit in (0, 1):
        expected = brute_force_distribution(bell, qubit)
        got = outcome_distribution(bell, qubit)
        assert abs(got[0] - expected[0]) < 1e-12
        assert abs(got[1] - expected[1]) < 1e-12


def test_outcome_distribution_matches_brute_force_on_random_states():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        state = random_state(rng, n)
        qubit = int(rng.integers(0, n))
        expected = brute_force_distribution(state, qubit)
        got = outcome_distribution(state, qubit)
        assert abs(got[0] - expected[0]) < 1e-12
        assert abs(got[1] - expected[1]) < 1e-12
        assert abs(got[0] + got[1] - 1.0) < 1e-12


def test_outcome_distribution_rejects_bad_qubit():
    with pytest.raises(ValueError):
        outcome_distribution(new_ground_state(2), 2)


# --- measurement -------------------------------------------------------------


def test_measure_eigenstate_is_deterministic():
    state = new_ground_state(2)
    result = measure_qubit(state, 0, FakeRandom(0.99))
    assert result.outcome == 0
    assert result.probability == 1.0
    assert np.array_equal(amps(result.post_state), [1, 0, 0, 0])


def test_measure_bell_collapses_to_matching_branch():
    bell = StateVector([R, 0, 0, R])
    low = measure_qubit(bell, 1, FakeRandom(0.1))
    assert low.outcome == 0
    assert abs(low.probability - 0.5) < 1e-12
    assert np.allclose(amps(low.post_state), [1, 0, 0, 0], rtol=0, atol=1e-12)
    high = measure_qubit(bell, 1, FakeRandom(0.9))
    assert high.outcome == 1
    assert abs(high.probability - 0.5) < 1e-12
    assert np.allclose(amps(high.post_state), [0, 0, 0, 1], rtol=0, atol=1e-12)


def test_measure_superposed_receiver_branch_signs():
    state = StateVector([R, 0, -R, 0])
    minus = measure_qubit(state, 1, FakeRandom(0.9))
    assert minus.outcome == 1
    assert np.allclose(amps(minus.post_state), [0, 0, -1, 0], rtol=0, atol=1e-12)
    # the other qubit is deterministic whatever the draw says
    forced = measure_qubit(state, 0, FakeRandom(0.999999))
    assert forced.outcome == 0


def test_measure_post_state_zeros_are_exact():
    bell = StateVector([R, 0, 0, R])
    result = measure_qubit(bell, 0, FakeRandom(0.3))
    post = amps(result.post_state)
    discarded = [i for i in range(4) if ((i >> 0) & 1) != result.outcome]
    assert all(post[i] == 0.0 for i in discarded)


def test_measure_consumes_exactly_one_draw():
    fake = FakeRandom(0.5)
    measure_qubit(new_ground_state(1), 0, fake)
    assert fake.calls == 1


def test_measure_never_selects_tiny_branch():
    eps = 1e-9  # branch probability 1e-18, below the cutoff
    state = StateVector([math.sqrt(1.0 - eps**2), eps])
    for u in (0.0, 0.5, 0.999999999):
        assert measure_qubit(state, 0, FakeRandom(u)).outcome == 0


def test_measure_input_state_is_unchanged():
    bell = StateVector([R, 0, 0, R])
    before = amps(bell).copy()
    measure_qubit(bell, 0, FakeRandom(0.7))
    assert np.array_equal(amps(bell), before)


def test_collapse_idempotence():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        state = random_state(rng, n)
        qubit = int(rng.integers(0, n))
        first = measure_qubit(state, qubit, rng)
        second = measure_qubit(first.post_state, qubit, rng)
        assert second.outcome == first.outcome
        assert abs(second.probability - 1.0) < 1e-12


def test_measure_frequencies_match_distribution():
    rng = np.random.default_rng(123)
    state = random_state(rng, 2)
    qubit = 1
    _, p1 = outcome_distribution(state, qubit)
    draws = 100_000
    ones = sum(measure_qubit(state, qubit, rng).outcome for _ in range(draws))
    stderr = math.sqrt(p1 * (1.0 - p1) / draws)
    assert abs(ones / draws - p1) < 3 * stderr


def test_collapse_qubit_rejects_tiny_branch():
    with pytest.raises(ValueError):
        collapse_qubit(new_ground_state(2), 0, 1)


def test_collapse_qubit_rejects_bad_outcome():
    with pytest.raises(ValueError):
        collapse_qubit(new_ground_state(2), 0, 2)


def test_batched_measure_matches_measure_qubit():
    # measure_qubit is a batch-1 call of _measure: one batched call over
    # many columns must give each column exactly what measure_qubit gives it
    rng = np.random.default_rng(17)
    qubit = 1
    tiny = 0.1 * MIN_BRANCH_PROBABILITY
    states = [random_state(rng, 2) for _ in range(4)] + [
        new_ground_state(2),  # p1 = 0 exactly
        StateVector([math.sqrt(1 - tiny), 0, math.sqrt(tiny), 0]),  # p1 below the floor
        StateVector([math.sqrt(tiny), 0, math.sqrt(1 - tiny), 0]),  # p0 below the floor
    ]
    rows = [
        (state, float(u))
        for state in states
        for p0 in [outcome_distribution(state, qubit)[0]]
        for u in (0.0, p0, np.nextafter(p0, 0.0), 0.5, 1.0 - 1e-16)
    ]
    batch = np.array([state.amplitudes for state, _ in rows]).T.copy()
    ones, probability = _measure(batch, qubit, np.array([u for _, u in rows]))
    assert ones.any() and not ones.all()
    for k, (state, u) in enumerate(rows):
        result = measure_qubit(state, qubit, FakeRandom(u))
        assert result.outcome == int(ones[k])
        assert result.probability >= MIN_BRANCH_PROBABILITY
        assert result.probability == probability[k]
        assert np.array_equal(result.post_state.amplitudes, batch[:, k])


def test_dtype_boundary_real_executor_complex_statevector():
    # the executor runs float64 amplitudes with the amplitude axis first
    circuit = parse("qubits 3\nh 2\ncnot 2 0\nmeasure 0\nx 1\nmeasure 1")
    for amps, _ in _evolve(circuit, 5):
        assert amps.dtype == np.float64 and amps.shape == (8, 5)
        assert amps.flags.c_contiguous
    # the public operations keep complex128 amplitudes, with the values
    # the index-pair formulas give
    a = random_state(np.random.default_rng(23), 2).amplitudes
    h = apply_gate(StateVector(a), hadamard(1)).amplitudes
    assert h.dtype == np.complex128
    assert np.array_equal(h, [(a[0] + a[2]) * R, (a[1] + a[3]) * R,
                              (a[0] - a[2]) * R, (a[1] - a[3]) * R])
    c = apply_gate(StateVector(a), cnot(1, 0)).amplitudes
    assert c.dtype == np.complex128 and np.array_equal(c, a[[0, 1, 3, 2]])
    result = measure_qubit(StateVector(a), 1, FakeRandom(0.0))
    p0 = (a.real**2 + a.imag**2)[:2].sum()
    assert result.outcome == 0 and result.probability == p0
    post = result.post_state.amplitudes
    assert post.dtype == np.complex128
    assert np.array_equal(post, [a[0] * (1.0 / np.sqrt(p0)), a[1] * (1.0 / np.sqrt(p0)), 0, 0])
    assert not np.signbit(post[2:].view(np.float64)).any()  # the lost branch is +0.0
