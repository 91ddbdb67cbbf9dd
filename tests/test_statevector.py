import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeRandom, random_state
from qsignal import (
    Instruction,
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
from qsignal.dsl import parse
from qsignal import statevector
from qsignal.statevector import MIN_BRANCH_PROBABILITY

import dense

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


@pytest.mark.parametrize("n", [0, -1, 25, 100, True, 2.0])
def test_ground_state_rejects_bad_qubit_counts(n):
    with pytest.raises(ValueError, match=re.escape(f"qubit count must be between 1 and 24, got {n!r}")):
        new_ground_state(n)


def test_statevector_takes_the_qubit_count_cap_of_parse(monkeypatch):
    # 2**25 amplitudes would take 512 MiB, so the cap is lowered instead
    monkeypatch.setattr(statevector, "MAX_QUBITS", 2)
    with pytest.raises(ValueError, match="^qubit count must be between 1 and 2, got 3$"):
        StateVector(np.eye(8)[0])


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


def test_statevector_repr_names_its_qubit_count():
    assert repr(new_ground_state(3)) == "StateVector(num_qubits=3)"


@pytest.mark.parametrize("other, atol, close", [
    # the same leading amplitudes on a wider register
    (StateVector([1, 0, 0, 0, 0, 0, 0, 0]), 1e-12, False),
    (StateVector([math.sqrt(1 - 1e-20), 1e-10, 0, 0]), 1e-9, True),
    (StateVector([math.sqrt(1 - 1e-20), 1e-10, 0, 0]), 1e-11, False),
])
def test_allclose_compares_qubit_counts_then_amplitudes_within_atol(other, atol, close):
    state = new_ground_state(2)
    assert state.allclose(other, atol) is close
    assert other.allclose(state, atol) is close


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
        apply_gate(new_ground_state(2), Instruction("cnot", (0,)))
    with pytest.raises(ValueError):
        apply_gate(new_ground_state(2), Instruction("h", (0, 1)))


def test_apply_gate_checks_a_statement_against_the_states_qubits():
    state = new_ground_state(2)
    with pytest.raises(ValueError, match="^cnot operands must differ$"):
        apply_gate(state, Instruction("cnot", (1, 1)))
    with pytest.raises(ValueError, match="^unknown mnemonic 'swap'$"):
        apply_gate(state, Instruction("swap", (0, 1)))
    with pytest.raises(ValueError, match="^apply_gate takes a gate, not 'measure'$"):
        apply_gate(state, Instruction("measure", (0,)))
    # a gate of a parsed circuit runs as it is, its line number ignored
    bell = apply_gate(apply_gate(state, Instruction("h", (1,), line=2)), Instruction("cnot", (1, 0), line=3))
    assert bell.allclose(StateVector([R, 0, 0, R]))


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


@pytest.mark.parametrize("qubit", [2, -1, 1.0, True, np.int64(1)], ids=repr)
def test_public_operations_take_the_operand_check_of_parse(qubit):
    message = "^" + re.escape(f"qubit index {qubit!r} out of range for 2 qubit(s)") + "$"
    pair = StateVector([R, 0, 0, R])
    for operation in (
        lambda: outcome_distribution(pair, qubit),
        lambda: measure_qubit(pair, qubit, FakeRandom(0.5)),
        lambda: collapse_qubit(pair, qubit, 0),
    ):
        with pytest.raises(ValueError, match=message):
            operation()


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
    for outcome in (2, 1.0, 0.0, -1, "1"):
        with pytest.raises(ValueError, match=f"^outcome must be 0 or 1, got {re.escape(repr(outcome))}$"):
            collapse_qubit(new_ground_state(2), 0, outcome)


def test_collapse_qubit_reads_a_numpy_bool_as_its_bool():
    pair = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    for outcome in (np.False_, np.True_, np.array(True)):
        collapsed = collapse_qubit(pair, 0, outcome).amplitudes.tolist()
        assert collapsed == collapse_qubit(pair, 0, bool(outcome)).amplitudes.tolist()


def test_measure_qubit_edge_draws_follow_the_draw_rule():
    # outcome 0 iff u < p0, except that a branch below the floor is never
    # selected; the post-state is collapse_qubit's, byte for byte
    rng = np.random.default_rng(17)
    qubit = 1
    tiny = 0.1 * MIN_BRANCH_PROBABILITY
    states = [random_state(rng, 2) for _ in range(4)] + [
        new_ground_state(2),  # p1 = 0 exactly
        StateVector([math.sqrt(1 - tiny), 0, math.sqrt(tiny), 0]),  # p1 below the floor
        StateVector([math.sqrt(tiny), 0, math.sqrt(1 - tiny), 0]),  # p0 below the floor
    ]
    drawn = set()
    for state in states:
        p0, p1 = outcome_distribution(state, qubit)
        for u in (0.0, p0, np.nextafter(p0, 0.0), 0.5, 1.0 - 1e-16):
            if p1 < MIN_BRANCH_PROBABILITY:
                outcome = 0
            elif p0 < MIN_BRANCH_PROBABILITY:
                outcome = 1
            else:
                outcome = int(u >= p0)
            result = measure_qubit(state, qubit, FakeRandom(float(u)))
            assert result.outcome == outcome
            assert result.probability >= MIN_BRANCH_PROBABILITY
            assert result.probability == (p0, p1)[outcome]
            collapsed = collapse_qubit(state, qubit, outcome)
            assert result.post_state.amplitudes.tobytes() == collapsed.amplitudes.tobytes()
            drawn.add(outcome)
    assert drawn == {0, 1}


def test_collapse_zeros_come_out_positive():
    # the kept branch holds -0.0 real and imaginary parts, and x * s keeps
    # them; every zero of the post-state is +0.0 and every other part is
    # a * (1 / sqrt(p)) bit for bit
    a = np.array([complex(-0.0, 0.6), complex(0.48, -0.0), complex(-0.0, -0.0), complex(-0.64, 0.0)])
    state = StateVector(a)
    for qubit in (0, 1):
        for outcome in (0, 1):
            p = outcome_distribution(state, qubit)[outcome]
            kept = (np.arange(4) >> qubit & 1) == outcome
            expected = np.where(kept, a * (1.0 / np.sqrt(p)), 0.0).view(np.float64)
            measured = measure_qubit(state, qubit, FakeRandom(1.0 - 1e-16 if outcome else 0.0))
            assert measured.outcome == outcome
            for post in (measured.post_state, collapse_qubit(state, qubit, outcome)):
                parts = post.amplitudes.view(np.float64)
                assert not np.signbit(parts[parts == 0.0]).any()
                assert np.array_equal(parts, expected)  # equal floats other than zeros are equal bits


def test_dtype_boundary_real_executor_complex_statevector():
    # the dense oracle (tests/dense.py) runs its own gates on float64
    # amplitudes, amplitude axis first and one column per shot
    circuit = parse("qubits 3\nh 2\ncnot 2 0\nmeasure 0\nx 1\nmeasure 1")
    for amps, _ in dense.evolve(circuit, 5):
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
