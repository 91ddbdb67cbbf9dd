import math

import numpy as np
import pytest

from qsignal import (
    ALICE_QUBIT,
    BOB_QUBIT,
    AliceAction,
    StateVector,
    ZChannel,
    ancilla_model_distribution,
    block_error_probability,
    channel_capacity,
    collapse_qubit,
    exact_distribution,
    monte_carlo_block_error,
    monte_carlo_distribution,
    mutual_information,
    outcome_distribution,
    prepare_pair,
    restore,
    z_channel_capacity,
    z_channel_mutual_information,
)
from qsignal.channel import MAX_TRIALS, _joint_counts, binary_entropy
from qsignal.protocol import MAX_PAIRS


# --- exact distribution -------------------------------------------------------


def test_exact_bit_zero_is_noiseless():
    dist = exact_distribution(0)
    assert dist.p_bob_1 == 0.0
    assert abs(dist.p_bob_0 - 1.0) < 1e-12


def test_exact_bit_one_is_fair():
    dist = exact_distribution(1)
    assert abs(dist.p_bob_0 - 0.5) < 1e-12
    assert abs(dist.p_bob_1 - 0.5) < 1e-12


@pytest.mark.parametrize("alice_outcome", [0, 1])
def test_exact_conditional_branches_are_fair(alice_outcome):
    # conditioned on either sender outcome, the receiver still sees a fair coin
    branch = collapse_qubit(prepare_pair(), ALICE_QUBIT, alice_outcome)
    p0, p1 = outcome_distribution(restore(branch), BOB_QUBIT)
    assert abs(p0 - 0.5) < 1e-12
    assert abs(p1 - 0.5) < 1e-12


# --- block error probability ---------------------------------------------------


def test_block_error_probability_ten_pairs():
    assert block_error_probability(10) == 0.0009765625


def test_block_error_probability_single_pair():
    assert block_error_probability(1) == 0.5


def test_block_error_probability_twenty_pairs():
    assert block_error_probability(20) == 0.5**20


@pytest.mark.parametrize("n", [0, -1])
def test_block_error_probability_rejects_bad_counts(n):
    with pytest.raises(ValueError):
        block_error_probability(n)


def test_z_channel_fields():
    chan = ZChannel(10)
    assert chan.p_false_one == 0.0
    assert chan.p_missed_one == 0.0009765625
    with pytest.raises(ValueError):
        ZChannel(0)


# --- Monte Carlo ---------------------------------------------------------------


def test_monte_carlo_bit_zero_never_signals():
    result = monte_carlo_distribution(0, 100_000, np.random.default_rng(1))
    assert result.count_bob_1 == 0
    assert result.p_bob_1 == 0.0
    assert result.stderr == 0.0


def test_monte_carlo_bit_one_three_sigma():
    trials = 100_000
    result = monte_carlo_distribution(1, trials, np.random.default_rng(2))
    assert abs(result.p_bob_1 - 0.5) < 3 * math.sqrt(0.25 / trials)
    assert result.trials == trials
    assert abs(result.p_bob_0 + result.p_bob_1 - 1.0) < 1e-12


def test_monte_carlo_matches_exact_for_both_actions():
    for action in (AliceAction.SKIP, AliceAction.MEASURE):
        exact = exact_distribution(action)
        mc = monte_carlo_distribution(action, 100_000, np.random.default_rng(3))
        tolerance = 3 * math.sqrt(exact.p_bob_1 * exact.p_bob_0 / mc.trials)
        assert abs(mc.p_bob_1 - exact.p_bob_1) <= tolerance


def test_monte_carlo_is_deterministic_per_seed():
    a = monte_carlo_distribution(1, 70_000, np.random.default_rng(4))
    b = monte_carlo_distribution(1, 70_000, np.random.default_rng(4))
    assert a == b


def test_monte_carlo_is_worker_independent():
    results = [
        monte_carlo_distribution(1, 200_000, np.random.default_rng(5), workers=w)
        for w in (1, 2, 5)
    ]
    assert results[0] == results[1] == results[2]


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        monte_carlo_distribution(1, 0, np.random.default_rng(0))


def test_monte_carlo_rejects_trials_above_the_cap():
    rng = np.random.default_rng(0)
    for run in (
        lambda: monte_carlo_distribution(1, MAX_TRIALS + 1, rng),
        lambda: monte_carlo_block_error(1, 1, MAX_TRIALS + 1, rng, workers=2),
        lambda: _joint_counts(MAX_TRIALS + 1, rng),
    ):
        with pytest.raises(ValueError, match="trials must be between 1 and"):
            run()
    # rejected before a single child stream was spawned
    assert rng.spawn(1)[0].random() == np.random.default_rng(0).spawn(1)[0].random()


def test_monte_carlo_block_error_bounds_pairs_before_any_stream():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"n_pairs must be between 1 and {MAX_PAIRS}, got"):
        monte_carlo_block_error(1, MAX_PAIRS + 1, 1, rng)
    # every pair of every block counts against the trials cap
    cap = MAX_TRIALS // MAX_PAIRS
    with pytest.raises(ValueError, match=f"trials must be between 1 and {cap}, got"):
        monte_carlo_block_error(1, MAX_PAIRS, cap + 1, rng, workers=2)
    assert rng.spawn(1)[0].random() == np.random.default_rng(0).spawn(1)[0].random()


def test_block_error_monte_carlo_consistency():
    # empirical block error tracks 0.5**n across block sizes
    for n_pairs in (1, 2, 4, 8, 10):
        blocks = 100_000
        est = monte_carlo_block_error(1, n_pairs, blocks, np.random.default_rng(6))
        expected = block_error_probability(n_pairs)
        stderr = math.sqrt(expected * (1.0 - expected) / blocks)
        assert abs(est.error_rate - expected) < 3 * stderr


def test_block_error_bit_zero_is_exactly_zero():
    est = monte_carlo_block_error(0, 5, 10_000, np.random.default_rng(7))
    assert est.count_decoded_one == 0
    assert est.error_rate == 0.0


def test_block_error_worker_independence():
    a = monte_carlo_block_error(1, 4, 150_000, np.random.default_rng(8), workers=1)
    b = monte_carlo_block_error(1, 4, 150_000, np.random.default_rng(8), workers=4)
    assert a == b


def test_joint_counts_factorize():
    trials = 100_000
    table = _joint_counts(trials, np.random.default_rng(9))
    assert table.sum() == trials
    # sender marginal is fair, and the receiver is fair within each branch
    assert abs(table[1].sum() / trials - 0.5) < 3 * math.sqrt(0.25 / trials)
    for a in (0, 1):
        branch = table[a].sum()
        assert abs(table[a, 1] / branch - 0.5) < 3 * math.sqrt(0.25 / branch)


# --- information measures -------------------------------------------------------


def joint_mutual_information(p_missed_one, prior_p1):
    """Oracle: I(X;Y) straight from the joint table, sum p log p/(px py)."""
    joint = {
        (0, 0): (1.0 - prior_p1),
        (0, 1): 0.0,
        (1, 0): prior_p1 * p_missed_one,
        (1, 1): prior_p1 * (1.0 - p_missed_one),
    }
    px = {x: joint[x, 0] + joint[x, 1] for x in (0, 1)}
    py = {y: joint[0, y] + joint[1, y] for y in (0, 1)}
    total = 0.0
    for (x, y), p in joint.items():
        if p > 0.0:
            total += p * math.log2(p / (px[x] * py[y]))
    return total


def closed_form_z_capacity(p_missed_one):
    """Oracle: textbook closed form for the Z-channel capacity and its prior."""
    q = p_missed_one
    if q == 0.0:
        return 1.0, 0.5
    if q == 1.0:
        return 0.0, 0.0
    prior = 1.0 / ((1.0 - q) * (1.0 + 2.0 ** (binary_entropy(q) / (1.0 - q))))
    capacity = math.log2(1.0 + (1.0 - q) * q ** (q / (1.0 - q)))
    return capacity, prior


def test_mutual_information_single_pair_against_oracle():
    got = mutual_information(ZChannel(1), 0.5)
    assert abs(got - joint_mutual_information(0.5, 0.5)) < 1e-9
    assert abs(got - 0.3112781244591329) < 1e-12


def test_mutual_information_matches_oracle_on_grid():
    for n_pairs in (1, 2, 10):
        chan = ZChannel(n_pairs)
        for prior in np.linspace(0.0, 1.0, 21):
            got = mutual_information(chan, float(prior))
            assert abs(got - joint_mutual_information(chan.p_missed_one, float(prior))) < 1e-9


def test_mutual_information_noiseless_limit():
    assert z_channel_mutual_information(0.0, 0.5) == 1.0


def test_mutual_information_degenerate_priors():
    chan = ZChannel(3)
    assert mutual_information(chan, 0.0) == 0.0
    assert mutual_information(chan, 1.0) == 0.0


def test_mutual_information_nonnegative_and_concave():
    for n_pairs in (1, 2, 4, 10):
        chan = ZChannel(n_pairs)
        values = [mutual_information(chan, p) for p in np.linspace(0.0, 1.0, 101)]
        assert all(v >= 0.0 for v in values)
        for i in range(1, 100):
            assert values[i - 1] + values[i + 1] - 2 * values[i] <= 1e-12


def test_mutual_information_rejects_bad_arguments():
    with pytest.raises(ValueError):
        z_channel_mutual_information(-0.1, 0.5)
    with pytest.raises(ValueError):
        mutual_information(ZChannel(1), 1.5)


def test_capacity_degenerate_channels():
    assert z_channel_capacity(0.0) == (1.0, 0.5)
    assert z_channel_capacity(1.0) == (0.0, 0.0)


def test_capacity_matches_closed_form():
    for n_pairs in (1, 2, 4, 10):
        capacity, prior = channel_capacity(ZChannel(n_pairs))
        expected_capacity, expected_prior = closed_form_z_capacity(0.5**n_pairs)
        assert abs(capacity - expected_capacity) < 1e-6
        assert abs(prior - expected_prior) < 1e-6


def test_capacity_single_pair_against_dense_grid():
    # exhaustive grid with step 1e-6 over the prior, cross-checked twice over
    priors = np.linspace(0.0, 1.0, 1_000_001)
    p_y1 = priors * 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(np.where(p_y1 > 0, p_y1 * np.log2(np.where(p_y1 > 0, p_y1, 1.0)), 0.0)
              + np.where(p_y1 < 1, (1 - p_y1) * np.log2(np.where(p_y1 < 1, 1 - p_y1, 1.0)), 0.0))
    values = h - priors  # H2(0.5) == 1 exactly
    best = int(np.argmax(values))
    capacity, prior = channel_capacity(ZChannel(1))
    assert abs(capacity - values[best]) < 1e-9
    assert abs(prior - priors[best]) < 2e-6
    assert abs(capacity - math.log2(1.25)) < 1e-9
    assert abs(prior - 0.4) < 1e-6


# --- ancilla model ---------------------------------------------------------------


def kron_pipeline_distribution(measure: bool):
    """Oracle: build the three-qubit pipeline from explicit kron matrices."""
    identity = np.eye(2)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)

    def single(qubit, mat):
        full = np.eye(1)
        for q in reversed(range(3)):
            full = np.kron(full, mat if q == qubit else identity)
        return full

    def cnot_matrix(control, target):
        m = np.zeros((8, 8))
        for i in range(8):
            j = i ^ (1 << target) if (i >> control) & 1 else i
            m[j, i] = 1.0
        return m

    steps = [single(1, h), cnot_matrix(1, 0)]
    if measure:
        steps.append(cnot_matrix(0, 2))
    steps += [cnot_matrix(1, 0), single(1, h)]
    state = np.zeros(8)
    state[0] = 1.0
    for step in steps:
        state = step @ state
    p1 = sum(abs(state[i]) ** 2 for i in range(8) if (i >> 1) & 1)
    return 1.0 - p1, p1


def test_ancilla_bit_zero_is_untouched():
    dist = ancilla_model_distribution(0)
    assert dist.p_bob_1 == 0.0
    assert abs(dist.p_bob_0 - 1.0) < 1e-12


def test_ancilla_bit_one_matches_kron_oracle():
    dist = ancilla_model_distribution(1)
    expected = kron_pipeline_distribution(measure=True)
    assert abs(dist.p_bob_0 - expected[0]) < 1e-12
    assert abs(dist.p_bob_1 - expected[1]) < 1e-12


@pytest.mark.parametrize("action", [0, 1])
def test_ancilla_agrees_with_collapse_model(action):
    unitary = ancilla_model_distribution(action)
    collapse = exact_distribution(action)
    assert abs(unitary.p_bob_0 - collapse.p_bob_0) < 1e-12
    assert abs(unitary.p_bob_1 - collapse.p_bob_1) < 1e-12
