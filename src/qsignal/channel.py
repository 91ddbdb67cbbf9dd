"""Analysis of the classical channel the protocol induces.

Both sides run the protocol circuit through the one circuit executor.
Exact side: the receiver's distribution summed over every measurement
record of the circuit, for the collapse model and for a fully unitary
ancilla variant of the sender's measurement, and the asymmetric binary
(Z) channel model with its mutual information and closed-form capacity.
Statistical side: a chunked Monte Carlo engine that samples the circuit,
many trials at once.

Channel orientation: sending 0 is noiseless (the receiver can never
decode 1), sending 1 is missed when every pair in the block comes up 0,
which happens with probability 0.5**n_pairs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dsl import Circuit, Instruction, _branches, _run_batch
from .protocol import AliceAction, _check_pairs, _protocol_circuit

ANCILLA_QUBIT = 2

# Monte Carlo trials are processed in fixed-size chunks, each drawing
# from its own child stream spawned from the caller's generator. Chunk
# boundaries depend only on the trial count, never on worker count, so
# aggregate counts are reproducible at any parallelism degree.
CHUNK_TRIALS = 1 << 16
# Pair runs per call (trials, or blocks times pairs) are checked before
# anything is allocated, so the chunk list and the spawned streams stay small.
MAX_TRIALS = 1 << 32


@dataclass(frozen=True)
class OutcomeDistribution:
    """Receiver-side outcome probabilities for one sender action."""

    p_bob_0: float
    p_bob_1: float

    def __post_init__(self):
        for p in (self.p_bob_0, self.p_bob_1):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probabilities must lie in [0, 1], got {p!r}")
        if abs(self.p_bob_0 + self.p_bob_1 - 1.0) > 1e-12:
            raise ValueError(
                f"probabilities must sum to 1, got {self.p_bob_0 + self.p_bob_1!r}"
            )


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Monte Carlo estimate of an OutcomeDistribution with sampling error.

    ``stderr`` is the binomial standard error sqrt(p*(1-p)/trials); it
    applies to both outcome frequencies.
    """

    p_bob_0: float
    p_bob_1: float
    stderr: float
    trials: int
    count_bob_1: int


@dataclass(frozen=True)
class ZChannel:
    """Classical channel induced by OR-decoded blocks of ``n_pairs`` pairs.

    Crossover probabilities are derived, not stored: decoding 1 on a
    sent 0 is impossible, and a sent 1 is missed with probability
    0.5**n_pairs.
    """

    n_pairs: int

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")

    @property
    def p_false_one(self) -> float:
        return 0.0

    @property
    def p_missed_one(self) -> float:
        return block_error_probability(self.n_pairs)


@dataclass(frozen=True)
class BlockErrorEstimate:
    """Empirical decode statistics over Monte Carlo blocks for one sent bit."""

    bit: int
    n_pairs: int
    blocks: int
    count_decoded_one: int

    @property
    def rate_decoded_one(self) -> float:
        return self.count_decoded_one / self.blocks

    @property
    def error_rate(self) -> float:
        """Frequency of decoded_bit != sent bit."""
        if self.bit == 1:
            return (self.blocks - self.count_decoded_one) / self.blocks
        return self.rate_decoded_one

    @property
    def stderr_error_rate(self) -> float:
        e = self.error_rate
        return math.sqrt(e * (1.0 - e) / self.blocks)


# --- exact analysis ---------------------------------------------------------


def _receiver_distribution(circuit: Circuit) -> OutcomeDistribution:
    """Exact distribution of the circuit's last measurement, the receiver's."""
    records, weights = _branches(circuit)
    bob = records[-1]
    return OutcomeDistribution(float(weights[~bob].sum()), float(weights[bob].sum()))


def _ancilla_circuit(action: AliceAction) -> Circuit:
    """The protocol circuit on 3 qubits, the sender's measure made a CNOT onto the ancilla."""
    *steps, receiver = _protocol_circuit(action).instructions
    return Circuit(3, tuple(
        Instruction("cnot", (*ins.args, ANCILLA_QUBIT)) if ins.op == "measure" else ins
        for ins in steps) + (receiver,))


def exact_distribution(action: AliceAction | int) -> OutcomeDistribution:
    """Receiver outcome distribution by exact branch enumeration.

    Enumerates every measurement record of the protocol circuit with its
    Born weight and sums the weights by the receiver's bit. No sampling
    is involved, so the impossible branch comes out exactly zero.
    """
    return _receiver_distribution(_protocol_circuit(AliceAction(action)))


def block_error_probability(n_pairs: int) -> float:
    """Probability that a sent 1 decodes as 0: all pairs silent, 0.5**n."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    return 0.5**n_pairs


def ancilla_model_distribution(action: AliceAction | int) -> OutcomeDistribution:
    """Receiver marginal when the sender's measurement is kept unitary.

    Instead of collapsing, the sender's qubit is CNOT-copied onto a
    fresh ancilla (the minimal unitary record of a measurement); the
    restoring step then acts on the original pair and the receiver's
    marginal is read off the three-qubit state. Agrees with
    exact_distribution for both actions: the receiver cannot tell the
    two measurement models apart.
    """
    return _receiver_distribution(_ancilla_circuit(AliceAction(action)))


# --- information measures ---------------------------------------------------


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with 0*log(0) taken as 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def z_channel_mutual_information(p_missed_one: float, prior_p1: float) -> float:
    """I(X;Y) in bits for a Z channel with the given 1->0 miss probability."""
    if not 0.0 <= p_missed_one <= 1.0:
        raise ValueError(f"p_missed_one must lie in [0, 1], got {p_missed_one!r}")
    if not 0.0 <= prior_p1 <= 1.0:
        raise ValueError(f"prior_p1 must lie in [0, 1], got {prior_p1!r}")
    p_y1 = prior_p1 * (1.0 - p_missed_one)
    return binary_entropy(p_y1) - prior_p1 * binary_entropy(p_missed_one)


def mutual_information(channel: ZChannel, prior_p1: float) -> float:
    """I(X;Y) in bits for the induced channel under the given input prior."""
    return z_channel_mutual_information(channel.p_missed_one, prior_p1)


def z_channel_capacity(p_missed_one: float) -> tuple[float, float]:
    """(capacity in bits, maximizing prior P(X=1)) for a Z channel.

    Closed form (Tallini, Al-Bassam & Bose, ISIT 2002): the mutual
    information is strictly concave in the prior for miss probabilities
    q in (0, 1) and peaks at 1 / ((1-q)(1 + 2**(H2(q)/(1-q)))). The
    degenerate endpoints are handled directly: a perfect channel peaks
    at prior 1/2, a dead one carries nothing.
    """
    if not 0.0 <= p_missed_one <= 1.0:
        raise ValueError(f"p_missed_one must lie in [0, 1], got {p_missed_one!r}")
    if p_missed_one == 0.0:
        return 1.0, 0.5
    if p_missed_one == 1.0:
        return 0.0, 0.0
    q = p_missed_one
    prior = 1.0 / ((1.0 - q) * (1.0 + 2.0 ** (binary_entropy(q) / (1.0 - q))))
    return z_channel_mutual_information(q, prior), prior


def channel_capacity(channel: ZChannel) -> tuple[float, float]:
    """(capacity in bits, maximizing prior) of the induced channel."""
    return z_channel_capacity(channel.p_missed_one)


# --- vectorized Monte Carlo engine ------------------------------------------


def _simulate(action: AliceAction, count: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome bits of ``count`` independent protocol pairs, one row per
    measurement (the sender's, if she measures, then the receiver's).

    Each measurement draws ``count`` uniforms from ``rng`` in turn.
    """
    return _run_batch(_protocol_circuit(action), rng.random((1 + action.bit, count)))


def _chunk_sizes(trials: int) -> list[int]:
    sizes = [CHUNK_TRIALS] * (trials // CHUNK_TRIALS)
    if trials % CHUNK_TRIALS:
        sizes.append(trials % CHUNK_TRIALS)
    return sizes


def _map_chunks(fn, trials: int, rng: np.random.Generator, workers: int, pairs: int = 1) -> list:
    """Apply ``fn(size, stream)`` over fixed-size chunks of ``pairs``-pair trials."""
    limit = MAX_TRIALS // pairs
    if not 1 <= trials <= limit:
        raise ValueError(f"trials must be between 1 and {limit}, got {trials}")
    sizes = _chunk_sizes(trials)
    streams = rng.spawn(len(sizes))
    if workers <= 1:
        return [fn(size, stream) for size, stream in zip(sizes, streams)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, sizes, streams))


def monte_carlo_distribution(
    action: AliceAction | int,
    trials: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> EmpiricalDistribution:
    """Empirical receiver-outcome frequencies over independent pair trials.

    Counting is order-insensitive and chunk streams are derived from
    ``rng`` up front, so a given master seed yields identical results at
    any ``workers`` setting.
    """
    action = AliceAction(action)

    def chunk_ones(size: int, stream: np.random.Generator) -> int:
        return int(np.count_nonzero(_simulate(action, size, stream)[-1]))

    count_bob_1 = sum(_map_chunks(chunk_ones, trials, rng, workers))
    p1 = count_bob_1 / trials
    p0 = (trials - count_bob_1) / trials
    return EmpiricalDistribution(
        p_bob_0=p0,
        p_bob_1=p1,
        stderr=math.sqrt(p1 * (1.0 - p1) / trials),
        trials=trials,
        count_bob_1=count_bob_1,
    )


def monte_carlo_block_error(
    action: AliceAction | int,
    n_pairs: int,
    blocks: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> BlockErrorEstimate:
    """Empirical OR-decode statistics over Monte Carlo blocks.

    Each block runs ``n_pairs`` fresh pairs through the pipeline and
    decodes their OR, mirroring ``protocol.run_block``.
    """
    action = AliceAction(action)
    _check_pairs(n_pairs)

    def chunk_decoded_ones(size: int, stream: np.random.Generator) -> int:
        any_one = np.zeros(size, dtype=bool)
        for _ in range(n_pairs):
            any_one |= _simulate(action, size, stream)[-1]
        return int(np.count_nonzero(any_one))

    count = sum(_map_chunks(chunk_decoded_ones, blocks, rng, workers, n_pairs))
    return BlockErrorEstimate(
        bit=action.bit, n_pairs=n_pairs, blocks=blocks, count_decoded_one=count
    )


def _joint_counts(trials: int, rng: np.random.Generator, workers: int = 1) -> np.ndarray:
    """2x2 table of (sender outcome, receiver outcome) counts for MEASURE trials."""

    def chunk_table(size: int, stream: np.random.Generator) -> np.ndarray:
        alice, bob = _simulate(AliceAction.MEASURE, size, stream)
        return np.bincount(2 * alice + bob, minlength=4).reshape(2, 2)

    return sum(_map_chunks(chunk_table, trials, rng, workers))
