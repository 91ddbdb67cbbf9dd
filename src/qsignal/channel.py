"""Analysis of the classical channel the protocol induces.

Both sides read the protocol circuit's compiled map (`dsl._compile`).
Exact side: the receiver's distribution read off the map's last entry,
for the collapse model and for a fully unitary ancilla variant of the
sender's measurement, and the binary channel that OR-decoded blocks of
the two protocol circuits induce, with its mutual information and
closed-form capacity.
Statistical side: a chunked Monte Carlo engine that samples the circuit,
many trials at once. An OR-decoded block reads only the receiver's bits,
so a block chunk draws only the receiver's source rows and evaluates its
entry with `dsl._draw`, the rule the shot sampler uses; each skipped
uniform keeps its stream position (`dsl._skip`), so counts are those of
drawing every uniform.

The channel's crossovers are read off the same compiled circuits
(`protocol._COMPILED_CIRCUITS`): a block decodes 0 only when every one of
its pairs leaves the receiver at 0, so each crossover is a power of the
receiver's exact P(0) for that sent bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from threading import Thread

import numpy as np

from .dsl import Circuit, Instruction, _check_count, _Outcome, _compile, _draw, _fill_coins, _skip
from .protocol import (  # noqa: F401
    _COMPILED_CIRCUITS, MAX_TRIALS, AliceAction, _action, _check_pairs, _protocol_circuit)

ANCILLA_QUBIT = 2

# Monte Carlo trials are processed in fixed-size chunks, each drawing
# from its own child stream spawned from the caller's generator. Chunk
# boundaries depend only on the trial count, never on worker count, so
# aggregate counts are reproducible at any parallelism degree.
CHUNK_TRIALS = 1 << 16
# Workers per call, the caller and its helper threads, checked before any stream is spawned.
_MAX_WORKERS = 64
_SLICE = 1 << 15  # coins per slice of a block chunk's row: a 256 KiB temporary for each


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

    Crossover probabilities are derived, not stored, from the receiver's
    exact distribution (`exact_distribution`) for each sent bit: a block
    decodes 0 when all its pairs read 0, so ``p_false_one`` is
    1 - P(0 | send 0)**n_pairs and ``p_missed_one`` is P(0 | send 1)**n_pairs.
    For the paper's circuits these are 0 and 0.5**n_pairs, a Z channel.
    """

    n_pairs: int

    def __post_init__(self):
        object.__setattr__(self, "n_pairs", _check_count("n_pairs", self.n_pairs))

    def _all_zero(self, action: AliceAction) -> float:
        # The compiled map gives the receiver P(0) = 0, 1/2 or 1, so the
        # power is exact, and from 1075 pairs on it is 0.0 (1/2**1075 rounds
        # to 0): capping the exponent there keeps the float and stops a huge
        # int exponent from raising OverflowError.
        return exact_distribution(action).p_bob_0 ** min(self.n_pairs, 1075)

    @property
    def p_false_one(self) -> float:
        return 1.0 - self._all_zero(AliceAction.SKIP)

    @property
    def p_missed_one(self) -> float:
        return self._all_zero(AliceAction.MEASURE)


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


def _receiver_distribution(outcomes: tuple[_Outcome, ...]) -> OutcomeDistribution:
    """Exact distribution of the receiver's bit of a compiled circuit: its
    constant, or a fair coin if it XORs in at least one independent coin."""
    constant, sources = outcomes[-1]
    p1 = 0.5 if sources else float(constant)
    return OutcomeDistribution(1.0 - p1, p1)


def _ancilla_circuit(action: AliceAction) -> Circuit:
    """The protocol circuit on 3 qubits, the sender's measure made a CNOT onto the ancilla."""
    *steps, receiver = _protocol_circuit(action).instructions
    return Circuit(3, tuple(
        Instruction("cnot", (*ins.args, ANCILLA_QUBIT)) if ins.op == "measure" else ins
        for ins in steps) + (receiver,))


def exact_distribution(action: AliceAction | int) -> OutcomeDistribution:
    """Receiver outcome distribution, read off the compiled protocol circuit.

    The receiver's bit is a fixed constant if the sender skips and a fair
    coin if she measures. No sampling is involved, so the impossible
    outcome comes out exactly zero.
    """
    return _receiver_distribution(_COMPILED_CIRCUITS[_action(action)])


def block_error_probability(n_pairs: int) -> float:
    """Probability that a sent 1 decodes as 0, every pair silent:
    ``ZChannel(n_pairs).p_missed_one``, 0.5**n_pairs for the paper's circuits.

    Exact at any int count, 0.0 past the smallest float; a bool or a
    non-integral count raises TypeError."""
    return ZChannel(n_pairs).p_missed_one


def ancilla_model_distribution(action: AliceAction | int) -> OutcomeDistribution:
    """Receiver marginal when the sender's measurement is kept unitary.

    Instead of collapsing, the sender's qubit is CNOT-copied onto a
    fresh ancilla (the minimal unitary record of a measurement); the
    restoring step then acts on the original pair and the receiver's
    marginal is read off the compiled three-qubit circuit. Agrees with
    exact_distribution for both actions: the receiver cannot tell the
    two measurement models apart.
    """
    return _receiver_distribution(_compile(_ancilla_circuit(_action(action))))


# --- information measures ---------------------------------------------------


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with 0*log(0) taken as 0; p outside [0, 1], NaN included, raises."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def mutual_information(channel: ZChannel, prior_p1: float) -> float:
    """I(X;Y) in bits for the induced channel under the input prior P(X=1)."""
    if not 0.0 <= prior_p1 <= 1.0:
        raise ValueError(f"prior_p1 must lie in [0, 1], got {prior_p1!r}")
    a, q = channel.p_false_one, channel.p_missed_one
    p_y1 = (1.0 - prior_p1) * a + prior_p1 * (1.0 - q)
    return (binary_entropy(p_y1) - (1.0 - prior_p1) * binary_entropy(a)
            - prior_p1 * binary_entropy(q))


def channel_capacity(channel: ZChannel) -> tuple[float, float]:
    """(capacity in bits, maximizing prior P(X=1)) of the induced channel.

    Closed form for a binary channel with crossovers a = P(Y=1 | X=0) and
    q = P(Y=0 | X=1), a + q != 1 (Silverman, IRE Trans. IT-1, 1955): the
    mutual information is concave in the prior and peaks where
    P(Y=1) = 1 / (1 + z), z = 2**((H2(q) - H2(a)) / (1 - a - q)). At a = 0
    it is the Z-channel form (Tallini, Al-Bassam & Bose, ISIT 2002), and a
    perfect channel (q = 0 too) peaks at prior 1/2. At a + q = 1 the output
    does not depend on the input: capacity 0, reported at prior 0.
    """
    a, q = channel.p_false_one, channel.p_missed_one
    if a + q == 1.0:
        return 0.0, 0.0
    z = 2.0 ** ((binary_entropy(q) - binary_entropy(a)) / (1.0 - a - q))
    prior = (1.0 - a * (1.0 + z)) / ((1.0 - a - q) * (1.0 + z))
    return mutual_information(channel, prior), prior


# --- vectorized Monte Carlo engine ------------------------------------------


def _decoded_ones(outcomes: tuple[_Outcome, ...], n_pairs: int, size: int,
                  stream: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM) -> int:
    """How many of ``size`` blocks of ``n_pairs`` pairs decode 1.

    ``outcomes`` is a compiled protocol circuit (`_COMPILED_CIRCUITS`);
    the receiver's bit is its last outcome. Pair p owns rows ``p * m`` to
    ``p * m + m - 1`` of ``size`` uniforms each, as
    ``stream.random((n_pairs * m, size))`` lays them out for its ``m``
    measurements, but only the receiver's source rows are drawn, each as
    consecutive slices of at most `_SLICE` coins (`_fill_coins`), and `_draw`
    evaluates its entry from them. `_skip` passes the other rows, so every
    row keeps its position.
    """
    m = len(outcomes)
    receiver = outcomes[-1:]
    _, sources = receiver[0]
    coins = np.empty((m, size), dtype=bool)  # rows no source names are never written, so never paged in
    any_one = np.zeros(size, dtype=bool)
    drawn = 0
    for p in range(n_pairs):
        for k in sources:
            _skip(stream, (p * m + k - drawn) * size)
            for start in range(0, size, _SLICE):
                _fill_coins(stream, coins[k, start:start + _SLICE])
            drawn = p * m + k + 1
        any_one |= _draw(receiver, coins)[0]
    return int(np.count_nonzero(any_one))


def _chunk_sizes(trials: int) -> list[int]:
    sizes = [CHUNK_TRIALS] * (trials // CHUNK_TRIALS)
    if trials % CHUNK_TRIALS:
        sizes.append(trials % CHUNK_TRIALS)
    return sizes


def _map_chunks(fn, trials: int, rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM,
                workers: int) -> list:
    """``fn(size, stream)`` of each fixed-size chunk of ``trials``, chunk i on child
    stream i into slot i; ``rng.spawn`` makes the streams, of ``rng``'s own kind. The
    caller, as worker 0, starts ``min(workers, chunks) - 1`` helper threads, then each
    worker takes the next chunk until none is left. A failing chunk (a Ctrl-C lands in
    the caller's) or helper start (entry -1) empties the shared chunk iterator, so each
    worker stops after its chunk in flight. Once the caller is out of chunks and has
    joined every live helper, the lowest entry's exception, the one a serial loop would
    raise, is raised here: chunks are handed out in order, so all below a failing one
    have run. A Ctrl-C in those joins leaves each helper its chunk in flight.

    With two CPUs or more in the caller's affinity mask, helper t first binds itself
    (pid 0 is the calling thread on Linux) to CPU t of that mask, round-robin; the
    kernel may otherwise keep every chunk thread on one CPU. The caller, unpinned,
    keeps its mask. A refused pin (`OSError`) is ignored: placement changes no count."""
    workers = _check_count("workers", workers, _MAX_WORKERS)
    sizes = _chunk_sizes(trials)
    streams = rng.spawn(len(sizes))
    helpers = range(1, min(workers, len(sizes)))
    cpus = sorted(os.sched_getaffinity(0)) if helpers and hasattr(os, "sched_setaffinity") else []
    results, errors = [None] * len(sizes), {}
    chunks = iter(range(len(sizes)))  # one C call per take, so no chunk runs twice

    def run(t: int) -> None:
        if t and len(cpus) > 1:
            try:
                os.sched_setaffinity(0, {cpus[t % len(cpus)]})
            except OSError:
                pass
        i = -1  # the entry of a failure before any chunk: the caller's failed start
        try:
            for thread in () if t else pool:
                thread.start()
            for i in chunks:
                results[i] = fn(sizes[i], streams[i])
        except BaseException as exc:
            errors[i] = exc
            for _ in chunks:
                pass
    pool = [Thread(target=run, args=(t,)) for t in helpers]
    run(0)
    for thread in pool:
        if thread.is_alive():
            thread.join()
    if errors:
        raise errors.pop(min(errors))  # popped: left in, its traceback would reach it (a cycle)
    return results


def monte_carlo_distribution(
    action: AliceAction | int,
    trials: int,
    rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM,
    workers: int = 1,
) -> EmpiricalDistribution:
    """Empirical receiver-outcome frequencies over independent pair trials.

    Counting is order-insensitive and chunk streams are derived from
    ``rng`` up front, so a given master seed yields identical results at
    any ``workers`` setting. A one-pair block decodes 1 exactly when the
    receiver sees 1, so this counts one-pair blocks. ``rng`` is as in
    `monte_carlo_block_error`.
    """
    estimate = monte_carlo_block_error(action, 1, trials, rng, workers)
    trials, count_bob_1 = estimate.blocks, estimate.count_decoded_one
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
    rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM,
    workers: int = 1,
) -> BlockErrorEstimate:
    """Empirical OR-decode statistics over Monte Carlo blocks.

    Each block runs ``n_pairs`` fresh pairs through the pipeline and
    decodes their OR, mirroring ``protocol.run_block``. ``rng`` is a
    Generator, or a bare PCG64 or PCG64DXSM bit generator, which counts what
    ``Generator(rng)`` counts and leaves its stream where that would.
    """
    action = _action(action)
    n_pairs, blocks = _check_pairs(n_pairs, blocks)
    count = sum(_map_chunks(lambda size, stream: _decoded_ones(
        _COMPILED_CIRCUITS[action], n_pairs, size, stream), blocks, rng, workers))
    return BlockErrorEstimate(
        bit=action.bit, n_pairs=n_pairs, blocks=blocks, count_decoded_one=count
    )
