import gc
import itertools
import json
import math
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from qsignal import (
    ALICE_QUBIT,
    BOB_QUBIT,
    AliceAction,
    OutcomeDistribution,
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
)
from qsignal import channel, dsl, protocol
from qsignal.channel import CHUNK_TRIALS, MAX_TRIALS, binary_entropy
from qsignal.cli import main
from qsignal.protocol import MAX_PAIRS

import dense
from conftest import EdgeStream, joint_counts


# --- exact distribution -------------------------------------------------------


@pytest.mark.parametrize("p0, p1, message", [
    (-0.5, 1.5, "probabilities must lie in [0, 1], got -0.5"),
    (0.5, 1.5, "probabilities must lie in [0, 1], got 1.5"),
    (0.5, 0.25, "probabilities must sum to 1, got 0.75"),
])
def test_outcome_distribution_checks_its_probabilities(p0, p1, message):
    with pytest.raises(ValueError) as excinfo:
        OutcomeDistribution(p0, p1)
    assert str(excinfo.value) == message


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


def test_block_error_probability_is_exact_at_any_count():
    assert all(block_error_probability(n) == 0.5**n for n in range(1, 3000))
    assert block_error_probability(1074) == 5e-324
    assert block_error_probability(1075) == block_error_probability(10**400) == 0.0
    for n in (2.5, True):
        with pytest.raises(TypeError, match=f"^n_pairs must be an int, got {n}$"):
            block_error_probability(n)


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
    # a count must be an int before it becomes an exponent
    for n in (2.5, 1.0, True, "3"):
        with pytest.raises(TypeError):
            ZChannel(n)


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
        lambda: joint_counts(MAX_TRIALS + 1, rng),
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
    # a bool or a float is not a count, of pairs, blocks or workers
    for run, name, value in (
        (lambda: monte_carlo_block_error(1, True, 5, rng), "n_pairs", True),
        (lambda: monte_carlo_block_error(1, 2, 5.0, rng), "trials", 5.0),
        (lambda: monte_carlo_distribution(1, True, rng), "trials", True),
        (lambda: monte_carlo_block_error(1, 2, 5, rng, workers=2.0), "workers", 2.0),
    ):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {value}$"):
            run()
    assert rng.spawn(1)[0].random() == np.random.default_rng(0).spawn(1)[0].random()


def test_numpy_int_counts_give_the_python_int_estimates():
    # 70001 trials leave a remainder chunk, whose size reaches PCG64.advance
    # through the skipped sender rows; numpy 2.4 refuses a numpy int there
    trials = CHUNK_TRIALS + 4465
    for cast in (np.int64, np.uint32, np.int8):
        block = monte_carlo_block_error(1, cast(3), np.int64(trials), np.random.default_rng(6),
                                        workers=cast(2))
        assert block == monte_carlo_block_error(1, 3, trials, np.random.default_rng(6), workers=2)
        assert type(block.n_pairs) is int and type(block.blocks) is int
        dist = monte_carlo_distribution(1, np.int64(trials), np.random.default_rng(6), workers=cast(2))
        assert dist == monte_carlo_distribution(1, trials, np.random.default_rng(6), workers=2)
        assert type(dist.trials) is int
        assert ZChannel(cast(10)) == ZChannel(10) and type(ZChannel(cast(10)).n_pairs) is int


def test_one_owner_holds_the_run_size_caps():
    assert channel.MAX_TRIALS is protocol.MAX_TRIALS is dsl.MAX_TRIALS
    # a message spawns no more child streams than a Monte Carlo call's chunks
    assert protocol._MAX_MESSAGE_BITS == MAX_TRIALS // CHUNK_TRIALS


@pytest.mark.parametrize("workers", [0, -3, 65, 10**9])
def test_monte_carlo_rejects_workers_outside_the_cap(workers):
    rng = np.random.default_rng(0)
    for run in (
        lambda: monte_carlo_distribution(1, 10, rng, workers),
        lambda: monte_carlo_block_error(1, 2, 10, rng, workers),
        lambda: joint_counts(10, rng, workers),
    ):
        with pytest.raises(ValueError, match=f"workers must be between 1 and 64, got {workers}"):
            run()
    # rejected before a single child stream was spawned
    assert rng.spawn(1)[0].random() == np.random.default_rng(0).spawn(1)[0].random()


def test_monte_carlo_pool_holds_no_more_threads_than_chunks(monkeypatch):
    sizes = []

    class CountedThread(threading.Thread):
        # Counts the helper threads a call starts, and runs them as they are.
        def start(self):
            sizes[-1] += 1
            super().start()

    monkeypatch.setattr(channel, "Thread", CountedThread)
    for trials, workers in ((10, 64), (2 * CHUNK_TRIALS + 1, 64), (2 * CHUNK_TRIALS + 1, 2)):
        sizes.append(0)
        monte_carlo_distribution(1, trials, np.random.default_rng(7), workers)
    # the caller runs chunks too: one chunk or one worker starts no thread
    assert sizes == [0, 2, 1]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_a_failing_chunk_raises_in_the_caller(workers):
    def chunk(size, stream):
        if size == 5:  # the last of 9 chunks
            raise ArithmeticError("chunk failed")
        return size

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="^chunk failed$"):
        channel._map_chunks(chunk, 8 * CHUNK_TRIALS + 5, np.random.default_rng(0), workers)
    assert threading.active_count() == before
    # with no chunk failing, slot i holds chunk i's result
    assert channel._map_chunks(chunk, 8 * CHUNK_TRIALS, np.random.default_rng(0), workers) == [
        CHUNK_TRIALS] * 8


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_a_failing_chunk_leaves_no_reference_cycle(workers):
    # The exception raised keeps no path back to itself through the frames of
    # its traceback, so once it is handled they and all they hold (the failing
    # chunk's arrays, every chunk stream) are freed at once, not at the cycle
    # collector's next full pass.
    class Held:
        pass

    refs = []

    def chunk(size, stream):
        if size == 5:  # the last of 9 chunks
            held = Held()
            refs.append(weakref.ref(held))
            raise ArithmeticError("chunk failed")
        return size

    gc.collect()
    gc.disable()
    try:
        try:
            channel._map_chunks(chunk, 8 * CHUNK_TRIALS + 5, np.random.default_rng(0), workers)
        except ArithmeticError:
            pass
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_of_several_failing_chunks_the_lowest_raises(workers):
    # each chunk names its own stream; a serial loop would stop at chunk 0
    def chunk(size, stream):
        raise ArithmeticError(int(stream.integers(1 << 62)))

    first = int(np.random.default_rng(3).spawn(1)[0].integers(1 << 62))
    with pytest.raises(ArithmeticError, match=f"^{first}$"):
        channel._map_chunks(chunk, 8 * CHUNK_TRIALS, np.random.default_rng(3), workers)


def test_of_two_recorded_failures_the_lower_chunk_raises(monkeypatch):
    # Two workers, two chunks. The helper waits until the caller has taken
    # chunk 0, so it takes chunk 1, which raises at once; the caller's chunk 0
    # raises only once the helper has ended, its failure recorded. Of the two
    # recorded failures, chunk 0's, the one a serial loop would raise, reaches
    # the caller. Every wait is bounded, so a regression fails, not hangs.
    caller, taken, helpers, ran = threading.current_thread(), threading.Event(), [], {}

    class WaitingThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            helpers.append(self)

        def run(self):
            taken.wait(timeout=30)
            super().run()

    def chunk(size, stream):
        ran[threading.current_thread()] = size
        if threading.current_thread() is caller:
            taken.set()
            helpers[0].join(timeout=30)
        raise ArithmeticError(f"chunk of {size}")

    monkeypatch.setattr(channel, "Thread", WaitingThread)
    with pytest.raises(ArithmeticError, match=f"^chunk of {CHUNK_TRIALS}$"):
        channel._map_chunks(chunk, CHUNK_TRIALS + 5, np.random.default_rng(0), 2)
    assert ran == {caller: CHUNK_TRIALS, helpers[0]: 5}
    assert not helpers[0].is_alive()


def test_a_failing_chunk_stops_the_other_threads():
    # The first chunk a helper thread takes raises, once the caller has taken
    # one. Every other chunk, the caller's among them, waits until that helper
    # has ended, which it does only after emptying the iterator, so no worker
    # takes a second chunk. Every wait is bounded, so a regression fails, not hangs.
    for workers in (2, 8):
        caller, lock, calls, failing = threading.current_thread(), threading.Lock(), [], []
        picked, caller_ran = threading.Event(), threading.Event()

        def chunk(size, stream):
            me = threading.current_thread()
            with lock:
                calls.append(me)
                if me is not caller and not failing:
                    failing.append(me)
                    picked.set()
            if me is caller:
                caller_ran.set()
            picked.wait(timeout=30)
            if failing[0] is me:
                caller_ran.wait(timeout=30)
                raise ArithmeticError("chunk failed")
            failing[0].join(timeout=30)
            return size

        with pytest.raises(ArithmeticError, match="^chunk failed$"):
            channel._map_chunks(chunk, 16 * CHUNK_TRIALS, np.random.default_rng(0), workers)
        assert calls.count(caller) == 1
        assert 2 <= len(calls) <= workers


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_an_interrupted_join_stops_the_threads_and_reraises(monkeypatch, workers):
    # The caller's chunk raises as Ctrl-C would. Each helper's chunk waits until
    # the caller joins it, which it does only after emptying the chunk iterator.
    caller, joined, ran = threading.current_thread(), threading.Event(), []

    class JoinedThread(threading.Thread):
        def join(self, timeout=None):
            joined.set()
            super().join(timeout)

    def chunk(size, stream):
        ran.append(size)
        if threading.current_thread() is caller:
            raise KeyboardInterrupt
        joined.wait(timeout=30)
        return size

    monkeypatch.setattr(channel, "Thread", JoinedThread)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        channel._map_chunks(chunk, 16 * CHUNK_TRIALS, np.random.default_rng(0), workers)
    chunks_run, alive = len(ran), threading.active_count()
    joined.set()  # frees any thread a map that returned early left waiting
    assert 1 <= chunks_run <= workers
    assert alive == before


def _map_with_failing_starts(monkeypatch, workers, start):
    # Maps 64 chunks, each helper's start being ``start(real_start)``; every chunk
    # waits until the caller joins a helper. Returns the exception the map raised,
    # the threads it left alive at return, and the chunks run once all are released.
    joined, ran = threading.Event(), []

    class FailingThread(threading.Thread):
        def start(self):
            start(super().start)

        def join(self, timeout=None):
            joined.set()
            super().join(timeout)

    def chunk(size, stream):
        ran.append(size)
        joined.wait(timeout=30)
        return size

    monkeypatch.setattr(channel, "Thread", FailingThread)
    before = threading.active_count()
    with pytest.raises(BaseException) as excinfo:
        channel._map_chunks(chunk, 64 * CHUNK_TRIALS, np.random.default_rng(0), workers)
    alive = threading.active_count() - before
    joined.set()  # frees any thread a map that returned early left waiting
    for thread in threading.enumerate():
        if isinstance(thread, FailingThread):
            thread.join(timeout=30)
    return excinfo.value, alive, len(ran)


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_an_interrupted_start_stops_the_threads_and_reraises(monkeypatch, workers):
    # A Ctrl-C lands in the first helper's start, once that helper runs.
    started = []

    def start(thread_start):
        thread_start()
        started.append(1)
        raise KeyboardInterrupt

    exc, alive, chunks_run = _map_with_failing_starts(monkeypatch, workers, start)
    assert type(exc) is KeyboardInterrupt
    assert alive == 0
    assert chunks_run <= len(started) == 1


@pytest.mark.parametrize("workers", [3, 8])
def test_a_refused_start_stops_the_threads_and_reraises(monkeypatch, workers):
    # The second helper's start is refused, as when no thread can be made.
    started = []

    def start(thread_start):
        if started:
            raise RuntimeError("can't start new thread")
        thread_start()
        started.append(1)

    exc, alive, chunks_run = _map_with_failing_starts(monkeypatch, workers, start)
    assert type(exc) is RuntimeError and str(exc) == "can't start new thread"
    assert alive == 0
    assert chunks_run <= len(started) == 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs an affinity mask of at least 2 CPUs")
def test_monte_carlo_pool_leaves_the_callers_affinity_alone():
    before = os.sched_getaffinity(0)
    monte_carlo_block_error(1, 10, 8 * CHUNK_TRIALS, np.random.default_rng(9), workers=2)
    assert os.sched_getaffinity(0) == before


def test_monte_carlo_counts_survive_a_refused_pin(monkeypatch):
    def refuse(pid, cpus):
        raise OSError("pinning refused")

    serial = monte_carlo_block_error(1, 3, 8 * CHUNK_TRIALS, np.random.default_rng(10), workers=1)
    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    pooled = monte_carlo_block_error(1, 3, 8 * CHUNK_TRIALS, np.random.default_rng(10), workers=2)
    assert pooled == serial


@pytest.mark.parametrize("mask, workers, pinned", [
    ({0, 1, 2, 3}, 2, [1]),
    ({0, 1, 2, 3}, 8, [0, 1, 1, 2, 2, 3, 3]),
    ({0, 1, 2, 3}, 1, []),
    ({3}, 2, []),
])
def test_monte_carlo_pool_pins_threads_round_robin(monkeypatch, mask, workers, pinned):
    calls = []
    # Every pinned helper waits here until all have started: none goes idle
    # early, so the pool starts all of its helpers.
    started = threading.Barrier(max(len(pinned), 1), timeout=30)

    def record(pid, cpus):
        calls.append((pid, cpus))
        started.wait()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
    monte_carlo_block_error(1, 2, 8 * CHUNK_TRIALS, np.random.default_rng(11), workers)
    # each helper, never the caller, pins itself (pid 0) to one CPU of the mask
    assert all(pid == 0 and len(cpus) == 1 for pid, cpus in calls)
    assert sorted(cpu for _, cpus in calls for cpu in cpus) == pinned


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


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64, np.random.MT19937]
# the bit generators every seeded function also takes bare
BARE_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM]


def compiled(action):
    return dsl._compile(protocol._protocol_circuit(AliceAction(action)))


def drawn_chunk(outcomes, n_pairs, size, stream):
    """Reference chunk count: each pair draws all its ``(measurements, size)``
    uniforms, the sender's included."""
    any_one = np.zeros(size, dtype=bool)
    for _ in range(n_pairs):
        any_one |= dsl._draw(outcomes, stream.random((len(outcomes), size)) >= 0.5)[-1]
    return int(np.count_nonzero(any_one))


def drawn_decoded_ones(action, n_pairs, blocks, rng):
    """Reference block count, chunk i drawn in full from child stream i."""
    outcomes, sizes = compiled(action), channel._chunk_sizes(blocks)
    return sum(drawn_chunk(outcomes, n_pairs, size, stream) for size, stream in zip(sizes, rng.spawn(len(sizes))))


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
@pytest.mark.parametrize("bit", [0, 1])
def test_skipped_uniforms_keep_their_stream_positions(bit_generator, bit):
    # rows the receiver does not read are jumped or discarded; the rows it
    # reads must still sit where drawing every row puts them. Each count is a
    # full chunk and a partial one; the widest partial chunks end in a short slice.
    wide = 40001
    assert wide > channel._SLICE and wide % channel._SLICE
    partials = [(n_pairs, 1000 * n_pairs + 1) for n_pairs in range(1, 13)] + [(1, wide), (3, wide)]
    # A bare PCG64 or PCG64DXSM, whose coins are the top bits of its raw
    # outputs, must count what its Generator-drawn reference counts.
    streams = [np.random.Generator]
    if bit_generator in BARE_GENERATORS:
        streams.append(lambda bits: bits)
    for n_pairs, partial in partials:
        blocks = CHUNK_TRIALS + partial
        expected = drawn_decoded_ones(bit, n_pairs, blocks, np.random.Generator(bit_generator(n_pairs)))
        for workers, stream in itertools.product((1, 2), streams):
            rng = stream(bit_generator(n_pairs))
            assert monte_carlo_block_error(bit, n_pairs, blocks, rng, workers).count_decoded_one == expected
            if n_pairs == 1:
                rng = stream(bit_generator(n_pairs))
                assert monte_carlo_distribution(bit, blocks, rng, workers).count_bob_1 == expected


class CountingStream:
    """A PCG64 Generator stand-in that keeps every array of uniforms it computes."""

    def __init__(self, seed):
        self._stream = np.random.default_rng(seed)
        self.bit_generator = self._stream.bit_generator
        self.computed = []

    def random(self, size=None, out=None):
        values = self._stream.random(size, out=out)
        self.computed.append(values.copy())
        return values


@pytest.mark.parametrize("n_pairs", [1, 10])
def test_block_chunks_compute_only_the_receivers_uniforms(n_pairs):
    size = 1000
    send0 = CountingStream(15)
    assert channel._decoded_ones(compiled(0), n_pairs, size, send0) == 0
    assert send0.computed == []
    send1 = CountingStream(15)
    count = channel._decoded_ones(compiled(1), n_pairs, size, send1)
    # pair p's sender reads row 2p of this layout, its receiver row 2p + 1
    rows = np.random.default_rng(15).random((2 * n_pairs, size))
    assert sum(values.size for values in send1.computed) == n_pairs * size
    np.testing.assert_array_equal(np.concatenate(send1.computed), rows[1::2].ravel())
    assert count == np.count_nonzero((rows[1::2] >= 0.5).any(axis=0))


class CountingPCG64(np.random.PCG64):
    """A bare PCG64 that keeps every array of raw outputs it computes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.computed = []

    def random_raw(self, size=None, output=True):
        values = super().random_raw(size, output)
        self.computed.append(values.copy())
        return values


@pytest.mark.parametrize("n_pairs", [1, 10])
def test_bare_pcg64_chunks_compute_only_the_receivers_outputs(n_pairs):
    # a chunk of two slices, the last one short
    size = channel._SLICE + 7
    send0 = CountingPCG64(15)
    assert channel._decoded_ones(compiled(0), n_pairs, size, send0) == 0
    assert send0.computed == []
    assert send0.state["state"] == np.random.PCG64(15).state["state"]
    send1 = CountingPCG64(15)
    count = channel._decoded_ones(compiled(1), n_pairs, size, send1)
    # pair p's sender reads row 2p of this layout, its receiver row 2p + 1
    rows = np.random.PCG64(15).random_raw((2 * n_pairs, size))
    assert [values.size for values in send1.computed] == [channel._SLICE, 7] * n_pairs
    np.testing.assert_array_equal(np.concatenate(send1.computed), rows[1::2].ravel())
    assert count == np.count_nonzero((rows[1::2].view(np.int64) < 0).any(axis=0))
    assert count == channel._decoded_ones(compiled(1), n_pairs, size, np.random.Generator(np.random.PCG64(15)))
    # the stream stops right after the last receiver row, where drawing every row would put it
    after = np.random.PCG64(15)
    after.advance((2 * n_pairs) * size)
    assert send1.state["state"] == after.state["state"]


# raw outputs at the coin's boundary: uniform 0.0, the largest below 1/2, 1/2, the largest
BOUNDARY_WORDS = [0, 2**63 - 1, 2**63, 2**64 - 1]


class BoundaryPCG64(np.random.PCG64):
    """A bare PCG64 whose raw outputs are BOUNDARY_WORDS, repeated."""

    def random_raw(self, size=None, output=True):
        return np.resize(np.array(BOUNDARY_WORDS, dtype=np.uint64), size)


class BoundaryPyPCG64(dsl._PyPCG64):
    """The same words from the Python PCG64 stream, as its list of ints."""

    def random_raw(self, count):
        return (BOUNDARY_WORDS * count)[:count]


@pytest.mark.parametrize("stream, out", [(BoundaryPCG64, lambda: np.empty((2, 4), dtype=bool)),
                                         (BoundaryPyPCG64, lambda: [None] * 8)], ids=["numpy", "python"])
def test_a_raw_coin_is_its_uniform_at_least_one_half(stream, out):
    # a raw word 0 is the uniform 0.0, whose coin is 0: only 2^-64 of the
    # draws, so no seeded stream reaches it
    out = out()
    dsl._fill_coins(stream(0), out)
    coins = [(word >> 11) * 2**-53 >= 0.5 for word in BOUNDARY_WORDS]
    assert coins == [False, False, True, True]
    assert np.reshape(out, (2, 4)).tolist() == [coins, coins]


@pytest.mark.parametrize("bit_generator", [*BARE_GENERATORS, np.random.MT19937], ids=lambda bg: bg.__name__)
def test_a_pcg64_coin_is_the_top_bit_of_its_raw_output(bit_generator):
    # uniform = (raw >> 11) * 2**-53, so uniform >= 1/2 iff raw's top bit is set;
    # MT19937 makes a double from two 32-bit words, so it keeps `.random`
    n = 100_000
    coins = np.random.Generator(bit_generator(3)).random(n) >= 0.5
    top_bits = bit_generator(3).random_raw(n).view(np.int64) < 0
    bare = bit_generator in BARE_GENERATORS
    assert np.array_equal(coins, top_bits) == bare
    assert dsl._pcg64(bit_generator(3)) == bare
    assert not dsl._pcg64(np.random.Generator(bit_generator(3)))


@pytest.mark.parametrize("bit_generator, bare", [pytest.param(bg, False, id=bg.__name__) for bg in BIT_GENERATORS]
                         + [pytest.param(bg, True, id=f"bare-{bg.__name__}") for bg in BARE_GENERATORS])
@pytest.mark.parametrize("shape", [(channel._SLICE + 7,), (300, 13)], ids=["slice", "batch"])
def test_fill_coins_reads_the_coins_of_random(bit_generator, bare, shape):
    # the one coin reader, on every stream kind: the coins and the stream
    # position of ``Generator.random(shape) >= 0.5``, then `_skip` past an
    # odd count, which Philox's four-output blocks do not divide
    reference = np.random.Generator(bit_generator(4))
    rng = bit_generator(4) if bare else np.random.Generator(bit_generator(4))
    out = np.empty(shape, dtype=bool)
    dsl._fill_coins(rng, out)
    np.testing.assert_array_equal(out, reference.random(shape) >= 0.5)
    np.testing.assert_equal(getattr(rng, "bit_generator", rng).state, reference.bit_generator.state)
    dsl._skip(rng, 1001)
    reference.random(1001)
    np.testing.assert_equal(getattr(rng, "bit_generator", rng).state, reference.bit_generator.state)


def test_skip_refuses_a_python_pcg64_and_leaves_it_unmoved():
    # `dsl._PyPCG64` has neither a jump-ahead nor uniforms; only `run` makes
    # one, and `run` never skips
    stream = dsl._PyPCG64(0)
    with pytest.raises(TypeError, match="_PyPCG64"):
        dsl._skip(stream, 5)
    assert not dsl._pcg64(stream)
    assert stream.random_raw(3) == np.random.PCG64(0).random_raw(3).tolist()


@pytest.mark.parametrize("n_pairs", [1, 3])
def test_block_chunks_threshold_edge_draws_as_the_dense_oracle(n_pairs):
    # every uniform is 1/2, just below it or 0, in a chunk of two slices, the
    # last one short: a draw of exactly 1/2 must read as outcome 1
    size, outcomes, stream = channel._SLICE + 7, compiled(1), EdgeStream(22)
    count = channel._decoded_ones(outcomes, n_pairs, size, stream)
    # the stand-in cannot jump, so it drew every row, the sender's too
    rows = np.concatenate(stream.drawn).reshape(n_pairs, 2, size)
    assert (rows[:, 1] == 0.5).any()
    circuit = protocol._protocol_circuit(AliceAction.MEASURE)
    ones = np.any([dense.run_batch(circuit, pair)[-1] for pair in rows], axis=0)
    assert count == np.count_nonzero(ones) == drawn_chunk(outcomes, n_pairs, size, EdgeStream(22))


def test_block_chunk_peak_memory_is_below_one_float_row():
    # a chunk holds a 256 KiB temporary for each slice, 128 KiB of coin rows and
    # 64 KiB each for the OR and `_draw`'s row, never a whole 512 KiB float64 row
    outcomes, stream = compiled(1), np.random.default_rng(23)
    tracemalloc.start()
    try:
        channel._decoded_ones(outcomes, 10, CHUNK_TRIALS, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 << 10


def test_joint_counts_factorize():
    trials = 100_000
    table = joint_counts(trials, np.random.default_rng(9))
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
    assert mutual_information(ZChannel(10**400), 0.5) == 1.0


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


@pytest.mark.parametrize("p", [-3, 1.5, math.nan])
def test_binary_entropy_rejects_probabilities_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=rf"^p must lie in \[0, 1\], got {p!r}$"):
        binary_entropy(p)


def test_mutual_information_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mutual_information(ZChannel(1), 1.5)


def test_capacity_degenerate_channels():
    # past the smallest float the miss probability is 0.0: a perfect channel
    assert channel_capacity(ZChannel(10**400)) == (1.0, 0.5)


def test_capacity_of_a_channel_that_carries_nothing(monkeypatch):
    # both protocol circuits the send-1 one: a = 1 - 2**-n and q = 2**-n, so
    # a + q = 1 and the receiver's bit says nothing of the sent one
    circuits = protocol._COMPILED_CIRCUITS
    monkeypatch.setitem(circuits, AliceAction.SKIP, circuits[AliceAction.MEASURE])
    for n_pairs in [*range(1, 1101), 10**400]:
        chan = ZChannel(n_pairs)
        assert chan.p_false_one + chan.p_missed_one == 1.0
        capacity = channel_capacity(chan)
        assert capacity == (0.0, 0.0)
        assert [math.copysign(1.0, x) for x in capacity] == [1.0, 1.0]  # not -0.0


def z_channel_mutual_information(p_missed_one, prior_p1):
    """Reference: Z-channel I(X;Y) from a bare miss probability, in its own float steps."""
    p_y1 = prior_p1 * (1.0 - p_missed_one)
    return binary_entropy(p_y1) - prior_p1 * binary_entropy(p_missed_one)


def z_channel_capacity(p_missed_one):
    """Reference: Z-channel (capacity, prior) from a bare miss probability (Tallini et al.)."""
    if p_missed_one == 0.0:
        return 1.0, 0.5
    if p_missed_one == 1.0:
        return 0.0, 0.0
    q = p_missed_one
    prior = 1.0 / ((1.0 - q) * (1.0 + 2.0 ** (binary_entropy(q) / (1.0 - q))))
    return z_channel_mutual_information(q, prior), prior


def test_information_measures_match_the_z_channel_reference_bytes():
    # the binary-channel forms at a = 0 take the Z-channel forms' float steps
    priors = [i / 20 for i in range(21)]
    for n_pairs in [*range(1, 1101), 10**400]:
        chan = ZChannel(n_pairs)
        q = math.ldexp(1.0, -n_pairs)
        assert (chan.p_false_one, chan.p_missed_one) == (0.0, q)
        assert channel_capacity(chan) == z_channel_capacity(q)
        assert [mutual_information(chan, p) for p in priors] == [
            z_channel_mutual_information(q, p) for p in priors]


def brute_force_capacity(p_false_one, p_missed_one, priors):
    """Oracle: the largest I(X;Y) over ``priors``, each from its joint table."""
    px = np.stack([1.0 - priors, priors])
    transitions = np.array([[1.0 - p_false_one, p_false_one],
                            [p_missed_one, 1.0 - p_missed_one]])
    joint = px[:, None, :] * transitions[:, :, None]  # (x, y, prior)
    product = px[:, None, :] * joint.sum(axis=0)[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0.0, joint * np.log2(joint / product), 0.0)
    return float(terms.sum(axis=(0, 1)).max())


def test_channel_follows_the_compiled_circuits(monkeypatch, capsys):
    # with the two protocol circuits swapped, sending 0 is the noisy input
    # and sending 1 never reaches the receiver: the same channel, outputs relabelled
    unswapped = {n: channel_capacity(ZChannel(n)) for n in (1, 2, 10)}
    circuits = protocol._COMPILED_CIRCUITS
    skip, measure = circuits[AliceAction.SKIP], circuits[AliceAction.MEASURE]
    monkeypatch.setitem(circuits, AliceAction.SKIP, measure)
    monkeypatch.setitem(circuits, AliceAction.MEASURE, skip)
    priors = np.linspace(0.0, 1.0, 100_001)
    for n_pairs, (capacity, prior) in unswapped.items():
        chan = ZChannel(n_pairs)
        assert (chan.p_false_one, chan.p_missed_one) == (1 - 2**-n_pairs, 1.0)
        assert block_error_probability(n_pairs) == 1.0
        assert channel_capacity(chan) == (capacity, 1.0 - prior)
        best = brute_force_capacity(chan.p_false_one, chan.p_missed_one, priors)
        assert best - 1e-12 <= capacity < best + 1e-9

    assert main(["block", "--n", "3", "--bit", "0", "--trials", "4000", "--seed", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["expected_error_rate"] == 0.875
    assert abs(record["error_rate"] - 0.875) < 4 * math.sqrt(0.875 * 0.125 / 4000)


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
