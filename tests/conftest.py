import numpy as np

from qsignal import AliceAction, StateVector
from qsignal.channel import _map_chunks
from qsignal.dsl import _draw
from qsignal.protocol import _COMPILED_CIRCUITS, _check_pairs


class FakeRandom:
    """Scripted RandomSource: yields queued values, then repeats the last.

    Lets tests force measurement outcomes and count uniform draws.
    """

    def __init__(self, *values: float):
        if not values:
            raise ValueError("need at least one value")
        self._values = list(values)
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        if len(self._values) > 1:
            return self._values.pop(0)
        return self._values[0]


# Draws at and just below the 1/2 threshold, and far below it.
EDGE_DRAWS = [0.5, np.nextafter(0.5, 0.0), 0.0]


class EdgeStream:
    """A Generator stand-in whose every uniform is one of EDGE_DRAWS, picked by
    a seeded stream's uniform at the same position, so the values do not depend
    on how the draws are split into calls. Each array it returns is kept in
    ``drawn``. It has no bit generator that `dsl._skip` can jump, so
    skipped uniforms are drawn and kept too.
    """

    bit_generator = None

    def __init__(self, seed):
        self._stream = np.random.default_rng(seed)
        self.drawn = []

    def random(self, size=None, out=None):
        values = self._stream.random(size, out=out)
        values[...] = np.take(EDGE_DRAWS, (values * len(EDGE_DRAWS)).astype(int))
        self.drawn.append(values.copy())
        return values


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    """Haar-ish random pure state for property tests."""
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(amps)


def joint_counts(trials: int, rng: np.random.Generator, workers: int = 1) -> np.ndarray:
    """2x2 table of (sender outcome, receiver outcome) counts for MEASURE trials.

    Chunk i draws both rows of its trials from child stream i, as the
    Monte Carlo engine lays them out, under the engine's caps.
    """
    _check_pairs(1, trials)
    outcomes = _COMPILED_CIRCUITS[AliceAction.MEASURE]

    def chunk_table(size: int, stream: np.random.Generator) -> np.ndarray:
        alice, bob = _draw(outcomes, stream.random((len(outcomes), size)) >= 0.5)
        return np.bincount(2 * alice + bob, minlength=4).reshape(2, 2)

    return sum(_map_chunks(chunk_table, trials, rng, workers))
