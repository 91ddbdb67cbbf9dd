"""The dense circuit executor, kept as the reference for `dsl`'s compiled one.

Every shot holds its amplitudes: one real float64 ``(2**n, batch)`` array,
amplitude axis first, run through the `statevector` kernels and collapsed
by the batched `_measure`. Tests compare the compiled map's draws
(`dsl._draw`) with `run_batch` here, and its exact receiver marginal
(`channel._receiver_distribution`) and sampled histograms with the
weights that `branches` enumerates.
"""

import numpy as np

from qsignal.statevector import _KERNELS, _measure


def evolve(circuit, batch):
    """Run ``batch`` copies of ``circuit`` from the ground state, gates in place.

    Yields ``(amps, qubit)`` at each ``measure``; the caller collapses
    ``amps`` in place before the program goes on.
    """
    amps = np.zeros((1 << circuit.num_qubits, batch))
    amps[0] = 1.0
    for ins in circuit.instructions:
        if ins.op == "measure":
            yield amps, ins.args[0]
        else:
            _KERNELS[ins.op](amps, *ins.args)


def run_batch(circuit, uniforms):
    """Outcome bits of ``uniforms.shape[1]`` shots, row k drawn for the k-th ``measure``."""
    bits = np.empty(uniforms.shape, dtype=bool)
    for k, (amps, qubit) in enumerate(evolve(circuit, uniforms.shape[1])):
        bits[k] = _measure(amps, qubit, uniforms[k])[0]
    return bits


def branches(circuit):
    """All ``2**m`` records in lexicographic order and the exact weight of
    each, every record forced in one batch by draws of 0 or inf."""
    m = sum(ins.op == "measure" for ins in circuit.instructions)
    records = ((np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1).astype(bool)
    weights = np.ones(1 << m)
    for k, (amps, qubit) in enumerate(evolve(circuit, 1 << m)):
        ones, probability = _measure(amps, qubit, np.where(records[k], np.inf, 0.0))
        weights *= np.where(ones == records[k], probability, 0.0)
    return records, weights
