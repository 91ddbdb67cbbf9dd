"""The dense circuit executor, kept as the reference for `dsl`'s compiled one.

Every shot holds its amplitudes: one real float64 ``(2**n, batch)`` array,
amplitude axis first, one column per shot. The executor shares no code
with `qsignal.statevector`, so a defect there cannot hide on both sides.
Each gate's 2^n x 2^n matrix has at most two nonzeros per row: X and CNOT
permute the basis indices, and H mixes index i with i's partner across
its qubit. So a gate is one gather over basis indices, and a 12-qubit
circuit needs no 128 MiB matrix. Tests compare the compiled map's draws
(`dsl._draw`) with `run_batch` here. They also compare its exact receiver
marginal (`channel._receiver_distribution`) and its sampled histograms
with the weights that `branches` enumerates.
"""

import numpy as np

_R = np.sqrt(0.5)


def _bit(amps, qubit):
    """Bit ``qubit`` of each basis index, as an int column."""
    return (np.arange(len(amps)) >> qubit & 1)[:, None]


def _h(amps, q):
    # amplitude i becomes (a[i with bit q clear] + (-1)**bit * a[i with bit q set]) / sqrt(2)
    index = np.arange(len(amps))
    return (amps[index & ~(1 << q)] + (1 - 2 * _bit(amps, q)) * amps[index | 1 << q]) * _R


def _x(amps, q):
    return amps[np.arange(len(amps)) ^ 1 << q]


def _cnot(amps, control, target):
    index = np.arange(len(amps))
    return amps[index ^ (index >> control & 1) << target]


GATES = {"h": _h, "x": _x, "cnot": _cnot}


def evolve(circuit, batch):
    """Run ``batch`` copies of ``circuit`` from the ground state.

    Yields ``(amps, qubit)`` at each ``measure``; the caller collapses
    ``amps`` in place before the program goes on.
    """
    amps = np.zeros((1 << circuit.num_qubits, batch))
    amps[0] = 1.0
    for ins in circuit.instructions:
        if ins.op == "measure":
            yield amps, ins.args[0]
        else:
            amps = GATES[ins.op](amps, *ins.args)


def born(amps, qubit):
    """Per column, the Born probabilities ``(p0, p1)`` of ``qubit``.

    H, X, CNOT and measurement are Clifford, so each probability is exactly
    0, 1/2 or 1. The sum is rounded to that value and the roundoff dropped.
    """
    p1 = np.rint(2 * (amps**2 * _bit(amps, qubit)).sum(axis=0)) / 2
    return 1.0 - p1, p1


def measure(amps, qubit, u):
    """Measure ``qubit`` on every column in place, with one uniform per column.

    The outcome is 1 iff ``u >= p0`` or ``p0`` is 0, and never when ``p1`` is 0.
    Returns the outcome bits as a bool array and the Born probability of
    each drawn outcome. Each column is collapsed and renormalized.
    """
    p0, p1 = born(amps, qubit)
    ones = (p1 > 0) & ((u >= p0) | (p0 == 0))
    probability = np.where(ones, p1, p0)
    amps *= (_bit(amps, qubit) == ones) / np.sqrt(probability)
    return ones, probability


def run_batch(circuit, uniforms):
    """Outcome bits of ``uniforms.shape[1]`` shots, row k drawn for the k-th ``measure``."""
    bits = np.empty(uniforms.shape, dtype=bool)
    for k, (amps, qubit) in enumerate(evolve(circuit, uniforms.shape[1])):
        bits[k] = measure(amps, qubit, uniforms[k])[0]
    return bits


def branches(circuit):
    """All ``2**m`` records in lexicographic order and the exact weight of
    each, every record forced in one batch by draws of 0 or inf."""
    m = sum(ins.op == "measure" for ins in circuit.instructions)
    records = ((np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1).astype(bool)
    weights = np.ones(1 << m)
    for k, (amps, qubit) in enumerate(evolve(circuit, 1 << m)):
        ones, probability = measure(amps, qubit, np.where(records[k], np.inf, 0.0))
        weights *= np.where(ones == records[k], probability, 0.0)
    return records, weights
