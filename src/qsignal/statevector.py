"""Dense statevector simulation of few-qubit pure states.

Basis state |b_{n-1} ... b_1 b_0> maps to the integer sum(b_k * 2**k), so
qubit 0 is the least-significant bit of the basis index. Gates are applied
by strided index-pair updates on the amplitude array; the full 2^n x 2^n
unitary is never materialized. A `StateVector` holds complex128 amplitudes;
the circuit executor in `dsl` runs the same kernels on real float64
amplitudes, since every gate here (H, X, CNOT) is real.

All public operations use value semantics: they return new states and
leave their inputs untouched.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

MAX_QUBITS = 24
NORM_ATOL = 1e-12
AMPLITUDE_ATOL = 1e-12
# A measurement branch below this probability is never selected and may
# not be collapsed onto: renormalizing by a near-zero norm would only
# amplify roundoff into a fake state.
MIN_BRANCH_PROBABILITY = 1e-15

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class RandomSource(Protocol):
    """Deterministic seeded stream of uniform floats in [0, 1).

    ``numpy.random.Generator`` and ``random.Random`` both satisfy this.
    Two runs fed identically seeded streams produce identical traces.
    """

    def random(self) -> float: ...


class StateVector:
    """Normalized pure state of ``num_qubits`` qubits.

    The amplitude buffer is exposed read-only; operations that transform
    a state hand back a fresh instance.
    """

    __slots__ = ("_num_qubits", "_amps")

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        n = amps.size.bit_length() - 1
        if amps.size < 2 or amps.size != 1 << n:
            raise ValueError(
                f"amplitude count must be a power of two >= 2, got {amps.size}"
            )
        if n > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits supported, got {n}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        sq = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(sq - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: sum(|a|^2) = {sq!r}")
        self._num_qubits = n
        amps.flags.writeable = False
        self._amps = amps

    @classmethod
    def _trusted(cls, amps: np.ndarray) -> StateVector:
        # Fast path for internal use: amps must be a fresh, contiguous
        # complex128 array of power-of-two length that is already normalized.
        sv = object.__new__(cls)
        sv._num_qubits = amps.size.bit_length() - 1
        amps.flags.writeable = False
        sv._amps = amps
        return sv

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only complex128 array of length 2**num_qubits."""
        return self._amps

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def allclose(self, other: StateVector, atol: float = AMPLITUDE_ATOL) -> bool:
        """Per-amplitude comparison within ``atol`` (no global-phase slack)."""
        return self._num_qubits == other._num_qubits and bool(
            np.allclose(self._amps, other._amps, rtol=0.0, atol=atol)
        )

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self._num_qubits})"


class GateKind(enum.Enum):
    HADAMARD = "h"
    NOT = "x"
    CNOT = "cnot"


_GATE_ARITY = {GateKind.HADAMARD: 1, GateKind.NOT: 1, GateKind.CNOT: 2}


@dataclass(frozen=True)
class GateOp:
    """Symbolic gate instruction.

    Index upper bounds are checked against the state on application;
    everything else is validated here.
    """

    kind: GateKind
    qubits: tuple[int, ...]

    def __post_init__(self):
        arity = _GATE_ARITY[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(
                f"{self.kind.value} takes {arity} qubit(s), got {len(self.qubits)}"
            )
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"qubit indices must be non-negative: {self.qubits}")
        if self.kind is GateKind.CNOT and self.qubits[0] == self.qubits[1]:
            raise ValueError("cnot control and target must differ")


def hadamard(qubit: int) -> GateOp:
    return GateOp(GateKind.HADAMARD, (qubit,))


def not_gate(qubit: int) -> GateOp:
    return GateOp(GateKind.NOT, (qubit,))


def cnot(control: int, target: int) -> GateOp:
    return GateOp(GateKind.CNOT, (control, target))


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of a single-qubit measurement.

    ``probability`` is the pre-measurement Born probability of the drawn
    outcome; ``post_state`` is the collapsed, renormalized state.
    """

    outcome: int
    probability: float
    post_state: StateVector


# --- strided kernels -------------------------------------------------------
#
# Each kernel mutates a writeable array in place. The first axis is the
# 2**n amplitude axis and any trailing axes are independent batch entries,
# so one kernel set serves the executor in `dsl`, which runs every shot at
# once as a float64 (2**n, batch) array, and the complex128 buffers of the
# public operations, which are batch-1 calls.


def _apply_hadamard(amps: np.ndarray, qubit: int) -> None:
    v = amps.reshape((-1, 2, 1 << qubit) + amps.shape[1:])
    lo, hi = v[:, 0], v[:, 1]
    diff = lo - hi  # the one temporary; the rest runs in place
    lo += hi
    lo *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=hi)


def _apply_not(amps: np.ndarray, qubit: int) -> None:
    v = amps.reshape((-1, 2, 1 << qubit) + amps.shape[1:])
    lo = v[:, 0].copy()
    v[:, 0] = v[:, 1]
    v[:, 1] = lo


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    lo, hi = sorted((control, target))
    # axis 1 holds the bit of qubit ``hi`` and axis 3 that of qubit ``lo``
    v = amps.reshape((-1, 2, 1 << (hi - lo - 1), 2, 1 << lo) + amps.shape[1:])
    t0, t1 = (v[:, 1, :, 0], v[:, 1, :, 1]) if control == hi else (v[:, 0, :, 1], v[:, 1, :, 1])
    tmp = t0.copy()
    t0[...] = t1
    t1[...] = tmp


# Kernels by DSL mnemonic, which is also each GateKind's value.
_KERNELS = {"h": _apply_hadamard, "x": _apply_not, "cnot": _apply_cnot}


def _born_probabilities(amps: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared-magnitude mass on each branch of ``qubit``, per batch entry."""
    v = amps.reshape((-1, 2, 1 << qubit) + amps.shape[1:])
    mag = v.real**2 + v.imag**2 if np.iscomplexobj(v) else v**2
    return mag[:, 0].sum(axis=(0, 1)), mag[:, 1].sum(axis=(0, 1))


def _measure(amps: np.ndarray, qubit: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure ``qubit`` on every column of ``amps`` in place, one uniform each.

    The outcome is 0 iff ``u < p0``, except that a branch below
    MIN_BRANCH_PROBABILITY is never selected, whatever the draw says.
    Returns the outcome bits as a bool array and the Born probability
    of each drawn outcome; each column is collapsed and renormalized.
    """
    p0, p1 = _born_probabilities(amps, qubit)
    ones = (p0 < MIN_BRANCH_PROBABILITY) | ((u >= p0) & (p1 >= MIN_BRANCH_PROBABILITY))
    probability = np.where(ones, p1, p0)
    scale = 1.0 / np.sqrt(probability)
    v = amps.reshape((-1, 2, 1 << qubit) + amps.shape[1:])
    v[:, 0] *= scale * ~ones  # columns that measured 1 lose their 0-branch
    v[:, 1] *= scale * ones
    amps += 0.0  # x * 0.0 is -0.0 for x < 0; every zero comes out +0.0
    return ones, probability


# --- public operations -----------------------------------------------------


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(
            f"qubit {qubit} out of range for {state.num_qubits}-qubit state"
        )


def new_ground_state(num_qubits: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector._trusted(amps)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Unitarily transformed copy of ``state``; the input is not modified."""
    for q in gate.qubits:
        _check_qubit(state, q)
    amps = state.amplitudes.copy()
    _KERNELS[gate.kind.value](amps, *gate.qubits)
    return StateVector._trusted(amps)


def outcome_distribution(state: StateVector, qubit: int) -> tuple[float, float]:
    """Born-rule probabilities (p0, p1) for measuring ``qubit``."""
    _check_qubit(state, qubit)
    p0, p1 = _born_probabilities(state.amplitudes, qubit)
    return float(p0), float(p1)


def collapse_qubit(state: StateVector, qubit: int, outcome: int) -> StateVector:
    """Project ``qubit`` onto ``outcome`` and renormalize.

    Raises if the requested branch carries less than MIN_BRANCH_PROBABILITY.
    """
    _check_qubit(state, qubit)
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    p0, p1 = outcome_distribution(state, qubit)
    probability = p1 if outcome else p0
    if probability < MIN_BRANCH_PROBABILITY:
        raise ValueError(
            f"cannot collapse qubit {qubit} onto outcome {outcome}: "
            f"branch probability {probability!r} is below {MIN_BRANCH_PROBABILITY}"
        )
    amps = state.amplitudes.copy()
    # A draw of 0 selects outcome 0 and one of inf selects outcome 1, since
    # the requested branch is above MIN_BRANCH_PROBABILITY.
    _measure(amps[:, None], qubit, np.array([np.inf if outcome else 0.0]))
    return StateVector._trusted(amps)


def measure_qubit(state: StateVector, qubit: int, rng: RandomSource) -> MeasurementResult:
    """Measure one qubit in the computational basis, with collapse.

    Exactly one uniform draw is consumed per call, whatever the state
    contents, so seeded streams replay identically.
    """
    _check_qubit(state, qubit)
    amps = state.amplitudes.copy()
    ones, probability = _measure(amps[:, None], qubit, np.array([rng.random()]))
    return MeasurementResult(
        outcome=int(ones[0]),
        probability=float(probability[0]),
        post_state=StateVector._trusted(amps),
    )
