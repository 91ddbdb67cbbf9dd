"""Dense statevector simulation of few-qubit pure states.

Basis state |b_{n-1} ... b_1 b_0> maps to the integer sum(b_k * 2**k), so
qubit 0 is the least-significant bit of the basis index. A gate is a
circuit statement (`Instruction`, the type `dsl` parses into), applied
by strided index-pair updates on the complex128 amplitude array; the full
2^n x 2^n unitary is never materialized. The circuit executor in `dsl` holds
no amplitudes: it samples a compiled stabilizer map.

All public operations use value semantics: they return new states and
leave their inputs untouched.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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
        if error := _qubit_count_error(n):
            raise ValueError(error)
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


# Operands of each statement a circuit may hold, by mnemonic.
_OPERAND_COUNTS = {"h": 1, "x": 1, "cnot": 2, "measure": 1}


def _qubit_count_error(num_qubits) -> str | None:
    """Why ``num_qubits`` is not a qubit count, else None: it must be an int
    (not a bool) from 1 to MAX_QUBITS."""
    valid = type(num_qubits) is int and 1 <= num_qubits <= MAX_QUBITS
    return None if valid else f"qubit count must be between 1 and {MAX_QUBITS}, got {num_qubits!r}"


def _operand_error(qubit, num_qubits: int) -> str | None:
    """Why ``qubit`` is not a qubit of ``num_qubits``, else None: it must be
    an int (not a bool) in [0, num_qubits)."""
    valid = type(qubit) is int and 0 <= qubit < num_qubits
    return None if valid else f"qubit index {qubit!r} out of range for {num_qubits} qubit(s)"


def _statement_error(op: str, args, num_qubits: int | None, counts=_OPERAND_COUNTS) -> str | None:
    """Why ``op args`` is not a statement on ``num_qubits`` qubits, else None:
    the mnemonic must take ``counts[op]`` operands, each a qubit by
    `_operand_error`, and they must differ. With ``num_qubits`` None, only the
    count is checked."""
    if op not in counts:
        return f"unknown mnemonic {op!r}"
    if len(args) != counts[op]:
        return f"'{op}' takes {counts[op]} operand(s), got {len(args)}"
    if num_qubits is None:
        return None
    for q in args:
        if error := _operand_error(q, num_qubits):
            return error
    return f"{op} operands must differ" if len(set(args)) != len(args) else None


@dataclass(frozen=True)
class Instruction:
    """One statement of a circuit: a mnemonic and its qubit operands;
    ``line`` records where it was parsed.

    Line numbers are bookkeeping, not identity: comparisons ignore them
    so a rendered-and-reparsed circuit is equal to its source circuit.
    """

    op: str
    args: tuple[int, ...]
    line: int = field(default=0, compare=False)


def _gate(op: str, *qubits: int) -> Instruction:
    """The gate statement ``op qubits``, checked as a circuit statement on MAX_QUBITS qubits."""
    if error := _statement_error(op, qubits, MAX_QUBITS):
        raise ValueError(error)
    return Instruction(op, qubits)


def hadamard(qubit: int) -> Instruction:
    return _gate("h", qubit)


def not_gate(qubit: int) -> Instruction:
    return _gate("x", qubit)


def cnot(control: int, target: int) -> Instruction:
    return _gate("cnot", control, target)


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
# Each kernel mutates a writeable 1-D complex128 amplitude array in place.


def _apply_hadamard(amps: np.ndarray, qubit: int) -> None:
    v = amps.reshape(-1, 2, 1 << qubit)
    lo, hi = v[:, 0], v[:, 1]
    diff = lo - hi  # the one temporary; the rest runs in place
    lo += hi
    lo *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=hi)


def _apply_not(amps: np.ndarray, qubit: int) -> None:
    v = amps.reshape(-1, 2, 1 << qubit)
    lo = v[:, 0].copy()
    v[:, 0] = v[:, 1]
    v[:, 1] = lo


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    lo, hi = sorted((control, target))
    # axis 1 holds the bit of qubit ``hi`` and axis 3 that of qubit ``lo``
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    t0, t1 = (v[:, 1, :, 0], v[:, 1, :, 1]) if control == hi else (v[:, 0, :, 1], v[:, 1, :, 1])
    tmp = t0.copy()
    t0[...] = t1
    t1[...] = tmp


# Kernels by gate mnemonic.
_KERNELS = {"h": _apply_hadamard, "x": _apply_not, "cnot": _apply_cnot}


def _collapse(amps: np.ndarray, qubit: int, outcome: int, probability: float) -> StateVector:
    """Project ``amps`` onto ``outcome`` of ``qubit`` in place and renormalize
    by the branch's Born ``probability``."""
    v = amps.reshape(-1, 2, 1 << qubit)
    v[:, outcome] *= 1.0 / math.sqrt(probability)
    v[:, 1 - outcome] = 0.0
    amps += 0.0  # x * s keeps the sign of a zero part of x; every zero comes out +0.0
    return StateVector._trusted(amps)


# --- public operations -----------------------------------------------------


def _bit(value, name: str) -> int:
    """``value`` as the int 0 or 1, read with ``operator.index``, a numpy
    bool as its Python bool; anything else, a float included, raises ValueError."""
    try:
        bit = operator.index(value.item() if isinstance(value, np.bool_) else value)
    except TypeError:
        bit = None
    if bit not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return bit


def new_ground_state(num_qubits: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    if error := _qubit_count_error(num_qubits):
        raise ValueError(error)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector._trusted(amps)


def apply_gate(state: StateVector, gate: Instruction) -> StateVector:
    """Unitarily transformed copy of ``state``; the input is not modified.

    ``gate`` is any gate statement (``h``, ``x`` or ``cnot``), a parsed
    circuit's included, checked as a statement on the state's qubits; a
    ``measure`` raises ValueError.
    """
    if gate.op == "measure":
        raise ValueError("apply_gate takes a gate, not 'measure'")
    if error := _statement_error(gate.op, gate.args, state.num_qubits):
        raise ValueError(error)
    amps = state.amplitudes.copy()
    _KERNELS[gate.op](amps, *gate.args)
    return StateVector._trusted(amps)


def outcome_distribution(state: StateVector, qubit: int) -> tuple[float, float]:
    """Born-rule probabilities (p0, p1) for measuring ``qubit``."""
    if error := _operand_error(qubit, state.num_qubits):
        raise ValueError(error)
    amps = state.amplitudes
    mag = (amps.real**2 + amps.imag**2).reshape(-1, 2, 1 << qubit)
    return float(mag[:, 0].sum()), float(mag[:, 1].sum())


def collapse_qubit(state: StateVector, qubit: int, outcome: int) -> StateVector:
    """Project ``qubit`` onto ``outcome`` and renormalize.

    Raises if the requested branch carries less than MIN_BRANCH_PROBABILITY.
    """
    probabilities = outcome_distribution(state, qubit)
    outcome = _bit(outcome, "outcome")
    probability = probabilities[outcome]
    if probability < MIN_BRANCH_PROBABILITY:
        raise ValueError(
            f"cannot collapse qubit {qubit} onto outcome {outcome}: "
            f"branch probability {probability!r} is below {MIN_BRANCH_PROBABILITY}"
        )
    return _collapse(state.amplitudes.copy(), qubit, outcome, probability)


def measure_qubit(state: StateVector, qubit: int, rng: RandomSource) -> MeasurementResult:
    """Measure one qubit in the computational basis, with collapse.

    Exactly one uniform ``u`` is drawn per call, whatever the state
    contents, so seeded streams replay identically. The outcome is 0 iff
    ``u < p0``, except that a branch below MIN_BRANCH_PROBABILITY is never
    selected, whatever the draw says.
    """
    p0, p1 = outcome_distribution(state, qubit)
    u = rng.random()
    outcome = int(p0 < MIN_BRANCH_PROBABILITY or (u >= p0 and p1 >= MIN_BRANCH_PROBABILITY))
    probability = p1 if outcome else p0
    post_state = _collapse(state.amplitudes.copy(), qubit, outcome, probability)
    return MeasurementResult(outcome, probability, post_state)
