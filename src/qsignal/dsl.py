"""Line-oriented circuit language for small statevector experiments.

Grammar (exact; one statement per line, tokens separated by one or more
spaces, case-sensitive mnemonics, base-10 non-negative integers):

    file    := line*
    line    := comment | blank | stmt
    comment := '#' <anything to end of line>
    stmt    := 'qubits' INT | 'h' INT | 'x' INT | 'cnot' INT INT
             | 'measure' INT

The 'qubits' declaration must appear exactly once, before any other
statement. Files use UTF-8 text and conventionally carry the `.qc`
extension. All diagnostics carry the offending line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .statevector import _KERNELS, MAX_QUBITS, _measure


class ParseError(ValueError):
    """Malformed circuit text; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message}, line {line}"
        super().__init__(message)


@dataclass(frozen=True)
class Instruction:
    """One executable statement; ``line`` records where it was parsed.

    Line numbers are bookkeeping, not identity: comparisons ignore them
    so a rendered-and-reparsed circuit is equal to its source circuit.
    """

    op: str
    args: tuple[int, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Circuit:
    """Validated program: qubit count plus the statements after it."""

    num_qubits: int
    instructions: tuple[Instruction, ...]


class MeasurementRecord(NamedTuple):
    line: int
    qubit: int
    bit: int


@dataclass(frozen=True)
class RunRecord:
    """Outcomes of one shot, in program order."""

    shot_index: int
    measurement_outcomes: tuple[MeasurementRecord, ...]


_ARITY = {"qubits": 1, "h": 1, "x": 1, "cnot": 2, "measure": 1}
_INT_RE = re.compile(r"[0-9]+\Z")
# Longer operands are rejected before int(), whose digit limit
# (sys.set_int_max_str_digits) is never set below 640.
_MAX_DIGITS = 640
# `execute` holds at most this many amplitudes (2 MiB) per batch of shots,
# so circuits of 18 or more qubits still run one shot at a time.
_BATCH_AMPLITUDES = 1 << 18


def parse(text: str) -> Circuit:
    """Parse circuit text, validating structure and qubit indices."""
    num_qubits: int | None = None
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.lstrip(" ").startswith("#"):
            continue
        tokens = [t for t in raw.split(" ") if t]
        op = tokens[0]
        if op not in _ARITY:
            raise ParseError(f"unknown mnemonic '{op}'", lineno)
        if len(tokens) - 1 != _ARITY[op]:
            raise ParseError(
                f"'{op}' takes {_ARITY[op]} operand(s), got {len(tokens) - 1}", lineno
            )
        args = []
        for tok in tokens[1:]:
            if not _INT_RE.match(tok):
                raise ParseError(f"malformed integer '{tok}'", lineno)
            if len(tok) > _MAX_DIGITS:
                raise ParseError(f"integer of {len(tok)} digits is too long", lineno)
            args.append(int(tok))
        if op == "qubits":
            if num_qubits is not None:
                raise ParseError("duplicate qubits declaration", lineno)
            if not 1 <= args[0] <= MAX_QUBITS:
                raise ParseError(
                    f"qubit count must be between 1 and {MAX_QUBITS}, got {args[0]}",
                    lineno,
                )
            num_qubits = args[0]
            continue
        if num_qubits is None:
            raise ParseError("statement before qubits declaration", lineno)
        for q in args:
            if q >= num_qubits:
                raise ParseError(
                    f"qubit index {q} out of range for {num_qubits} qubit(s)", lineno
                )
        if op == "cnot" and args[0] == args[1]:
            raise ParseError("cnot operands must differ", lineno)
        instructions.append(Instruction(op, tuple(args), lineno))
    if num_qubits is None:
        raise ParseError("missing qubits declaration")
    return Circuit(num_qubits, tuple(instructions))


def render(circuit: Circuit) -> str:
    """Canonical text for a circuit; parse(render(c)) == c."""
    lines = [f"qubits {circuit.num_qubits}"]
    lines.extend(f"{ins.op} {' '.join(str(a) for a in ins.args)}" for ins in circuit.instructions)
    return "\n".join(lines) + "\n"


def load(path) -> Circuit:
    """Parse a circuit file (UTF-8)."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _evolve(circuit: Circuit, batch: int):
    """Run ``batch`` copies of ``circuit`` from the ground state, gates in place.

    The amplitudes are one real float64 ``(2**n, batch)`` array, since every
    gate is real. Yields ``(amps, qubit)`` at each ``measure``; the caller
    collapses ``amps`` in place before the program goes on.
    """
    amps = np.zeros((1 << circuit.num_qubits, batch))
    amps[0] = 1.0
    for ins in circuit.instructions:
        if ins.op == "measure":
            yield amps, ins.args[0]
        else:
            _KERNELS[ins.op](amps, *ins.args)


def _run_batch(circuit: Circuit, uniforms: np.ndarray) -> np.ndarray:
    """Run ``uniforms.shape[1]`` shots of ``circuit``, each from the ground state.

    Row k of ``uniforms`` holds the draws for the k-th ``measure``, one
    per shot. Returns the outcome bits as a bool array of the same shape.
    """
    bits = np.empty(uniforms.shape, dtype=bool)
    for k, (amps, qubit) in enumerate(_evolve(circuit, uniforms.shape[1])):
        bits[k] = _measure(amps, qubit, uniforms[k])[0]
    return bits


def _branches(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """All ``2**m`` records of the ``m`` measurements, as ``_run_batch``
    lays out bits (one column each, in lexicographic order), and the
    exact probability of each. Every record runs in one batch with its
    outcomes forced by draws of 0 or inf; one that needs a branch below
    MIN_BRANCH_PROBABILITY gets weight 0.
    """
    m = sum(ins.op == "measure" for ins in circuit.instructions)
    records = ((np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1).astype(bool)
    weights = np.ones(1 << m)
    for k, (amps, qubit) in enumerate(_evolve(circuit, 1 << m)):
        ones, probability = _measure(amps, qubit, np.where(records[k], np.inf, 0.0))
        weights *= np.where(ones == records[k], probability, 0.0)
    return records, weights


def execute(circuit: Circuit, shots: int, rng: np.random.Generator) -> list[RunRecord]:
    """Run the circuit ``shots`` times, each from the ground state.

    Shots run in batches through one vectorized pass over the program.
    Each measurement collapses the state and consumes one uniform; the
    uniforms are drawn shot by shot, in program order within a shot, as
    ``rng.random((shots, measurements))`` lays them out, so a fixed seed
    reproduces every record bit for bit at any batch size.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    measures = [(ins.line, ins.args[0]) for ins in circuit.instructions if ins.op == "measure"]
    batch = max(1, _BATCH_AMPLITUDES >> circuit.num_qubits)
    records = []
    for start in range(0, shots, batch):
        bits = _run_batch(circuit, rng.random((min(batch, shots - start), len(measures))).T)
        records.extend(
            RunRecord(shot, tuple(MeasurementRecord(line, qubit, int(bit))
                                  for (line, qubit), bit in zip(measures, row)))
            for shot, row in enumerate(bits.T.tolist(), start)
        )
    return records
