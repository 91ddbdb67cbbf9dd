"""Line-oriented circuit language for small statevector experiments.

Grammar (exact; one statement per line, lines ending at LF, CRLF or CR,
tokens separated by one or more spaces, case-sensitive mnemonics,
base-10 non-negative integers):

    file    := line*
    line    := comment | blank | stmt
    comment := '#' <anything to end of line>
    stmt    := 'qubits' INT | 'h' INT | 'x' INT | 'cnot' INT INT
             | 'measure' INT

The 'qubits' declaration must appear exactly once, before any other
statement. Files use UTF-8 text and conventionally carry the `.qc`
extension. Every diagnostic but 'missing qubits declaration' names its line.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .statevector import _OPERAND_COUNTS, Instruction, _qubit_count_error, _statement_error


class ParseError(ValueError):
    """Malformed circuit, parsed or built by hand; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message}, line {line}"
        super().__init__(message)


@dataclass(frozen=True)
class Circuit:
    """Validated program: qubit count plus the statements after it, as `parse` checks them."""

    num_qubits: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        errors = (_statement_error(ins.op, ins.args, self.num_qubits) for ins in self.instructions)
        if error := _qubit_count_error(self.num_qubits) or next(filter(None, errors), None):
            raise ParseError(error)


class MeasurementRecord(NamedTuple):
    line: int
    qubit: int
    bit: int


@dataclass(frozen=True)
class RunRecord:
    """Outcomes of one shot, in program order."""

    shot_index: int
    measurement_outcomes: tuple[MeasurementRecord, ...]


_ARITY = {"qubits": 1, **_OPERAND_COUNTS}
_INT_RE = re.compile(r"[0-9]+\Z")
# Lines end where open()'s universal newlines and `grep -n` end them, not
# at the other breaks str.splitlines knows (form feed, U+2028, ...).
_LINE_BREAK = re.compile(r"\r\n?|\n")
# Longer operands are rejected before int(), whose digit limit
# (sys.set_int_max_str_digits) is never set below 640.
_MAX_DIGITS = 640
# `_sample` draws at most this many uniforms (2 MiB) per batch of shots.
_BATCH_UNIFORMS = 1 << 18
# A compiled ``measure``: ``(constant, sources)``, a fair coin k being ``(0, (k,))``.
_Outcome = tuple[int, tuple[int, ...]]
# Runs per call, checked before any draw: shots here, pair runs in `protocol`.
MAX_TRIALS = 1 << 32


def _check_count(name: str, value, maximum: int | None = None) -> int:
    """``value`` as a Python int from 1 to ``maximum``, unbounded if None, read
    once with ``operator.index``; a bool or a float raises TypeError."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if not 1 <= count <= (count if maximum is None else maximum):
        rule = ">= 1" if maximum is None else f"between 1 and {maximum}"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return count


def parse(text: str) -> Circuit:
    """Parse circuit text, validating structure and qubit indices."""
    num_qubits: int | None = None
    instructions: list[Instruction] = []
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        if not raw.strip():
            continue
        if raw.lstrip(" ").startswith("#"):
            continue
        op, *tokens = [t for t in raw.split(" ") if t]
        # the mnemonic and the operand count first, before any operand is read
        if error := _statement_error(op, tokens, None, _ARITY):
            raise ParseError(error, lineno)
        args = []
        for tok in tokens:
            if not _INT_RE.match(tok):
                raise ParseError(f"malformed integer {tok!r}", lineno)
            if len(tok) > _MAX_DIGITS:
                raise ParseError(f"integer of {len(tok)} digits is too long", lineno)
            args.append(int(tok))
        if op == "qubits":
            if num_qubits is not None:
                raise ParseError("duplicate qubits declaration", lineno)
            if error := _qubit_count_error(args[0]):
                raise ParseError(error, lineno)
            num_qubits = args[0]
            continue
        if num_qubits is None:
            raise ParseError("statement before qubits declaration", lineno)
        if error := _statement_error(op, args, num_qubits):
            raise ParseError(error, lineno)
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
    """Parse a circuit file (UTF-8); a byte that is not UTF-8 is reported with its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK.findall(data[:exc.start].decode("utf-8"))) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", line) from None
    return parse(text)


def _product_sign(x1: int, z1: int, x2: int, z2: int) -> int:
    """1 if the product of two commuting Pauli rows picks up a -1, else 0.

    Rows are bitmasks over qubits (X part, Z part). Each qubit adds the
    exponent of i that its pair of factors yields (Aaronson & Gottesman's
    g); for commuting rows the sum is 0 or 2 mod 4.
    """
    plus = (x1 & z1 & z2 & ~x2) | (x1 & ~z1 & x2 & z2) | (~x1 & z1 & x2 & ~z2)
    minus = (x1 & z1 & x2 & ~z2) | (x1 & ~z1 & z2 & ~x2) | (~x1 & z1 & x2 & z2)
    return (plus.bit_count() - minus.bit_count()) >> 1 & 1


def _compile(circuit: Circuit) -> tuple[_Outcome, ...]:
    """Each ``measure`` of ``circuit`` as an affine function of earlier outcomes.

    H, X, CNOT and Z-basis measurement are Clifford, so whether an outcome
    is random, and how a determined one depends on earlier ones, is fixed
    by the circuit. One pass of a stabilizer tableau (Aaronson & Gottesman,
    PRA 70, 052328, 2004) finds it. Rows 0..n-1 are destabilizers and
    n..2n-1 stabilizers, each an X and a Z bitmask over qubits, and a
    row's sign is symbolic: bit 0 a constant, bit k + 1 the outcome of the
    k-th measurement. Entry k is ``(constant, sources)``: the k-th outcome
    is ``constant`` XOR the outcomes of the random measurements in
    ``sources``. A fair coin k is its own one source, ``(0, (k,))``; a
    determined outcome's sources are all earlier coins.
    """
    n = circuit.num_qubits
    xs = [1 << q for q in range(n)] + [0] * n
    zs = [0] * n + [1 << q for q in range(n)]
    signs = [0] * (2 * n)  # destabilizer signs are carried, never read
    outcomes: list[_Outcome] = []
    for ins in circuit.instructions:
        a = 1 << ins.args[0]
        if ins.op != "measure":
            for i in range(2 * n):
                x, z = xs[i], zs[i]
                if ins.op == "h":
                    signs[i] ^= bool(x & z & a)
                    xs[i], zs[i] = x ^ (x ^ z) & a, z ^ (x ^ z) & a
                elif ins.op == "x":
                    signs[i] ^= bool(z & a)
                else:  # cnot: a Circuit holds no other gate
                    c, t = ins.args
                    xc, zt = x >> c & 1, z >> t & 1
                    signs[i] ^= xc & zt & (1 ^ (x >> t & 1) ^ (z >> c & 1))
                    xs[i], zs[i] = x ^ xc << t, z ^ zt << c
            continue
        p = next((i for i in range(n, 2 * n) if xs[i] & a), None)
        if p is None:
            # determined: Z_a is the product of the stabilizers paired with
            # the destabilizers that anticommute with it
            x = z = sign = 0
            for i in range(n):
                if xs[i] & a:
                    sign ^= signs[n + i] ^ _product_sign(xs[n + i], zs[n + i], x, z)
                    x, z = x ^ xs[n + i], z ^ zs[n + i]
        else:  # random: the new stabilizer's sign is this outcome's own coin
            for i in range(2 * n):
                if i != p and xs[i] & a:
                    signs[i] ^= signs[p] ^ _product_sign(xs[p], zs[p], xs[i], zs[i])
                    xs[i], zs[i] = xs[i] ^ xs[p], zs[i] ^ zs[p]
            xs[p - n], zs[p - n] = xs[p], zs[p]
            sign = 1 << len(outcomes) + 1
            xs[p], zs[p], signs[p] = 0, a, sign
        sources, rest = [], sign >> 1
        while rest:
            sources.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        outcomes.append((sign & 1, tuple(sources)))
    return tuple(outcomes)


def _draw(outcomes: tuple[_Outcome, ...], uniforms: np.ndarray) -> np.ndarray:
    """Outcome bits of the given compiled entries, one row per entry and one
    column per shot, by one rule: an entry's bit is its constant XOR, for
    each source j, whether ``uniforms[j]`` is at least 1/2. Row j of
    ``uniforms`` holds the draws for the j-th ``measure``, and only source
    rows are read, so a subset of entries (the receiver's alone, say) needs
    only its sources drawn. Every Born probability is 0, 1/2 or 1, so this
    is the dense rule (outcome 0 iff the draw is below p0) bit for bit."""
    coins = {j: uniforms[j] >= 0.5 for j in set().union(*(sources for _, sources in outcomes))}
    bits = np.empty((len(outcomes), *uniforms.shape[1:]), dtype=bool)
    for k, (constant, sources) in enumerate(outcomes):
        bits[k] = constant
        for j in sources:
            bits[k] ^= coins[j]
    return bits


def _sample(outcomes: tuple[_Outcome, ...], shots: int, rng: np.random.Generator):
    """Yield `_draw` bits of ``shots`` runs of a compiled circuit (`_compile`),
    batch by batch, with the uniforms laid out as in
    ``rng.random((shots, measurements)).T``.

    A batch draws at most `_BATCH_UNIFORMS` uniforms; draws are
    sequential, so the stream does not depend on the batch size.
    """
    shots = _check_count("shots", shots, MAX_TRIALS)
    batch = max(1, _BATCH_UNIFORMS // max(1, len(outcomes)))
    for start in range(0, shots, batch):
        yield _draw(outcomes, rng.random((min(batch, shots - start), len(outcomes))).T)


def execute(circuit: Circuit, shots: int, rng: np.random.Generator) -> list[RunRecord]:
    """Run the circuit ``shots`` times, each from the ground state.

    Shots run in batches through the circuit's compiled map (`_compile`,
    `_draw`), with no amplitudes. Each measurement consumes one uniform;
    the uniforms are drawn shot by shot, in program order within a shot,
    as ``rng.random((shots, measurements))`` lays them out, so a fixed
    seed reproduces every record bit for bit.
    """
    measures = [(ins.line, ins.args[0]) for ins in circuit.instructions if ins.op == "measure"]
    rows = (row for bits in _sample(_compile(circuit), shots, rng) for row in bits.T.tolist())
    return [RunRecord(shot, tuple(MeasurementRecord(line, qubit, int(bit))
                                  for (line, qubit), bit in zip(measures, row)))
            for shot, row in enumerate(rows)]
