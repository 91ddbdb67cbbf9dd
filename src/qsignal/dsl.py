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
statement. Files use UTF-8 text, with a leading byte-order mark ignored,
hold at most 16 MiB and conventionally carry the `.qc` extension. Every
diagnostic but 'missing qubits declaration' names its line.
"""

from __future__ import annotations

import codecs
import operator
import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
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
# `load` reads at most 64 KiB past this, so no file can fill memory.
_MAX_FILE_BYTES = 1 << 24
_MAX_SOURCES = 1 << 20  # sources `_compile` holds in all; k measures can name k(k+1)/2
# Distinct records `_histogram` may hold, and their bits in all (a coin also costs
# about 9 bytes a record while patterns are counted); the README gives peaks at both.
_MAX_RECORDS = 1 << 20
_MAX_RECORD_BITS = 40 << 20
# `_coins` draws at most this many uniforms (2 MiB) per batch of shots.
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
    """Parse a circuit file (UTF-8, a leading byte-order mark ignored); a byte that is
    not UTF-8 is reported with its line, a file over `_MAX_FILE_BYTES` by ValueError."""
    with open(path, "rb") as fh:  # 64 KiB reads: one read of the cap would allocate it all
        data = b"".join(islice(iter(lambda: fh.read(1 << 16), b""), (_MAX_FILE_BYTES >> 16) + 1))
    if len(data) > _MAX_FILE_BYTES:
        raise ValueError(f"{path}: a circuit file holds at most {_MAX_FILE_BYTES} bytes")
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_LINE_BREAK.findall(data[:exc.start].decode("utf-8"))) + 1
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", line) from None
    return parse(text)


def _compile(circuit: Circuit) -> tuple[_Outcome, ...]:
    """Each ``measure`` of ``circuit`` as an affine function of earlier outcomes.

    H, X, CNOT and Z-basis measurement are Clifford, so whether an outcome
    is random, and how a determined one depends on earlier ones, is fixed
    by the circuit. One pass of a stabilizer tableau (Aaronson & Gottesman,
    PRA 70, 052328, 2004) finds it. Rows 0..n-1 are destabilizers and
    n..2n-1 stabilizers. A row of bitmasks x, z over qubits and a sign s
    stands for (-1)^s i^(|x & z| mod 2) X^x Z^z: CNOT flips no sign, and a
    product of commuting rows picks up (-1)^|z1 & x2| and no i·i term, since H,
    X and CNOT are real and so every row holds an even number of Y's. Signs are
    symbolic: bit 0 a constant, bit k + 1 the outcome of the k-th measurement.
    Entry k is ``(constant, sources)``: the k-th outcome is ``constant`` XOR the
    outcomes of the random measurements in ``sources``. A fair coin k is its own
    one source, ``(0, (k,))``; a determined outcome's sources are all earlier
    coins. Sources are counted as entries are made, and the first measurement
    past `_MAX_SOURCES` raises ValueError.
    """
    n = circuit.num_qubits
    xs = [1 << q for q in range(n)] + [0] * n
    zs = [0] * n + [1 << q for q in range(n)]
    signs = [0] * (2 * n)  # destabilizer signs are carried, never read
    outcomes: list[_Outcome] = []
    held = 0
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
                    xs[i], zs[i] = x ^ (x >> c & 1) << t, z ^ (z >> t & 1) << c
            continue
        p = next((i for i in range(n, 2 * n) if xs[i] & a), None)
        if p is None:
            # determined: Z_a is the product of the stabilizers paired with
            # the destabilizers that anticommute with it
            x = sign = 0  # the product's X part; its Z part is never read
            for i in range(n):
                if xs[i] & a:
                    sign ^= signs[n + i] ^ (zs[n + i] & x).bit_count() & 1
                    x ^= xs[n + i]
        else:  # random: the new stabilizer's sign is this outcome's own coin
            for i in range(2 * n):
                if i != p and xs[i] & a:
                    signs[i] ^= signs[p] ^ (zs[p] & xs[i]).bit_count() & 1
                    xs[i], zs[i] = xs[i] ^ xs[p], zs[i] ^ zs[p]
            xs[p - n], zs[p - n] = xs[p], zs[p]
            sign = 1 << len(outcomes) + 1
            xs[p], zs[p], signs[p] = 0, a, sign
        sources, rest = [], sign >> 1
        held += rest.bit_count()
        if held > _MAX_SOURCES:
            raise ValueError(f"a compiled circuit holds at most {_MAX_SOURCES} outcome sources")
        while rest:
            sources.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        outcomes.append((sign & 1, tuple(sources)))
    return tuple(outcomes)


def _draw(outcomes: tuple[_Outcome, ...], coins: np.ndarray) -> np.ndarray:
    """Outcome bits of the given compiled entries, one row per entry and one
    column per shot, by one rule: an entry's bit is its constant XOR its
    source coins. Row j of the bool ``coins`` is ``uniforms[j] >= 0.5``
    for the draws of the j-th ``measure``, and only source rows are read,
    so a subset of entries (the receiver's alone, say) needs only its
    sources drawn and thresholded. Every Born probability is 0, 1/2 or 1,
    so this is the dense rule (outcome 0 iff the draw is below p0) bit for bit."""
    bits = np.empty((len(outcomes), *coins.shape[1:]), dtype=bool)
    for k, (constant, sources) in enumerate(outcomes):
        if sources:  # written in one pass from its first source
            np.not_equal(coins[sources[0]], bool(constant), out=bits[k])
        else:
            bits[k] = constant
        for j in sources[1:]:
            bits[k] ^= coins[j]
    return bits


def _pcg64(rng) -> bool:
    """Whether ``rng`` is a bare PCG64 or PCG64DXSM bit generator, which makes
    a uniform from one 64-bit output, as ``(raw >> 11) * 2**-53``. Both classes
    come from their own module: ``np.random.PCG64`` would import the whole
    package, which `cli._default_rng` leaves unloaded."""
    from numpy.random._pcg64 import PCG64, PCG64DXSM
    return isinstance(rng, (PCG64, PCG64DXSM))


def _skip(stream: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM,
          count: int) -> None:
    """Move ``stream`` past ``count`` uniforms as if it had drawn them.

    A PCG64 or PCG64DXSM (`_pcg64`), bare or a Generator's, makes one
    uniform from one 64-bit output, so its own `advance` jumps exactly
    ``count`` draws in O(log count) steps. Other generators draw and
    discard: Philox advances in blocks of four outputs, and MT19937 makes
    one double from two 32-bit words.
    """
    bits = getattr(stream, "bit_generator", stream)  # a bare bit generator is its own
    if _pcg64(bits):
        bits.advance(count)
    else:
        stream.random(count)


def _fill_coins(rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM,
                out: np.ndarray) -> None:
    """Write ``rng``'s next ``out.size`` coins, uniforms ``>= 0.5``, into the
    bool array ``out`` in one draw, laid out as ``rng.random(out.shape)``. A
    bare PCG64 or PCG64DXSM's coin is the top bit of its raw output (`_pcg64`).
    This is the only code that turns a stream into coins."""
    if _pcg64(rng):
        np.less(rng.random_raw(out.shape).view(np.int64), 0, out=out)
    else:
        np.greater_equal(rng.random(out.shape), 0.5, out=out)


def _coins(outcomes: tuple[_Outcome, ...], shots: int,
           rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM):
    """Yield the coins of ``shots`` runs of a compiled circuit (`_compile`),
    batch by batch, as `_draw` reads them: one row per measurement and one
    column per shot, laid out as ``rng.random((shots, measurements)).T``.

    ``rng`` is a Generator, or a bare PCG64 or PCG64DXSM (`_fill_coins`). A
    batch fills at most `_BATCH_UNIFORMS` coins, shot-major, in one draw.
    Draws are sequential, so the stream does not depend on the batch size.
    `_sample` and `_histogram` both read this one loop.
    """
    shots = _check_count("shots", shots, MAX_TRIALS)
    batch = max(1, _BATCH_UNIFORMS // max(1, len(outcomes)))
    for start in range(0, shots, batch):
        coins = np.empty((min(batch, shots - start), len(outcomes)), dtype=bool)
        _fill_coins(rng, coins)
        yield coins.T


def _sample(outcomes: tuple[_Outcome, ...], shots: int,
            rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM):
    """Yield `_draw` bits of ``shots`` runs of a compiled circuit, batch by
    batch, from the coins of `_coins`."""
    for coins in _coins(outcomes, shots, rng):
        yield _draw(outcomes, coins)


def _histogram(outcomes: tuple[_Outcome, ...], shots: int,
               rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM) -> dict[str, int]:
    """Count of each record of ``shots`` runs of a compiled circuit, keyed by
    its bits in program order as a string of 0s and 1s; the draws are those
    of `_sample`.

    A record is a fixed function of its fair coins, and each coin is itself
    one of the outcomes, so distinct coin patterns give distinct records.
    Each batch's per-shot coin tuples are counted in one pass (a circuit
    without coins counts its shots under the empty pattern), and each
    pattern that occurs is mapped to its record once, through `_draw`.
    Records are at most min(shots, 2^coins); above `_MAX_RECORDS` that
    bound raises ValueError before any draw, as does its product with the
    record width above `_MAX_RECORD_BITS`.
    """
    coins = sorted(set().union(*(sources for _, sources in outcomes)))
    shots = _check_count("shots", shots, MAX_TRIALS)
    if (bound := min(shots, 2 ** len(coins))) > _MAX_RECORDS:
        raise ValueError(f"a run holds at most {_MAX_RECORDS} distinct records;"
                         f" {shots} shots of {len(coins)} coins could make {bound}")
    if (bits := bound * len(outcomes)) > _MAX_RECORD_BITS:
        raise ValueError(f"a run's records hold at most {_MAX_RECORD_BITS} bits;"
                         f" {bound} records of {len(outcomes)} bits could hold {bits}")
    patterns = Counter()
    for batch in _coins(outcomes, shots, rng):
        patterns.update(zip(*(batch[k].tolist() for k in coins)) if coins else {(): batch.shape[1]})
    table = np.empty((len(outcomes), len(patterns)), dtype=bool)
    table[coins] = np.array(list(patterns), dtype=bool).T
    counts = list(patterns.values())
    del patterns  # its tuples are freed before the record strings are made
    chars = _draw(outcomes, table).view(np.uint8)
    chars += ord("0")  # in place: a second table-sized array could stay in the heap
    text, m = chars.T.tobytes().decode(), len(outcomes)
    return {text[i * m:(i + 1) * m]: count for i, count in enumerate(counts)}


def execute(circuit: Circuit, shots: int,
            rng: np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM) -> list[RunRecord]:
    """Run the circuit ``shots`` times, each from the ground state.

    Shots run in batches through the circuit's compiled map (`_compile`,
    `_draw`), with no amplitudes. Each measurement consumes one uniform;
    the uniforms are drawn shot by shot, in program order within a shot,
    as ``rng.random((shots, measurements))`` lays them out, so a fixed
    seed reproduces every record bit for bit. ``rng`` is a Generator, or a
    bare PCG64 or PCG64DXSM bit generator, which gives the records of
    ``Generator(rng)`` and leaves its stream where that would.
    """
    measures = [(ins.line, ins.args[0]) for ins in circuit.instructions if ins.op == "measure"]
    rows = (row for bits in _sample(_compile(circuit), shots, rng) for row in bits.T.tolist())
    return [RunRecord(shot, tuple(MeasurementRecord(line, qubit, int(bit))
                                  for (line, qubit), bit in zip(measures, row)))
            for shot, row in enumerate(rows)]
