"""Line-oriented circuit language for small statevector experiments.

Grammar (exact; one statement per line, lines ending at LF, CRLF or CR,
tokens separated by one or more spaces, case-sensitive mnemonics,
base-10 non-negative integers):

    file    := line*
    line    := comment | blank | stmt
    comment := '#' <anything to end of line>
    stmt    := 'qubits' INT | 'h' INT | 'x' INT | 'cnot' INT INT
             | 'measure' INT

A blank line holds any whitespace; a comment's '#' may follow spaces only.
The 'qubits' declaration must appear exactly once, before any other
statement. Files use UTF-8 text, with a leading byte-order mark ignored,
hold at most 16 MiB and conventionally carry the `.qc` extension. Every
diagnostic but 'missing qubits declaration' names its line. Of several
errors, the first in line order that a line shows alone (its mnemonic,
operand count, integers, or the place, uniqueness and count of the
'qubits' declaration) is reported; only a file with none reports its
first statement whose qubit operands are out of range or repeat.
"""

from __future__ import annotations

import codecs
import operator
import os
import re
import sys
import threading
import types
from collections import Counter
from dataclasses import dataclass
from itertools import islice, permutations, product
from random import SystemRandom
from typing import NamedTuple, TypeAlias

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
    """Validated program: qubit count plus the statements after it. The operands of
    every statement, parsed or built by hand, are checked here only; a parsed
    statement's error names its line."""

    num_qubits: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if error := _qubit_count_error(self.num_qubits):
            raise ParseError(error)
        for ins in self.instructions:  # a parsed statement's error names its line
            if error := _statement_error(ins.op, ins.args, self.num_qubits):
                raise ParseError(error, ins.line or None)


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
# about 9 bytes a record while patterns are counted); CHANGES.md records the peaks at both.
_MAX_RECORDS = 1 << 20
_MAX_RECORD_BITS = 40 << 20
# `_coins` draws at most this many uniforms (2 MiB) per batch of shots.
_BATCH_UNIFORMS = 1 << 18
# A compiled ``measure``: ``(constant, sources)``, a fair coin k being ``(0, (k,))``.
_Outcome = tuple[int, tuple[int, ...]]
# A numpy stream: a Generator, or a bare PCG64 or PCG64DXSM bit generator.
_NumpyStream: TypeAlias = "np.random.Generator | np.random.PCG64 | np.random.PCG64DXSM"
# A stream `_fill_coins` reads: a numpy stream or a `_PyPCG64`.
_Stream: TypeAlias = "_NumpyStream | _PyPCG64"
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
        instructions.append(Instruction(op, tuple(args), lineno))
    if num_qubits is None:
        raise ParseError("missing qubits declaration")
    return Circuit(num_qubits, tuple(instructions))  # which checks each statement's operands


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


def _bits(mask: int):
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _compile(circuit: Circuit) -> tuple[_Outcome, ...]:
    """Each ``measure`` of ``circuit`` as an affine function of earlier outcomes.

    H, X, CNOT and Z-basis measurement are Clifford, so whether an outcome
    is random, and how a determined one depends on earlier ones, is fixed
    by the circuit. One pass of a stabilizer tableau (Aaronson & Gottesman,
    PRA 70, 052328, 2004) finds it. Rows 0..n-1 are destabilizers and
    n..2n-1 stabilizers. A row with X and Z bitmasks x, z over qubits and a
    sign s stands for (-1)^s i^(|x & z| mod 2) X^x Z^z: CNOT flips no sign, and
    a product of commuting rows picks up (-1)^|z1 & x2| and no i·i term, since
    H, X and CNOT are real and so every row holds an even number of Y's. The
    tableau is kept by column (as in Stim; Gidney, Quantum 5, 497, 2021), so a
    gate is O(1) big-int operations and a measurement O(n): ``xs[q]`` and
    ``zs[q]`` mask the rows with X (or Z) on qubit q, ``signs`` those whose
    constant sign is 1. Signs are also symbolic: ``coins[j]`` holds stabilizer
    n + j's outcome bits, bit k the k-th outcome. Entry k is ``(constant,
    sources)``: the k-th outcome is ``constant`` XOR the outcomes in ``sources``,
    all earlier coins, and a fair coin k is its own one source, ``(0, (k,))``.
    Sources are counted as entries are made, and the first measurement past
    `_MAX_SOURCES` raises ValueError.
    """
    n = circuit.num_qubits
    xs, zs = [1 << q for q in range(n)], [1 << n + q for q in range(n)]
    signs, coins = 0, [0] * n  # destabilizer signs are carried, never read
    steps = [1 << j for j in range((n - 2).bit_length())]  # with a first shift by 1, they span n - 1 rows
    outcomes: list[_Outcome] = []
    held = 0
    for ins in circuit.instructions:
        q = ins.args[0]
        if ins.op != "measure":
            if ins.op == "h":
                signs ^= xs[q] & zs[q]
                xs[q], zs[q] = zs[q], xs[q]
            elif ins.op == "x":
                signs ^= zs[q]
            else:  # cnot, a Circuit holding no other gate: X spreads to the target, Z back
                xs[ins.args[1]] ^= xs[q]
                zs[q] ^= zs[ins.args[1]]
            continue
        if stabilizers := xs[q] >> n:
            # random: stabilizer p, the first with X on q, is multiplied into the other rows
            # with X on q and moves to its destabilizer; Z_q, signed by a new coin, replaces it
            j = next(_bits(stabilizers))
            p, rows, keep = 1 << n + j, xs[q] ^ 1 << n + j, ~(1 << n + j | 1 << j)
            product = 0  # the rows i whose product picks up (-1)^|z_p & x_i|
            for k, (x, z) in enumerate(zip(xs, zs)):
                if z & p:
                    product ^= x
                    z ^= rows
                if x & p:
                    x ^= rows
                xs[k], zs[k] = x & keep | x >> n & 1 << j, z & keep | z >> n & 1 << j
            zs[q] |= p
            signs = (signs ^ rows & product ^ (rows if signs & p else 0)) & ~p
            if coins[j]:
                for i in _bits(rows >> n):
                    coins[i] ^= coins[j]
            constant, rest = 0, 1 << len(outcomes)
            coins[j] = rest
        else:
            # determined: Z_q is the product of the stabilizers d paired with the destabilizers
            # that anticommute with it; each pair i < i' in d adds (-1)^|x_i & z_i'|, summed
            # by column: a prefix XOR sets bit i' to the parity of x over the rows in d below it
            d, cross, rest = xs[q] << n, 0, 0
            for x, z in zip(xs, zs):
                if below := (x & d) << 1:
                    for step in steps:
                        below ^= below << step
                    cross ^= below & z & d
            constant = ((signs & d).bit_count() ^ cross.bit_count()) & 1
            for i in _bits(xs[q]):
                rest ^= coins[i]
        held += rest.bit_count()
        if held > _MAX_SOURCES:
            raise ValueError(f"a compiled circuit holds at most {_MAX_SOURCES} outcome sources")
        outcomes.append((constant, tuple(_bits(rest))))
    return tuple(outcomes)


def _draw(outcomes: tuple[_Outcome, ...], coins):
    """Outcome bits of the given compiled entries by one rule: an entry's bit
    is its constant XOR its source coins, written with ``^``. ``coins[j]`` is
    the j-th ``measure``'s coin, ``uniform >= 0.5``: either row j of a bool
    array, one column per shot, which gives a bool array of one row per entry
    and one column per shot; or a Python int 0 or 1 (of a list, or a dict
    keyed by measurement), which gives a list of one int per entry. Only source
    coins are read, so a subset of entries (the receiver's alone, say) needs
    only its sources drawn and thresholded. Every Born probability is 0, 1/2
    or 1, so this is the dense rule (outcome 0 iff the draw is below p0) bit for bit."""
    shape = getattr(coins, "shape", None)
    bits = [0] * len(outcomes) if shape is None else np.empty((len(outcomes), *shape[1:]), dtype=bool)
    for k, (constant, sources) in enumerate(outcomes):
        bits[k] = bool(constant)
        for j in sources:
            bits[k] ^= coins[j]  # in place on a row: numpy skips storing a row into itself
    return bits


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _PyPCG64:
    """The stream of numpy's ``PCG64(seed)`` for an int ``seed >= 0`` in Python
    ints, with no numpy call, so no numpy.random module loads; ``random_raw``,
    its one method, gives the next raw outputs as a list of ints. It seeds as
    numpy's ``SeedSequence`` and PCG64's set-seed do (a seed that is not an int
    is a TypeError, a bool is 0 or 1), and its outputs are 128-bit LCG steps
    through XSL-RR (O'Neill, "PCG", HMC-CS-2014-0905)."""

    def __init__(self, seed: int):
        if (seed := operator.index(seed)) < 0:  # as numpy's SeedSequence refuses it
            raise ValueError("expected non-negative integer")
        entropy = [seed >> s & _M32 for s in range(0, seed.bit_length(), 32)]
        const, mult = 0x43B0D7E5, 0x931E8875  # SeedSequence's INIT_A and MULT_A

        def hashmix(value: int) -> int:
            nonlocal const
            value = (value ^ const) * (const := const * mult & _M32) & _M32
            return value ^ value >> 16

        # mix_entropy: a 4-word pool, mixed into itself, then the entropy past 4 words into it
        cells = [hashmix(value) for value in entropy[:4] + [0] * (4 - len(entropy))] + entropy[4:]
        for src, dst in [*permutations(range(4), 2), *product(range(4, len(cells)), range(4))]:
            x = (0xCA01F9DD * cells[dst] - 0x4973F715 * hashmix(cells[src])) & _M32
            cells[dst] = x ^ x >> 16
        const, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, np.uint64): INIT_B, MULT_B
        w0, w1, w2, w3 = (hashmix(cells[k]) | hashmix(cells[k + 1]) << 32 for k in (0, 2, 0, 2))
        self._inc = (w2 << 64 | w3) << 1 | 1  # set-seed, high words first; bit 128 never shows
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG64_MULT + self._inc) & _M128

    def random_raw(self, count: int) -> list[int]:
        state, inc, words = self._state, self._inc, []
        for _ in range(count):  # XSL-RR: the state's halves XORed, rotated by its top 6 bits
            state = (state * _PCG64_MULT + inc) & _M128
            words.append(((x := (state >> 64 ^ state) & _M64) | x << 64) >> (state >> 122) & _M64)
        self._state = state
        return words


# The largest draw, in outputs, that `_histogram` computes in Python: at 4096 outputs
# (2048 shots of bell.qc) the Python branch took 2.44 ms and the numpy one 2.37 ms, each
# the first call after `import qsignal.cli` (fresh interpreters, 2-vCPU VM, numpy 2.4.6).
_PY_PCG64_DRAWS = 1 << 12


def _default_rng(seed: int) -> np.random.PCG64:
    """``PCG64(seed)``, the bit generator of ``np.random.default_rng(seed)``.
    Coins are read off the 64-bit outputs (`_fill_coins`), the coins of
    ``Generator(PCG64(seed))``, so ``Generator`` is never loaded. The package
    ``numpy.random`` also loads ``Generator`` and its legacy half (``mtrand``
    and three more bit generators), and its ``secrets`` loads ``hmac`` and
    ``base64``; no command uses them. While no other thread can see them, the
    import below finds a stub package that never runs its ``__init__`` and a
    stub ``secrets`` holding only ``randbits``; a later import gets the real
    modules, and an ``ImportError`` falls back to ``np.random.PCG64``. The one
    lasting trace: that later package leaves ``bit_generator`` and ``_pcg64``
    unbound as its attributes, though importing them by name works."""
    pcg64 = None
    if threading.active_count() == 1 and not {"numpy.random", "secrets"} & sys.modules.keys():
        stubs = {"numpy.random": types.ModuleType("numpy.random"), "secrets": types.ModuleType("secrets")}
        stubs["numpy.random"].__path__ = [os.path.join(np.__path__[0], "random")]
        stubs["secrets"].randbits = SystemRandom().getrandbits  # what secrets.randbits is
        sys.modules.update(stubs)
        try:
            from numpy.random._pcg64 import PCG64 as pcg64
        except ImportError:  # pcg64 stays None
            pass
        finally:
            for name, stub in stubs.items():
                if sys.modules.get(name) is stub:
                    del sys.modules[name]
    return (pcg64 or np.random.PCG64)(seed)


def _pcg64(rng) -> bool:
    """Whether ``rng`` is a bare PCG64 or PCG64DXSM bit generator, which makes
    a uniform from one 64-bit output, as ``(raw >> 11) * 2**-53``. Nothing can be
    one before their module, ``numpy.random._pcg64``, is loaded, so it is looked
    up, never imported: an import could load the whole ``numpy.random``."""
    module = sys.modules.get("numpy.random._pcg64")
    return module is not None and isinstance(rng, (module.PCG64, module.PCG64DXSM))


def _skip(stream: _NumpyStream, count: int) -> None:
    """Move ``stream`` past ``count`` uniforms as if it had drawn them.

    A PCG64 or PCG64DXSM (`_pcg64`), bare or a Generator's, makes one
    uniform from one 64-bit output, so its own `advance` jumps exactly
    ``count`` draws in O(log count) steps. Other generators draw and
    discard: Philox advances in blocks of four outputs, and MT19937 makes
    one double from two 32-bit words. A `_PyPCG64` can do neither: TypeError.
    """
    if isinstance(stream, _PyPCG64):
        raise TypeError("_skip needs a numpy stream; a _PyPCG64 can neither jump nor draw uniforms")
    bits = getattr(stream, "bit_generator", stream)  # a bare bit generator is its own
    if _pcg64(bits):
        bits.advance(count)
    else:
        stream.random(count)


def _fill_coins(rng: _Stream, out) -> None:
    """Write ``rng``'s next coins, uniforms ``>= 0.5``, into ``out`` in one draw.
    A `_PyPCG64` fills the list ``out`` with Python ints 0 and 1, one per raw
    output, in order. A numpy stream fills the bool array ``out``, laid out as
    ``rng.random(out.shape)``. A `_PyPCG64`'s coin, or a bare PCG64 or
    PCG64DXSM's (`_pcg64`), is the top bit of its 64-bit raw output. This is
    the only code that turns a stream into coins."""
    if isinstance(rng, _PyPCG64):
        out[:] = [word >> 63 for word in rng.random_raw(len(out))]
    elif _pcg64(rng):
        np.less(rng.random_raw(out.shape).view(np.int64), 0, out=out)
    else:
        np.greater_equal(rng.random(out.shape), 0.5, out=out)


def _coins(outcomes: tuple[_Outcome, ...], shots: int, rng: _NumpyStream):
    """Yield the coins of ``shots`` runs of a compiled circuit (`_compile`),
    batch by batch, as `_draw` reads them: one row per measurement and one
    column per shot, laid out as ``rng.random((shots, measurements)).T``.

    ``rng`` is a `_NumpyStream`. A batch fills at most `_BATCH_UNIFORMS` coins,
    shot-major, in one draw (`_fill_coins`). Draws are sequential, so the
    stream does not depend on the batch size. `execute`, `_histogram` and
    `protocol.run_block` all read this one loop.
    """
    shots = _check_count("shots", shots, MAX_TRIALS)
    batch = max(1, _BATCH_UNIFORMS // max(1, len(outcomes)))
    for start in range(0, shots, batch):
        coins = np.empty((min(batch, shots - start), len(outcomes)), dtype=bool)
        _fill_coins(rng, coins)
        yield coins.T


def _histogram(outcomes: tuple[_Outcome, ...], shots: int, seed: int) -> dict[str, int]:
    """Count of each record of ``shots`` runs of a compiled circuit, keyed by
    its bits in program order as a string of 0s and 1s; the coins are those
    `_coins` draws from the stream of ``np.random.default_rng(seed)``.

    A record is a fixed function of its fair coins, and each coin is itself
    one of the outcomes, so distinct coin patterns give distinct records.
    Each batch's per-shot coin tuples are counted in one pass (a circuit
    without coins draws none: its shots are the empty pattern's), and each
    pattern that occurs is mapped to its record once, through `_draw`.
    Records are at most min(shots, 2^coins); above `_MAX_RECORDS` that
    bound raises ValueError before any draw, as does its product with the
    record width above `_MAX_RECORD_BITS`. Only then, and only for a circuit
    with coins, is the stream made: numpy's PCG64 (`_default_rng`), or for at
    most `_PY_PCG64_DRAWS` outputs (shots x measurements) a `_PyPCG64`. That
    run stays in Python ints from its first coin to its last record, one
    batch of them: it neither imports numpy's PCG64 nor makes any numpy call,
    whose first call in a process costs tens of microseconds each.
    """
    coins = sorted(set().union(*(sources for _, sources in outcomes)))
    shots = _check_count("shots", shots, MAX_TRIALS)
    if (bound := min(shots, 2 ** len(coins))) > _MAX_RECORDS:
        raise ValueError(f"a run holds at most {_MAX_RECORDS} distinct records;"
                         f" {shots} shots of {len(coins)} coins could make {bound}")
    if (bits := bound * len(outcomes)) > _MAX_RECORD_BITS:
        raise ValueError(f"a run's records hold at most {_MAX_RECORD_BITS} bits;"
                         f" {bound} records of {len(outcomes)} bits could hold {bits}")
    patterns = Counter() if coins else Counter({(): shots})
    if shots * len(outcomes) <= _PY_PCG64_DRAWS:
        if coins:  # the rows of `_coins`' one batch are this list's every m-th item
            _fill_coins(_PyPCG64(seed), flat := [0] * (shots * len(outcomes)))
            patterns.update(zip(*(flat[k::len(outcomes)] for k in coins)))
        return {"".join("01"[bit] for bit in _draw(outcomes, dict(zip(coins, pattern)))): count
                for pattern, count in patterns.items()}
    if coins:
        for batch in _coins(outcomes, shots, _default_rng(seed)):
            patterns.update(zip(*(batch[k].tolist() for k in coins)))
    table = np.empty((len(outcomes), len(patterns)), dtype=bool)
    table[coins] = np.array(list(patterns), dtype=bool).T
    counts = list(patterns.values())
    del patterns  # its tuples are freed before the record strings are made
    chars = _draw(outcomes, table).view(np.uint8)
    chars += ord("0")  # in place: a second table-sized array could stay in the heap
    text, m = chars.T.tobytes().decode(), len(outcomes)
    return {text[i * m:(i + 1) * m]: count for i, count in enumerate(counts)}


def execute(circuit: Circuit, shots: int, rng: _NumpyStream) -> list[RunRecord]:
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
    outcomes = _compile(circuit)
    rows = (row for coins in _coins(outcomes, shots, rng) for row in _draw(outcomes, coins).T.tolist())
    return [RunRecord(shot, tuple(MeasurementRecord(line, qubit, int(bit))
                                  for (line, qubit), bit in zip(measures, row)))
            for shot, row in enumerate(rows)]
