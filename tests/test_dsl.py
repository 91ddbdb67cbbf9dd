import argparse
import inspect
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsignal import (
    Circuit,
    Instruction,
    ParseError,
    apply_gate,
    cnot,
    execute,
    hadamard,
    load,
    measure_qubit,
    new_ground_state,
    not_gate,
    parse,
    render,
    run_block,
    transmit_message,
)
from qsignal import OutcomeDistribution, dsl, statevector
from qsignal.channel import _receiver_distribution
from qsignal.cli import cmd_run
from qsignal.dsl import MAX_TRIALS
from qsignal.statevector import _KERNELS

import dense
import reference_compile
from conftest import EDGE_DRAWS, EdgeStream

BELL_TEXT = "qubits 2\nh 1\ncnot 1 0"
CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
GOLDEN = Path(__file__).resolve().parent / "golden"
SHIPPED = sorted(CIRCUITS.glob("*.qc"))


# --- parsing ------------------------------------------------------------------


def test_parse_pair_preparation():
    circuit = parse(BELL_TEXT)
    assert circuit.num_qubits == 2
    assert circuit.instructions == (
        Instruction("h", (1,)),
        Instruction("cnot", (1, 0)),
    )
    assert [ins.line for ins in circuit.instructions] == [2, 3]


def test_parse_skips_comments_and_blanks():
    text = "# preparation\n\n   \nqubits 1\n  # indented comment\nh 0\n"
    circuit = parse(text)
    assert circuit.num_qubits == 1
    assert circuit.instructions == (Instruction("h", (0,)),)
    assert circuit.instructions[0].line == 6


def test_parse_tolerates_extra_spaces_between_tokens():
    circuit = parse("qubits   2\ncnot  1   0")
    assert circuit.instructions == (Instruction("cnot", (1, 0)),)


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits 2\ncnot 0 0", "cnot operands must differ, line 2"),
        ("", "missing qubits declaration"),
        ("# only comments\n\n", "missing qubits declaration"),
        ("qubits 2\nfoo 1", "unknown mnemonic 'foo', line 2"),
        ("h 0\nqubits 2", "statement before qubits declaration, line 1"),
        ("qubits 2\nqubits 2", "duplicate qubits declaration, line 2"),
        ("qubits 2\nh 5", "qubit index 5 out of range for 2 qubit(s), line 2"),
        ("qubits 2\nh x", "malformed integer 'x', line 2"),
        ("qubits 2\nh -1", "malformed integer '-1', line 2"),
        ("qubits 2\nh 1.0", "malformed integer '1.0', line 2"),
        ("qubits 2\nh 0 1", "'h' takes 1 operand(s), got 2, line 2"),
        ("qubits 2\ncnot 1", "'cnot' takes 2 operand(s), got 1, line 2"),
        ("qubits 0", "qubit count must be between 1 and 24, got 0, line 1"),
        ("qubits 25", "qubit count must be between 1 and 24, got 25, line 1"),
        ("QUBITS 2", "unknown mnemonic 'QUBITS', line 1"),
        ("qubits 2\nH 0", "unknown mnemonic 'H', line 2"),
        ("qubits 2\nmeasure 0 # trailing", "'measure' takes 1 operand(s), got 3, line 2"),
        ("qubits 2\nh 1" + "0" * 5000, "integer of 5001 digits is too long, line 2"),
        ("qubits " + "0" * 5000 + "2", "integer of 5001 digits is too long, line 1"),
        # lines end only at \n, \r\n and \r, as open() and `grep -n` count them
        *[(f"qubits 2{end}# a{sep}b{end}measure 5",
           "qubit index 5 out of range for 2 qubit(s), line 3")
          for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029" for end in ("\n", "\r\n", "\r")],
        # control characters in a token are escaped, not sent to the terminal
        ("qubits 2\nh 0\x0c", "malformed integer '0\\x0c', line 2"),
        ("qubits 2\n\x1b[2Jh 0", "unknown mnemonic '\\x1b[2Jh', line 2"),
    ],
)
def test_parse_diagnostics(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("limit", [0, 640])
def test_operand_length_limit_ignores_int_digit_limit(limit):
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert parse("qubits 2\nh " + "0" * 639 + "1").instructions == (Instruction("h", (1,)),)
        with pytest.raises(ParseError) as excinfo:
            parse("qubits 2\nh " + "0" * 640 + "1")
    finally:
        sys.set_int_max_str_digits(default)
    assert str(excinfo.value) == "integer of 641 digits is too long, line 2"


def test_parse_error_carries_line_attribute():
    with pytest.raises(ParseError) as excinfo:
        parse("qubits 2\n\ncnot 1 1")
    assert excinfo.value.line == 3
    with pytest.raises(ParseError) as excinfo:
        parse("")
    assert excinfo.value.line is None


def test_load_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # a multibyte character on line 2, then a Latin-1 byte on line 3, lines
    # ending at CRLF and CR as `parse` counts them
    path = tmp_path / "latin1.qc"
    path.write_bytes(b"qubits 2\r\n# caf\xc3\xa9\r# caf\xe9\nh 0\n")
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == "byte 0xe9 is not UTF-8, line 3"
    assert excinfo.value.line == 3


def test_load_ignores_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.qc"
    path.write_bytes(b"\xef\xbb\xbf" + (CIRCUITS / "bell.qc").read_bytes())
    assert load(path) == load(CIRCUITS / "bell.qc")
    # a byte that is not UTF-8 is still named with its line after the mark
    path.write_bytes(b"\xef\xbb\xbfqubits 2\n# caf\xe9\n")
    with pytest.raises(ParseError, match=r"^byte 0xe9 is not UTF-8, line 2$"):
        load(path)


def test_load_refuses_a_file_over_the_byte_cap(tmp_path, monkeypatch):
    path = tmp_path / "cap.qc"
    long_text = "qubits 1\n" + "h 0\n" * 50000  # read in four 64 KiB blocks
    path.write_text(long_text, encoding="utf-8")
    assert load(path) == parse(long_text)
    monkeypatch.setattr(dsl, "_MAX_FILE_BYTES", 64)
    text = "qubits 2\nh 1\ncnot 1 0\n# "
    path.write_bytes((text + "-" * (64 - len(text))).encode())
    assert load(path) == parse(BELL_TEXT)
    path.write_bytes((text + "-" * (65 - len(text))).encode())
    with pytest.raises(ValueError) as excinfo:
        load(path)
    # not a ParseError, each of which but one names a line
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"{path}: a circuit file holds at most 64 bytes"


def test_compile_refuses_a_map_over_the_source_cap(monkeypatch):
    # A parity chain: round k's second outcome XORs in every coin so far, so the
    # sources grow as the square of the file; a chain of 3 rounds holds 9.
    chain = "qubits 2\n" + "h 0\nmeasure 0\ncnot 0 1\nmeasure 1\n" * 3
    monkeypatch.setattr(dsl, "_MAX_SOURCES", 9)
    assert sum(len(sources) for _, sources in dsl._compile(parse(chain))) == 9
    over = parse(chain + "h 0\nmeasure 0\n")  # one more coin, its own one source
    rng = np.random.default_rng(0)
    for refuse in (dsl._compile, lambda circuit: execute(circuit, 1, rng)):
        with pytest.raises(ValueError) as excinfo:
            refuse(over)
        # not a ParseError, each of which but one names a line
        assert type(excinfo.value) is ValueError
        assert str(excinfo.value) == "a compiled circuit holds at most 9 outcome sources"
    assert rng.random() == np.random.default_rng(0).random()  # execute drew nothing


def test_load_fails_on_a_byte_order_mark_that_does_not_lead(tmp_path):
    path = tmp_path / "bom.qc"
    path.write_bytes("\ufeffqubits 2\n\ufeffh 1\n".encode())
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == r"unknown mnemonic '\ufeffh', line 2"
    assert excinfo.value.line == 2


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 26), st.sampled_from(["h", "x", "cnot", "measure", "swap", "z"]),
       st.data())
def test_hand_built_statements_follow_the_parse_rules(num_qubits, op, data):
    # one statement rule: a hand-built Circuit raises exactly when parse
    # of the same text does, with the same message less its line
    args = tuple(data.draw(st.lists(st.integers(0, num_qubits + 1), max_size=3)))
    try:
        expected = parse(f"qubits {num_qubits}\n{op} {' '.join(map(str, args))}")
    except ParseError as exc:
        expected = str(exc).removesuffix(f", line {exc.line}")
    try:
        built = Circuit(num_qubits, (Instruction(op, args),))
    except ParseError as exc:
        assert exc.line is None
        built = str(exc)
    assert built == expected


RESTORE_TYPO = (Instruction("h", (1,)), Instruction("cnot", (1, 0)), Instruction("measure", (0,)),
                Instruction("cnot", (1, 0)), Instruction("h", (5,)), Instruction("measure", (1,)))


@pytest.mark.parametrize("build, message", [
    # the paper's restore with `h 5` typed for `h 1` would read as no signal
    (lambda: Circuit(2, RESTORE_TYPO), "qubit index 5 out of range for 2 qubit(s)"),
    (lambda: Circuit(0, ()), "qubit count must be between 1 and 24, got 0"),
    (lambda: Circuit(40, ()), "qubit count must be between 1 and 24, got 40"),
    (lambda: Circuit(2.0, ()), "qubit count must be between 1 and 24, got 2.0"),
    (lambda: Circuit(2, (Instruction("cnot", (0, 0)),)), "cnot operands must differ"),
    (lambda: Circuit(2, (Instruction("swap", (0, 1)),)), "unknown mnemonic 'swap'"),
    # a float operand is a ValueError here, not a TypeError in _compile
    (lambda: Circuit(2, (Instruction("h", (1.0,)),)), "qubit index 1.0 out of range for 2 qubit(s)"),
    (lambda: Circuit(2, (Instruction("h", (True,)),)), "qubit index True out of range for 2 qubit(s)"),
    (lambda: hadamard(24), "qubit index 24 out of range for 24 qubit(s)"),
])
def test_invalid_statements_fail_at_construction(monkeypatch, build, message):
    monkeypatch.setattr(dsl, "_compile", mock.Mock(side_effect=AssertionError("compiled")))
    with pytest.raises(ValueError) as excinfo:
        execute(build(), 1, np.random.default_rng(0))
    assert str(excinfo.value) == message
    assert getattr(excinfo.value, "line", None) is None


def test_a_wide_circuit_fails_before_any_tableau():
    # the tableau of 20000 qubits grows with the square of the count
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^qubit count must be between 1 and 24, got 20000$"):
            execute(Circuit(20000, ()), 1, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_rejects_tab_separated_tokens():
    with pytest.raises(ParseError) as excinfo:
        parse("qubits\t2")
    assert "unknown mnemonic" in str(excinfo.value)


# --- rendering / round trip -----------------------------------------------------


def test_render_canonical_text():
    circuit = parse("# note\nqubits  2\n\nh   1\ncnot 1 0\nmeasure 0")
    assert render(circuit) == "qubits 2\nh 1\ncnot 1 0\nmeasure 0\n"


def test_round_trip_is_structurally_exact():
    original = parse("# comment\nqubits 3\nh 2\n\nx 0\ncnot 2 1\nmeasure 1\n# end\n")
    assert parse(render(original)) == original


@st.composite
def circuits(draw, max_ops=12):
    num_qubits = draw(st.integers(1, 5))
    qubit = st.integers(0, num_qubits - 1)
    ops = []
    for _ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(["h", "x", "cnot", "measure"]))
        if kind == "cnot":
            if num_qubits == 1:
                kind = "x"
            else:
                control = draw(qubit)
                target = draw(qubit.filter(lambda q: q != control))
                ops.append(Instruction("cnot", (control, target)))
                continue
        ops.append(Instruction(kind, (draw(qubit),)))
    return Circuit(num_qubits, tuple(ops))


@given(circuits())
@settings(max_examples=80, deadline=None)
def test_round_trip_random_circuits(circuit):
    assert parse(render(circuit)) == circuit


# --- execution -------------------------------------------------------------------


def test_execute_bell_outcomes_are_correlated():
    circuit = parse(BELL_TEXT + "\nmeasure 0\nmeasure 1")
    shots = 10_000
    records = execute(circuit, shots, np.random.default_rng(1))
    ones = 0
    for record in records:
        bits = [m.bit for m in record.measurement_outcomes]
        assert bits[0] == bits[1]
        ones += bits[0]
    assert abs(ones / shots - 0.5) < 3 * math.sqrt(0.25 / shots)


def test_execute_without_measurements_records_nothing():
    circuit = parse(BELL_TEXT)
    records = execute(circuit, 50, np.random.default_rng(2))
    assert len(records) == 50
    assert all(record.measurement_outcomes == () for record in records)


def test_execute_shot_indices_are_ordered():
    circuit = parse("qubits 1\nmeasure 0")
    records = execute(circuit, 20, np.random.default_rng(3))
    assert [record.shot_index for record in records] == list(range(20))


def test_execute_records_carry_source_lines_and_qubits():
    circuit = parse("qubits 2\nh 1\nmeasure 1\nmeasure 0")
    (record,) = execute(circuit, 1, np.random.default_rng(4))
    assert [(m.line, m.qubit) for m in record.measurement_outcomes] == [(3, 1), (4, 0)]


def test_execute_is_deterministic_per_seed():
    circuit = parse(BELL_TEXT + "\nmeasure 0\nmeasure 1")
    first = execute(circuit, 200, np.random.default_rng(5))
    second = execute(circuit, 200, np.random.default_rng(5))
    assert first == second


def test_execute_matches_statevector_operations():
    # same seed, same draws: the interpreter must replay the public API exactly
    text = "qubits 2\nh 1\ncnot 1 0\nmeasure 0\ncnot 1 0\nh 1\nmeasure 1"
    circuit = parse(text)
    records = execute(circuit, 40, np.random.default_rng(6))

    rng = np.random.default_rng(6)
    for record in records:
        state = new_ground_state(2)
        state = apply_gate(state, hadamard(1))
        state = apply_gate(state, cnot(1, 0))
        first = measure_qubit(state, 0, rng)
        state = apply_gate(first.post_state, cnot(1, 0))
        state = apply_gate(state, hadamard(1))
        second = measure_qubit(state, 1, rng)
        assert [m.bit for m in record.measurement_outcomes] == [first.outcome, second.outcome]


@given(circuits(), st.integers(0, 2**32 - 1), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_execute_replays_the_complex_statevector_path(circuit, seed, shots):
    # differential: the float64 batched executor against shot-by-shot
    # complex128 StateVector operations fed the same stream, bit for bit.
    # The executor's Born probabilities are exact; a complex one can be an
    # ulp off, and only a draw inside that gap could differ.
    records = execute(circuit, shots, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for record in records:
        state = new_ground_state(circuit.num_qubits)
        bits = []
        for ins in circuit.instructions:
            if ins.op == "measure":
                result = measure_qubit(state, ins.args[0], rng)
                state = result.post_state
                bits.append(result.outcome)
            else:
                state = apply_gate(state, ins)
        assert [m.bit for m in record.measurement_outcomes] == bits


@given(circuits(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_executor_born_probabilities_are_exact(circuit, seed):
    # H, X and CNOT are Clifford: every state is a stabilizer state
    rng = np.random.default_rng(seed)
    for amps, qubit in dense.evolve(circuit, 8):
        p0, p1 = dense.born(amps, qubit)
        assert set(p0.tolist()) <= {0.0, 0.5, 1.0}
        assert (p0 + p1 == 1.0).all()
        dense.measure(amps, qubit, rng.random(8))


def test_executor_gates_are_clifford():
    # the dense oracle's born rounds its probabilities to 0, 1/2 or 1, and
    # the compiled executor takes every outcome to be a fair coin or
    # determined: both are exact only while every gate is Clifford. The
    # parser, the statevector kernels, the oracle's gates and _compile
    # share one gate set. _compile's signs also take every gate to be real
    # (every row then holds an even number of Y's), so a gate like `s`
    # must bring back the i·i term of a row product.
    gates = {"h": 1, "x": 1, "cnot": 2}
    assert {op: n for op, n in dsl._ARITY.items() if op not in ("qubits", "measure")} == gates
    for kernels in (_KERNELS, dense.GATES):
        assert {op: len(inspect.signature(k).parameters) - 1 for op, k in kernels.items()} == gates
    compiled = set()
    for op in [*gates, "swap", "cz", "z", "y", "s", "t"]:
        try:
            dsl._compile(Circuit(2, (Instruction(op, tuple(range(gates.get(op, 2)))),)))
        except ValueError:
            continue
        compiled.add(op)
    assert compiled == set(gates)


@given(circuits(max_ops=30), st.integers(0, 2**32 - 1), st.integers(1, 40))
# the second measure is NOT the first, ((0, (0,)), (1, (0,))): that sign comes only
# from the (-1)^|z1 & x2| term of a row product, which random circuits seldom reach
@example(parse("qubits 2\nh 0\ncnot 0 1\nh 0\ncnot 0 1\nmeasure 1\nh 0\nmeasure 0\n"), 0, 40)
# a determined outcome whose sign comes only from that term of the product of
# stabilizers: it reads 0, ((0, ()),), and without the term a certain 1
@example(parse("qubits 3\ncnot 0 1\nh 0\ncnot 1 2\ncnot 0 1\nh 0\nmeasure 2\n"), 0, 40)
@settings(max_examples=300, deadline=None)
def test_compiled_executor_matches_the_dense_oracle(circuit, seed, shots):
    # differential: the compiled map against the dense amplitudes, byte for
    # byte, with about half the draws on, just below or far below 1/2. A
    # final measurement of every qubit reads out the whole tableau.
    circuit = Circuit(circuit.num_qubits, circuit.instructions + tuple(
        Instruction("measure", (q,)) for q in range(circuit.num_qubits)))
    rng = np.random.default_rng(seed)
    m = sum(ins.op == "measure" for ins in circuit.instructions)
    uniforms = rng.random((m, shots))
    edges = rng.choice(EDGE_DRAWS, size=uniforms.shape)
    uniforms = np.where(rng.random(uniforms.shape) < 0.5, edges, uniforms)
    outcomes = dsl._compile(circuit)
    # one form: entry k is a constant XOR coins, a coin being its own one source
    assert len(outcomes) == m
    for k, (constant, sources) in enumerate(outcomes):
        assert constant in (0, 1) and all(i < j for i, j in zip(sources, sources[1:]))
        assert all(j <= k and outcomes[j] == (0, (j,)) for j in sources)
        assert (outcomes[k] == (0, (k,))) == (k in sources)
    coins = uniforms >= 0.5
    bits, expected = dsl._draw(outcomes, coins), dense.run_batch(circuit, uniforms)
    assert bits.dtype == expected.dtype and bits.shape == expected.shape
    assert bits.tobytes() == expected.tobytes()
    # one entry alone gives its own row, reading only its source rows: every
    # other row is flipped, so a read of one would flip the entry's bits
    for k, (_, sources) in enumerate(outcomes):
        masked = ~coins
        masked[list(sources)] = coins[list(sources)]
        alone = dsl._draw(outcomes[k:k + 1], masked)
        assert alone.shape == (1, shots) and alone.tobytes() == bits[k:k + 1].tobytes()
    if m > 12:
        return  # the dense enumeration holds all 2**m records
    # the last bit's exact marginal: sums of powers of two on both sides
    records, weights = dense.branches(circuit)
    last = records[-1]
    assert _receiver_distribution(outcomes) == OutcomeDistribution(
        float(weights[~last].sum()), float(weights[last].sum()))


@st.composite
def wide_circuits(draw):
    """Circuits of 1-24 qubits and up to 300 statements, gate-heavy (one
    statement in six a measurement) or measurement-heavy (three in five)."""
    num_qubits = draw(st.integers(1, 24))
    mix = draw(st.sampled_from([("h", "x", "cnot", "cnot", "h", "measure"),
                                ("h", "cnot", "measure", "measure", "measure")]))
    size, ops = draw(st.integers(0, 300)), []  # a list of free length is seldom long
    for kind, qubit, offset in draw(st.lists(st.tuples(
            st.sampled_from(mix), st.integers(0, num_qubits - 1), st.integers(0, 22)),
            min_size=size, max_size=size)):
        if kind == "cnot" and num_qubits > 1:  # the target is any other qubit
            ops.append(Instruction("cnot", (qubit, (qubit + 1 + offset % (num_qubits - 1)) % num_qubits)))
        else:
            ops.append(Instruction("x" if kind == "cnot" else kind, (qubit,)))
    return Circuit(num_qubits, tuple(ops))


GHZ24 = "qubits 24\nh 0\n" + "".join(f"cnot {q} {q + 1}\n" for q in range(23))


@given(wide_circuits())
# the dense-oracle property's two circuits whose signs come only from a row
# product's (-1)^|z1 & x2| term: in the random branch, then the determined one
@example(parse("qubits 2\nh 0\ncnot 0 1\nh 0\ncnot 0 1\nmeasure 1\nh 0\nmeasure 0\n"))
@example(parse("qubits 3\ncnot 0 1\nh 0\ncnot 1 2\ncnot 0 1\nh 0\nmeasure 2\n"))
# a 24-qubit GHZ state read out whole: one coin, then 23 outcomes equal to it
@example(parse(GHZ24 + "".join(f"measure {q}\n" for q in range(24))))
@example(parse("qubits 3\nmeasure 2\nmeasure 0\nmeasure 2\n"))  # measurements only
@example(parse("qubits 4\nh 0\ncnot 0 3\nx 2\n"))  # no measurement
@settings(max_examples=200, deadline=None)
def test_compiled_map_matches_the_row_major_reference(circuit):
    # differential: the column-major tableau against the row-major one it
    # replaced, at sizes the dense oracle cannot reach
    assert dsl._compile(circuit) == reference_compile._compile(circuit)


@pytest.mark.parametrize("path", [CIRCUITS / "protocol_send1.qc", GOLDEN / "mixed12.qc"], ids=lambda p: p.stem)
def test_dense_oracle_runs_no_statevector_code(monkeypatch, path):
    # the oracle shares no code with the dense operations it checks: with
    # every statevector kernel and the collapse broken, it still agrees
    # with the compiled map
    def broken(*args):
        raise AssertionError("statevector code ran")

    for op in statevector._KERNELS:
        monkeypatch.setitem(statevector._KERNELS, op, broken)
    monkeypatch.setattr(statevector, "_collapse", broken)
    with pytest.raises(AssertionError, match="statevector code ran"):
        measure_qubit(apply_gate(new_ground_state(1), hadamard(0)), 0, np.random.default_rng(0))
    circuit = load(path)
    outcomes = dsl._compile(circuit)
    rng = np.random.default_rng(5)
    uniforms = rng.random((len(outcomes), 64))
    uniforms = np.where(rng.random(uniforms.shape) < 0.5, rng.choice(EDGE_DRAWS, size=uniforms.shape), uniforms)
    assert dense.run_batch(circuit, uniforms).tobytes() == dsl._draw(outcomes, uniforms >= 0.5).tobytes()
    if len(outcomes) <= 12:  # the enumeration holds all 2**m records
        assert dense.branches(circuit)[1].sum() == 1.0


@pytest.mark.parametrize("path", [CIRCUITS / "protocol_send1.qc", GOLDEN / "mixed12.qc"], ids=lambda p: p.stem)
def test_sample_thresholds_edge_draws_as_the_dense_oracle(path):
    # every uniform is 1/2, just below it or 0, drawn batch by batch: the
    # coins `_coins` thresholds and `_draw` reads give the oracle's bits, so a
    # draw of exactly 1/2 must read as outcome 1
    circuit = load(path)
    outcomes = dsl._compile(circuit)
    stream = EdgeStream(21)
    with mock.patch.object(dsl, "_BATCH_UNIFORMS", 64):
        bits = np.concatenate([dsl._draw(outcomes, coins) for coins in dsl._coins(outcomes, 100, stream)], axis=1)
    uniforms = np.concatenate(stream.drawn).T
    assert len(stream.drawn) > 1 and (uniforms == 0.5).any()
    assert bits.tobytes() == dense.run_batch(circuit, uniforms).tobytes()


def test_executor_rejects_unknown_gates():
    # a hand-built Circuit is checked as parse checks; a two-operand gate is never run as a cnot
    with pytest.raises(ValueError, match="unknown mnemonic 'swap'"):
        circuit = Circuit(2, (Instruction("swap", (0, 1)), Instruction("measure", (0,))))
        execute(circuit, 1, np.random.default_rng(0))


def ghz_text(num_qubits):
    chain = "".join(f"cnot {q - 1} {q}\n" for q in range(1, num_qubits))
    measures = "".join(f"measure {q}\n" for q in range(num_qubits))
    return f"qubits {num_qubits}\nh 0\n{chain}{measures}"


def test_sample_holds_no_amplitudes():
    # one 24-qubit state is 128 MiB of float64 amplitudes
    circuit = parse(ghz_text(24))
    tracemalloc.start()
    try:
        outcomes = dsl._compile(circuit)
        samples = (dsl._draw(outcomes, coins) for coins in dsl._coins(outcomes, 1000, np.random.default_rng(0)))
        counts = Counter(tuple(row) for bits in samples for row in bits.T.tolist())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(counts) == {(False,) * 24, (True,) * 24}
    assert sum(counts.values()) == 1000
    assert peak < 16 << 20


@pytest.mark.parametrize("circuit", [load(GOLDEN / "mixed12.qc"), parse(ghz_text(6))], ids=["mixed12", "ghz6"])
@pytest.mark.parametrize("stream", [np.random.PCG64, lambda seed: np.random.Generator(np.random.PCG64(seed))],
                         ids=["bare", "generator"])
def test_coins_fill_every_row_as_random_lays_it_out(circuit, stream):
    # every row, those no entry's sources name too, holds the coins of
    # ``random((shots, m)).T``, across batches of at most 64 uniforms
    outcomes = dsl._compile(circuit)
    assert len(set().union(*(sources for _, sources in outcomes))) < len(outcomes)
    with mock.patch.object(dsl, "_BATCH_UNIFORMS", 64):
        coins = np.concatenate(list(dsl._coins(outcomes, 101, stream(12))), axis=1)
    expected = np.random.default_rng(12).random((101, len(outcomes))).T >= 0.5
    np.testing.assert_array_equal(coins, expected)


@given(circuits(), st.integers(0, 2**32 - 1), st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_run_histogram_counts_the_execute_records(tmp_path_factory, circuit, seed, shots):
    path = tmp_path_factory.mktemp("run") / "circuit.qc"
    path.write_text(render(circuit), encoding="utf-8")
    # batches of at most 8 uniforms, so the histogram is merged across many
    with mock.patch.object(dsl, "_BATCH_UNIFORMS", 8):
        rows = cmd_run(argparse.Namespace(file=str(path), shots=shots, seed=seed))
    expected = Counter(
        "".join(str(m.bit) for m in record.measurement_outcomes)
        for record in execute(circuit, shots, np.random.default_rng(seed))
        if record.measurement_outcomes
    )
    assert [row["outcome"] for row in rows] == sorted(expected)
    assert {row["outcome"]: row["count"] for row in rows} == expected


def unique_histogram(outcomes, shots, rng):
    """Reference count of whole records: the `_draw` rows of each `_coins` batch
    sorted with ``np.unique`` and summed, as `run` once counted them."""
    histogram = Counter()
    for coins in dsl._coins(outcomes, shots, rng):
        records, counts = np.unique(dsl._draw(outcomes, coins).T, axis=0, return_counts=True)
        histogram.update({"".join("01"[b] for b in record): count
                          for record, count in zip(records.tolist(), counts.tolist())})
    return histogram


@given(circuits(), st.integers(0, 2**32 - 1), st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_histogram_counts_the_records_of_sample(circuit, seed, shots):
    # differential: coin patterns counted and mapped to records once, against
    # every record sorted, over batches of at most 8 uniforms
    outcomes = dsl._compile(circuit)
    with mock.patch.object(dsl, "_BATCH_UNIFORMS", 8):
        histogram = dsl._histogram(outcomes, shots, seed)
        expected = unique_histogram(outcomes, shots, np.random.default_rng(seed))
    assert histogram == expected
    assert sum(histogram.values()) == shots


@pytest.mark.parametrize("text, coins", [
    ("qubits 1\n" + "h 0\nmeasure 0\n" * 70, 70),  # wider than a machine word
    ("qubits 2\nx 0\nmeasure 0\nmeasure 1\n", 0),  # every bit determined
    ("qubits 2\nh 0\ncnot 0 1\n", 0),  # no measurements: one empty record
], ids=["70-coins", "no-coins", "no-measurements"])
def test_histogram_counts_edge_circuits_across_batches(text, coins):
    outcomes = dsl._compile(parse(text))
    assert sum(outcome == (0, (k,)) for k, outcome in enumerate(outcomes)) == coins
    with mock.patch.object(dsl, "_BATCH_UNIFORMS", 256):
        histogram = dsl._histogram(outcomes, 1000, 6)
        expected = unique_histogram(outcomes, 1000, np.random.default_rng(6))
    assert histogram == expected
    assert sum(histogram.values()) == 1000
    assert len(histogram) == (1000 if coins else 1)


@pytest.mark.parametrize("text", ["qubits 2\nx 0\nmeasure 0\nmeasure 1\n", "qubits 2\nh 0\ncnot 0 1\n"],
                         ids=["no-coins", "no-measurements"])
def test_histogram_of_a_circuit_without_coins_draws_nothing(monkeypatch, text):
    # every record is the same, so no stream is made and no batch drawn, on
    # either side of the Python draw limit, even at the shot cap
    def made(seed):
        raise AssertionError("stream made")

    monkeypatch.setattr(dsl, "_PyPCG64", made)
    monkeypatch.setattr(dsl, "_default_rng", made)
    outcomes = dsl._compile(parse(text))
    record = "".join(str(constant) for constant, _ in outcomes)
    for shots in (1, MAX_TRIALS):
        assert dsl._histogram(outcomes, shots, 0) == {record: shots}


@given(circuits(), st.integers(0, 2**32 - 1), st.integers(1, 200),
       st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(1, 12),
       st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]))
@settings(max_examples=100, deadline=None)
def test_a_bare_pcg64_runs_as_its_generator(circuit, seed, shots, message, n_pairs, bit_generator):
    # coins read off a bare PCG64's raw outputs are those of Generator(PCG64),
    # at the same stream positions, over batches of at most 8 uniforms
    bare, generator = bit_generator(seed), np.random.Generator(bit_generator(seed))
    with mock.patch.object(dsl, "_BATCH_UNIFORMS", 8):
        assert execute(circuit, shots, bare) == execute(circuit, shots, generator)
        assert bare.state == generator.bit_generator.state
    for bit in message:
        assert run_block(bit, n_pairs, bare) == run_block(bit, n_pairs, generator)
    assert bare.state == generator.bit_generator.state
    assert transmit_message(message, n_pairs, bare) == transmit_message(message, n_pairs, generator)
    assert bare.state == generator.bit_generator.state
    assert bare.seed_seq.n_children_spawned == generator.bit_generator.seed_seq.n_children_spawned


@given(st.integers(0, 2**4100 - 1),
       st.lists(st.one_of(st.tuples(st.integers(0, 40)), st.tuples(st.integers(0, 6), st.integers(0, 6))),
                min_size=2, max_size=4))
@example(0, [(3,), (2, 0)])
@example(2**32 - 1, [(0,), (5, 3)])
@example(2**32, [(4, 0), (7,)])
@example(2**128, [(1,), (3, 3)])
@example(2**160 + 2**96 + 7, [(9,), (2, 5)])  # six words: entropy past SeedSequence's 4-word pool
@settings(max_examples=200, deadline=None)
def test_python_pcg64_computes_the_stream_of_pcg64(seed, shapes):
    # seeding (SeedSequence, then PCG64's set-seed) and each output, across
    # successive draws, as numpy computes them
    python, numpy = dsl._PyPCG64(seed), np.random.PCG64(seed)
    for shape in shapes:
        raw, expected = python.random_raw(shape), numpy.random_raw(shape)
        assert raw.dtype == expected.dtype and raw.shape == expected.shape
        np.testing.assert_array_equal(raw, expected)


@pytest.mark.parametrize("seed", [0, 2**70 + 3])
@pytest.mark.parametrize("past, stream", [(0, dsl._PyPCG64), (1, np.random.PCG64)],
                         ids=["at-the-constant", "one-shot-past"])
def test_run_computes_a_small_draw_in_python_with_the_same_output(monkeypatch, seed, past, stream):
    # bell.qc measures twice: half the constant in shots draws the constant
    path, shots = CIRCUITS / "bell.qc", dsl._PY_PCG64_DRAWS // 2 + past
    expected = unique_histogram(dsl._compile(load(path)), shots, np.random.PCG64(seed))
    streams, coins = [], dsl._coins
    monkeypatch.setattr(dsl, "_coins", lambda outcomes, count, rng: (
        streams.append(type(rng)) or coins(outcomes, count, rng)))
    rows = cmd_run(argparse.Namespace(file=str(path), shots=shots, seed=seed))
    assert streams == [stream]
    assert [(row["outcome"], row["count"]) for row in rows] == sorted(expected.items())


@pytest.mark.parametrize("shots", [1, dsl._PY_PCG64_DRAWS + 1], ids=["python", "numpy"])
def test_histogram_refuses_a_negative_seed_on_both_sides_of_the_python_draw_limit(shots):
    # _PyPCG64 refuses seed -1 as numpy's PCG64 does, not as the stream of 2^32 - 1
    outcomes = dsl._compile(parse("qubits 1\nh 0\nmeasure 0\n"))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        dsl._histogram(outcomes, shots, -1)


def test_execute_x_gate_prepares_deterministic_outcome():
    circuit = parse("qubits 2\nx 1\nmeasure 0\nmeasure 1")
    records = execute(circuit, 10, np.random.default_rng(7))
    for record in records:
        assert [m.bit for m in record.measurement_outcomes] == [0, 1]


def test_execute_full_protocol_statistics():
    send1 = parse("qubits 2\nh 1\ncnot 1 0\nmeasure 0\ncnot 1 0\nh 1\nmeasure 1")
    shots = 10_000
    records = execute(send1, shots, np.random.default_rng(8))
    ones = sum(record.measurement_outcomes[-1].bit for record in records)
    assert abs(ones / shots - 0.5) < 3 * math.sqrt(0.25 / shots)

    send0 = parse("qubits 2\nh 1\ncnot 1 0\ncnot 1 0\nh 1\nmeasure 1")
    records = execute(send0, shots, np.random.default_rng(9))
    assert sum(record.measurement_outcomes[-1].bit for record in records) == 0


@given(circuits(), st.integers(0, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_execute_last_bit_matches_the_exact_marginal(circuit, qubit, seed):
    # differential: the sampled frequency of the last bit against the
    # compiled map's exact marginal, at 5 sigma, and equal where it is certain
    circuit = Circuit(circuit.num_qubits, circuit.instructions + (
        Instruction("measure", (qubit % circuit.num_qubits,)),))
    shots = 1000
    ones = sum(record.measurement_outcomes[-1].bit
               for record in execute(circuit, shots, np.random.default_rng(seed)))
    p = _receiver_distribution(dsl._compile(circuit)).p_bob_1
    if p in (0.0, 1.0):
        assert ones == p * shots
    else:
        assert abs(ones / shots - p) <= 5 * math.sqrt(p * (1.0 - p) / shots)


# --- exact branch enumeration (the dense oracle) -----------------------------------


def branch_table(circuit):
    """Exact weight of each measurement record, keyed by its bit string."""
    records, weights = dense.branches(circuit)
    return {"".join(str(int(b)) for b in column): float(w)
            for column, w in zip(records.T, weights)}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_branch_weights_sum_to_one(path):
    circuit = load(path)
    table = branch_table(circuit)
    measures = sum(ins.op == "measure" for ins in circuit.instructions)
    assert sorted(table) == [format(r, f"0{measures}b") for r in range(1 << measures)]
    assert abs(sum(table.values()) - 1.0) < 1e-12


def test_mixed12_branches_are_an_affine_support():
    # 15 measurements, 7 of them random: the 2**7 coin settings give 128
    # distinct records, found without the 2 GiB a dense enumeration of
    # 2**15 records would take; every sampled record is one of them
    circuit = load(GOLDEN / "mixed12.qc")
    tracemalloc.start()
    try:
        outcomes = dsl._compile(circuit)
        coins = [k for k, outcome in enumerate(outcomes) if outcome == (0, (k,))]
        uniforms = np.zeros((len(outcomes), 1 << len(coins)))
        uniforms[coins] = np.arange(1 << len(coins)) >> np.arange(len(coins))[:, None] & 1
        support = {tuple(column) for column in dsl._draw(outcomes, uniforms >= 0.5).T.tolist()}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 15 and len(coins) == 7
    assert len(support) == 128
    assert peak < 32 << 20
    for record in execute(circuit, 500, np.random.default_rng(13)):
        assert tuple(bool(m.bit) for m in record.measurement_outcomes) in support


def test_bell_branches_are_perfectly_correlated():
    table = branch_table(load(CIRCUITS / "bell.qc"))
    assert abs(table["00"] - 0.5) < 1e-12
    assert abs(table["11"] - 0.5) < 1e-12
    assert table["01"] == table["10"] == 0.0


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_execute_histogram_matches_branch_weights(path):
    # differential: sampled frequencies against the exact enumeration, at 5 sigma
    circuit = load(path)
    shots = 20_000
    observed = Counter(
        "".join(str(m.bit) for m in record.measurement_outcomes)
        for record in execute(circuit, shots, np.random.default_rng(12))
    )
    table = branch_table(circuit)
    assert set(observed) <= set(table)
    for record, p in table.items():
        assert abs(observed[record] / shots - p) <= 5 * math.sqrt(p * (1.0 - p) / shots)


def test_execute_rejects_bad_shot_counts():
    # with and without a measurement: a circuit that draws nothing is
    # bounded all the same
    for text in ("qubits 1\nh 0", "qubits 1\nh 0\nmeasure 0"):
        rng = np.random.default_rng(0)
        for shots in (0, MAX_TRIALS + 1):
            with pytest.raises(ValueError, match=f"shots must be between 1 and {MAX_TRIALS}, got {shots}"):
                execute(parse(text), shots, rng)
        for shots in (True, 5.0):
            with pytest.raises(TypeError, match=f"^shots must be an int, got {shots}$"):
                execute(parse(text), shots, rng)
        # rejected before a single uniform was drawn
        assert rng.random() == np.random.default_rng(0).random()


def test_load_parses_files(tmp_path):
    path = tmp_path / "pair.qc"
    path.write_text(BELL_TEXT + "\nmeasure 0\n", encoding="utf-8")
    circuit = load(path)
    assert circuit.num_qubits == 2
    assert circuit.instructions[-1] == Instruction("measure", (0,))
