import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsignal import (
    Circuit,
    GateKind,
    GateOp,
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
)
from qsignal.dsl import _branches

BELL_TEXT = "qubits 2\nh 1\ncnot 1 0"
CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
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
def circuits(draw):
    num_qubits = draw(st.integers(1, 5))
    qubit = st.integers(0, num_qubits - 1)
    ops = []
    for _ in range(draw(st.integers(0, 12))):
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
    # From 4 qubits on, the two layouts may sum a Born probability in a
    # different order (last ulp); only a draw inside that gap could differ.
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
                state = apply_gate(state, GateOp(GateKind(ins.op), ins.args))
        assert [m.bit for m in record.measurement_outcomes] == bits


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


# --- exact branch enumeration ------------------------------------------------------


def branch_table(circuit):
    """Exact weight of each measurement record, keyed by its bit string."""
    records, weights = _branches(circuit)
    return {"".join(str(int(b)) for b in column): float(w)
            for column, w in zip(records.T, weights)}


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_branch_weights_sum_to_one(path):
    circuit = load(path)
    table = branch_table(circuit)
    measures = sum(ins.op == "measure" for ins in circuit.instructions)
    assert sorted(table) == [format(r, f"0{measures}b") for r in range(1 << measures)]
    assert abs(sum(table.values()) - 1.0) < 1e-12


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
    circuit = parse("qubits 1\nh 0")
    with pytest.raises(ValueError):
        execute(circuit, 0, np.random.default_rng(0))


def test_load_parses_files(tmp_path):
    path = tmp_path / "pair.qc"
    path.write_text(BELL_TEXT + "\nmeasure 0\n", encoding="utf-8")
    circuit = load(path)
    assert circuit.num_qubits == 2
    assert circuit.instructions[-1] == Instruction("measure", (0,))
