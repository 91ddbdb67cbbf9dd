"""Two-party signalling protocol on an entangled qubit pair.

One run: prepare the maximally entangled pair, let the sender (Alice)
either measure her qubit or leave it alone, undo the preparation with a
CNOT followed by a Hadamard, then let the receiver (Bob) measure his
qubit. The receiver sees outcome 1 only if the sender measured, which
turns measurement-or-not into a one-way classical bit.

Qubit layout: qubit 0 is Alice's, qubit 1 is Bob's. In ket notation
|b1 b0> Bob's bit is written first, e.g. the prepared pair is
(|00> + |11>)/sqrt(2) with amplitudes on basis indices 0 and 3. The two
qubits are conceptually held by distant parties. The receiver's local
state after the sender's step is I/2 whatever she does, so the bit
becomes readable only through the two-qubit ``restore`` gate.
"""

from __future__ import annotations

import enum
from collections.abc import Sized
from dataclasses import dataclass
from functools import reduce
from itertools import islice

import numpy as np

from .dsl import MAX_TRIALS, Circuit, Instruction, _check_count, _compile, _sample
from .statevector import (
    RandomSource,
    StateVector,
    _bit,
    apply_gate,
    cnot,
    hadamard,
    measure_qubit,
    new_ground_state,
)

ALICE_QUBIT = 0
BOB_QUBIT = 1
# The pair from the ground state, as circuit statements: Hadamard on the
# receiver's qubit, then CNOT with the receiver's qubit as control. Each gate
# is its own inverse.
_PREPARE = (hadamard(BOB_QUBIT), cnot(BOB_QUBIT, ALICE_QUBIT))
# Pairs per block, checked with MAX_TRIALS by `_check_pairs` before any draw or spawn.
MAX_PAIRS = 1 << 16
# A message spawns one child stream per bit, at most as many as a Monte Carlo
# call's MAX_TRIALS // CHUNK_TRIALS chunks.
_MAX_MESSAGE_BITS = 1 << 16


class AliceAction(enum.IntEnum):
    """The sender's encoding move; the enum value is the message bit."""

    SKIP = 0  # send 0 by leaving the pair untouched (no collapse)
    MEASURE = 1  # send 1 by measuring her qubit in the computational basis

    @property
    def bit(self) -> int:
        return int(self)


@dataclass(frozen=True)
class ProtocolTrace:
    """Full record of one pair's run.

    ``psi_a`` is the prepared pair, ``psi_a_prime`` the state after the
    sender's move, ``psi_b`` the state the receiver measures.
    """

    alice_bit: int
    alice_outcome: int | None
    bob_outcome: int
    psi_a: StateVector
    psi_a_prime: StateVector
    psi_b: StateVector

    def __post_init__(self):
        if (self.alice_outcome is not None) != (self.alice_bit == 1):
            raise ValueError("alice_outcome must be present exactly when alice_bit is 1")


@dataclass(frozen=True)
class BlockResult:
    """Receiver-side outcomes of one OR-decoded block of pairs."""

    n_pairs: int
    bob_outcomes: tuple[int, ...]
    decoded_bit: int

    def __post_init__(self):
        if len(self.bob_outcomes) != self.n_pairs:
            raise ValueError("bob_outcomes length must equal n_pairs")
        if self.decoded_bit != int(any(self.bob_outcomes)):
            raise ValueError("decoded_bit must be the OR of bob_outcomes")


def prepare_pair() -> StateVector:
    """The maximally entangled pair (|00> + |11>)/sqrt(2), built by the
    preparation gates from the ground state, not by writing amplitudes."""
    return reduce(apply_gate, _PREPARE, new_ground_state(2))


def _protocol_circuit(action: AliceAction) -> Circuit:
    """One pair's run as a circuit, equal to ``circuits/protocol_send{bit}.qc``."""
    sender = (Instruction("measure", (ALICE_QUBIT,)),) if action is AliceAction.MEASURE else ()
    return Circuit(2, (*_PREPARE, *sender, *_PREPARE[::-1], Instruction("measure", (BOB_QUBIT,))))


_COMPILED_CIRCUITS = {action: _compile(_protocol_circuit(action)) for action in AliceAction}


def _action(bit, name: str = "action") -> AliceAction:
    """``bit`` as an AliceAction; anything but the ints 0 and 1, a float included, is rejected."""
    return AliceAction(_bit(bit, name))


def _check_pairs(n_pairs: int, blocks: int = 1) -> tuple[int, int]:
    """``(n_pairs, blocks)`` as Python ints, checked against both run-size caps."""
    n_pairs = _check_count("n_pairs", n_pairs, MAX_PAIRS)
    return n_pairs, _check_count("trials", blocks, MAX_TRIALS // n_pairs)


def _require_pair(state: StateVector) -> None:
    if state.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {state.num_qubits} qubits")


def alice_step(
    state: StateVector, action: AliceAction | int, rng: RandomSource
) -> tuple[StateVector, int | None]:
    """The sender's move: measure her qubit (MEASURE) or do nothing (SKIP).

    Returns the resulting state and her outcome, or None when she skips
    (no measurement means no collapse and no draw from ``rng``).
    """
    _require_pair(state)
    action = _action(action)
    if action is AliceAction.SKIP:
        return state, None
    result = measure_qubit(state, ALICE_QUBIT, rng)
    return result.post_state, result.outcome


def restore(state: StateVector) -> StateVector:
    """Undo the preparation: its gates in reverse order, CNOT then Hadamard,
    since each gate is its own inverse."""
    _require_pair(state)
    return reduce(apply_gate, reversed(_PREPARE), state)


def bob_step(state: StateVector, rng: RandomSource) -> int:
    """The receiver's computational-basis measurement; returns his bit."""
    _require_pair(state)
    return measure_qubit(state, BOB_QUBIT, rng).outcome


def run_pair(action: AliceAction | int, rng: RandomSource) -> ProtocolTrace:
    """One full protocol run on a fresh pair."""
    action = _action(action)
    psi_a = prepare_pair()
    psi_a_prime, alice_outcome = alice_step(psi_a, action, rng)
    psi_b = restore(psi_a_prime)
    bob_outcome = bob_step(psi_b, rng)
    return ProtocolTrace(
        alice_bit=action.bit,
        alice_outcome=alice_outcome,
        bob_outcome=bob_outcome,
        psi_a=psi_a,
        psi_a_prime=psi_a_prime,
        psi_b=psi_b,
    )


def run_block(
    action: AliceAction | int, n_pairs: int, rng: np.random.Generator
) -> BlockResult:
    """Run ``n_pairs`` independent pairs for one message bit.

    The decoded bit is the OR of the receiver's outcomes: a single 1
    proves the sender measured. Pairs draw their uniforms in turn, the
    sender's before the receiver's, as ``run_pair`` would.
    """
    n_pairs, _ = _check_pairs(n_pairs)
    bits = np.hstack([*_sample(_COMPILED_CIRCUITS[_action(action)], n_pairs, rng)])
    outcomes = tuple(bits[-1].astype(int).tolist())
    return BlockResult(n_pairs, outcomes, int(any(outcomes)))


def transmit_message(
    bits, n_pairs: int, rng: np.random.Generator
) -> list[int]:
    """Send each message bit through its own OR-decoded block.

    Block i draws from the i-th child stream spawned from ``rng``
    (``numpy.random.Generator.spawn``), so the result is independent of
    the order in which blocks execute. The length is checked before any
    bit is converted; an iterable without a length is read at most one
    bit past the cap. Bits must be integral (``operator.index``).
    """
    if isinstance(bits, Sized):
        count = len(bits)
    else:
        bits = list(islice(bits, _MAX_MESSAGE_BITS + 1))
        count = len(bits) if len(bits) <= _MAX_MESSAGE_BITS else f"more than {_MAX_MESSAGE_BITS}"
    if not 1 <= len(bits) <= _MAX_MESSAGE_BITS:
        raise ValueError(f"message must have between 1 and {_MAX_MESSAGE_BITS} bits, got {count}")
    actions = [_action(b, f"message bit {i}") for i, b in enumerate(bits)]
    n_pairs, _ = _check_pairs(n_pairs)
    streams = rng.spawn(len(actions))
    return [
        run_block(action, n_pairs, stream).decoded_bit
        for action, stream in zip(actions, streams)
    ]
