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
from dataclasses import dataclass

import numpy as np

from .dsl import Circuit, Instruction, _run_batch
from .statevector import (
    RandomSource,
    StateVector,
    apply_gate,
    cnot,
    hadamard,
    measure_qubit,
    new_ground_state,
)

ALICE_QUBIT = 0
BOB_QUBIT = 1
# Pairs per block, checked before a block draws its (n_pairs, m) uniforms.
MAX_PAIRS = 1 << 16


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
    """The maximally entangled pair (|00> + |11>)/sqrt(2).

    Built by gates from the ground state, not by writing amplitudes:
    Hadamard on the receiver's qubit, then CNOT with the receiver's
    qubit as control and the sender's as target.
    """
    state = new_ground_state(2)
    state = apply_gate(state, hadamard(BOB_QUBIT))
    return apply_gate(state, cnot(BOB_QUBIT, ALICE_QUBIT))


def _protocol_circuit(action: AliceAction) -> Circuit:
    """One pair's run as a circuit, equal to ``circuits/protocol_send{bit}.qc``."""
    sender = (Instruction("measure", (ALICE_QUBIT,)),) if action is AliceAction.MEASURE else ()
    return Circuit(2, (
        Instruction("h", (BOB_QUBIT,)),
        Instruction("cnot", (BOB_QUBIT, ALICE_QUBIT)),
        *sender,
        Instruction("cnot", (BOB_QUBIT, ALICE_QUBIT)),
        Instruction("h", (BOB_QUBIT,)),
        Instruction("measure", (BOB_QUBIT,)),
    ))


def _check_pairs(n_pairs: int) -> None:
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise ValueError(f"n_pairs must be between 1 and {MAX_PAIRS}, got {n_pairs}")


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
    action = AliceAction(action)
    if action is AliceAction.SKIP:
        return state, None
    result = measure_qubit(state, ALICE_QUBIT, rng)
    return result.post_state, result.outcome


def restore(state: StateVector) -> StateVector:
    """Undo the preparation: CNOT (receiver controls) first, then Hadamard.

    Both gates are their own inverses, so this is the preparation
    circuit run backwards.
    """
    _require_pair(state)
    state = apply_gate(state, cnot(BOB_QUBIT, ALICE_QUBIT))
    return apply_gate(state, hadamard(BOB_QUBIT))


def bob_step(state: StateVector, rng: RandomSource) -> int:
    """The receiver's computational-basis measurement; returns his bit."""
    _require_pair(state)
    return measure_qubit(state, BOB_QUBIT, rng).outcome


def run_pair(action: AliceAction | int, rng: RandomSource) -> ProtocolTrace:
    """One full protocol run on a fresh pair."""
    action = AliceAction(action)
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
    _check_pairs(n_pairs)
    action = AliceAction(action)
    # One uniform per measurement: the sender's (if she measures), then the receiver's.
    bits = _run_batch(_protocol_circuit(action), rng.random((n_pairs, 1 + action.bit)).T)
    outcomes = tuple(bits[-1].astype(int).tolist())
    return BlockResult(n_pairs, outcomes, int(any(outcomes)))


def transmit_message(
    bits, n_pairs: int, rng: np.random.Generator
) -> list[int]:
    """Send each message bit through its own OR-decoded block.

    Block i draws from the i-th child stream spawned from ``rng``
    (``numpy.random.Generator.spawn``), so the result is independent of
    the order in which blocks execute.
    """
    bits = [int(b) for b in bits]
    if not bits:
        raise ValueError("message must contain at least one bit")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"message bits must be 0 or 1, got {bits}")
    _check_pairs(n_pairs)
    streams = rng.spawn(len(bits))
    return [
        run_block(AliceAction(bit), n_pairs, stream).decoded_bit
        for bit, stream in zip(bits, streams)
    ]
