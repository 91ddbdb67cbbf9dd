"""Exact few-qubit statevector simulator and protocol harness for
collapse-plus-restore signalling on entangled pairs, with channel
analysis and a small circuit language."""


def _import_numpy_without_blas_pool() -> None:
    # OpenBLAS starts one worker per extra core when numpy loads it, and
    # each busy-waits for about 0.1 s, inside which a whole qsignal command
    # runs; qsignal makes no BLAS call that needs them. OpenBLAS reads its
    # thread count once, at load, so the variable is set only for that
    # import and children still see the caller's environment. A numpy
    # already loaded, or a thread count the caller set, is left alone.
    import os
    import sys

    if "numpy" in sys.modules or any(
        name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    ):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_without_blas_pool()

from .statevector import (  # noqa: E402
    AMPLITUDE_ATOL,
    MAX_QUBITS,
    MIN_BRANCH_PROBABILITY,
    NORM_ATOL,
    MeasurementResult,
    RandomSource,
    StateVector,
    apply_gate,
    cnot,
    collapse_qubit,
    hadamard,
    measure_qubit,
    new_ground_state,
    not_gate,
    outcome_distribution,
)
from .protocol import (  # noqa: E402
    ALICE_QUBIT,
    BOB_QUBIT,
    AliceAction,
    BlockResult,
    ProtocolTrace,
    alice_step,
    bob_step,
    prepare_pair,
    restore,
    run_block,
    run_pair,
    transmit_message,
)
from .channel import (  # noqa: E402
    ANCILLA_QUBIT,
    BlockErrorEstimate,
    EmpiricalDistribution,
    OutcomeDistribution,
    ZChannel,
    ancilla_model_distribution,
    binary_entropy,
    block_error_probability,
    channel_capacity,
    exact_distribution,
    monte_carlo_block_error,
    monte_carlo_distribution,
    mutual_information,
)
from .dsl import (  # noqa: E402
    Circuit,
    Instruction,
    MeasurementRecord,
    ParseError,
    RunRecord,
    execute,
    load,
    parse,
    render,
)

__version__ = "0.1.0"

# The public names are those the imports above bind, less the submodules they load.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and type(value) is not type(dsl))
