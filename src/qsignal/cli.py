"""Command-line surface: exact analysis, Monte Carlo runs, channel math,
and the circuit interpreter, with JSON or CSV output.

Statistical commands require an explicit --seed; identical invocations
produce byte-identical output at any --workers setting. The default
output format comes from the QSIGNAL_FORMAT environment variable when
set; the --format flag always wins.

Each ``cmd_*`` handler returns its payload: one record as a dict, or for
``run`` a list of records. `_write` writes it to stdout as it is encoded:
JSON in the pieces of the stdlib encoder, and CSV with its header taken from
the first record's keys.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
import types
from dataclasses import asdict
from itertools import islice
from random import SystemRandom

import numpy as np

from .channel import (
    ZChannel,
    ancilla_model_distribution,
    channel_capacity,
    exact_distribution,
    monte_carlo_block_error,
    mutual_information,
)
from .dsl import ParseError, _compile, _histogram, load
from .protocol import transmit_message

FORMAT_ENV_VAR = "QSIGNAL_FORMAT"
_FORMATS = ("json", "csv")


# argparse names a converter that raises ValueError in its message
# ("invalid count value: 'abc'"), so the converters carry user-facing names.
def count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def seed(text: str) -> int:
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _bit_string(text: str) -> str:
    if not re.match(r"[01]+\Z", text):
        raise argparse.ArgumentTypeError(f"must be a non-empty string of 0s and 1s, got {text!r}")
    return text


def _default_rng(seed: int) -> np.random.PCG64:
    """``PCG64(seed)``, the bit generator of ``np.random.default_rng(seed)``.
    Every command reads its coins straight off the 64-bit outputs
    (`dsl._fill_coins`), which gives the coins of ``Generator(PCG64(seed))``, so
    ``Generator`` is never loaded. The package ``numpy.random`` also loads
    ``Generator`` and its legacy half (``mtrand`` and three more bit
    generators), and its ``secrets`` loads ``hmac`` and ``base64``; no command
    uses them. While no other thread can see them, the import below finds a
    stub package that never runs its ``__init__`` and a stub ``secrets``
    holding only ``randbits``; a later import gets the real modules, and an
    ``ImportError`` falls back to ``np.random.PCG64``."""
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


def cmd_exact(args) -> dict:
    return {"experiment": "exact", "bit": args.bit, **asdict(exact_distribution(args.bit))}


def cmd_ancilla(args) -> dict:
    unitary = asdict(ancilla_model_distribution(args.bit))
    collapse = asdict(exact_distribution(args.bit))
    return {
        "experiment": "ancilla",
        "bit": args.bit,
        **unitary,
        "max_abs_diff_vs_collapse": max(abs(unitary[k] - collapse[k]) for k in unitary),
    }


def cmd_block(args) -> dict:
    estimate = monte_carlo_block_error(
        args.bit, args.n, args.trials, _default_rng(args.seed), args.workers
    )
    chan = ZChannel(args.n)
    # workers is an execution detail: the counts do not depend on it, and
    # omitting it keeps output byte-identical across parallelism degrees.
    return {
        "experiment": "block",
        "bit": args.bit,
        "n_pairs": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "count_decoded_one": estimate.count_decoded_one,
        "rate_decoded_one": estimate.rate_decoded_one,
        "error_rate": estimate.error_rate,
        "expected_error_rate": chan.p_missed_one if args.bit == 1 else chan.p_false_one,
        "stderr_error_rate": estimate.stderr_error_rate,
    }


def cmd_channel(args) -> dict:
    chan = ZChannel(args.n)
    row = {
        "experiment": "channel",
        "n_pairs": args.n,
        "p_false_one": chan.p_false_one,
        "p_missed_one": chan.p_missed_one,
    }
    if args.prior is not None:
        row["prior_p1"] = args.prior
        row["mutual_information_bits"] = mutual_information(chan, args.prior)
    else:
        capacity, argmax_prior = channel_capacity(chan)
        row["capacity_bits"] = capacity
        row["argmax_prior_p1"] = argmax_prior
    return row


# Also the CSV header of a run with no outcomes, which has no record to take it from.
_RUN_FIELDS = ["experiment", "file", "shots", "seed", "outcome", "count", "frequency"]


def cmd_run(args) -> list[dict]:
    histogram = _histogram(_compile(load(args.file)), args.shots, _default_rng(args.seed))
    return [
        dict(zip(_RUN_FIELDS, ("run", args.file, args.shots, args.seed,
                               outcome, count, count / args.shots)))
        for outcome, count in sorted(histogram.items())
        if outcome  # a circuit without measurements has no outcomes to report
    ]


def cmd_transmit(args) -> dict:
    bits = [int(c) for c in args.message]
    decoded = transmit_message(bits, args.n, _default_rng(args.seed))
    return {
        "experiment": "transmit",
        "message": args.message,
        "n_pairs": args.n,
        "seed": args.seed,
        "decoded": "".join(str(b) for b in decoded),
        "bit_errors": sum(d != b for d, b in zip(decoded, bits)),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsignal",
        description="Entangled-pair signalling protocol: simulation and channel analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary) -> argparse.ArgumentParser:
        """A subcommand that takes --format and runs ``handler``; the caller adds its own arguments."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=_FORMATS, default=None,
                       help=f"output format (default: ${FORMAT_ENV_VAR} or json)")
        p.set_defaults(handler=handler)
        return p

    p = command("exact", cmd_exact, "exact receiver distribution for one sent bit")
    p.add_argument("--bit", type=int, choices=(0, 1), required=True)

    p = command("ancilla", cmd_ancilla, "receiver distribution under the unitary ancilla model")
    p.add_argument("--bit", type=int, choices=(0, 1), required=True)

    p = command("block", cmd_block, "Monte Carlo OR-decoded block statistics")
    p.add_argument("--n", type=count, required=True, help="pairs per block")
    p.add_argument("--bit", type=int, choices=(0, 1), required=True)
    p.add_argument("--trials", type=count, default=100_000)
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--workers", type=count, default=1)

    p = command("channel", cmd_channel, "information measures of the induced block channel")
    p.add_argument("--n", type=count, required=True, help="pairs per block")
    p.add_argument("--prior", type=probability, default=None,
                   help="input prior P(send 1); omit to report capacity")

    p = command("run", cmd_run, "interpret a .qc circuit file")
    p.add_argument("file")
    p.add_argument("--shots", type=count, default=10_000)
    p.add_argument("--seed", type=seed, required=True)

    p = command("transmit", cmd_transmit, "send a bit string through OR-decoded blocks")
    p.add_argument("--message", type=_bit_string, required=True)
    p.add_argument("--n", type=count, default=10, help="pairs per block")
    p.add_argument("--seed", type=seed, required=True)

    return parser


def _write(payload: dict | list[dict], fmt: str) -> None:
    """Write the payload to stdout as it is encoded, then flush once. JSON's
    pieces are joined 4096 to a write: a write per piece is 2-3x slower."""
    if (out := sys.stdout) is None:  # fd 1 was closed at start-up: as print, write nothing
        return
    try:
        if fmt == "json":
            pieces = json.JSONEncoder(indent=2).iterencode(payload)
            out.writelines(iter(lambda: "".join(islice(pieces, 1 << 12)), ""))
            out.write("\n")
        else:
            import csv  # only CSV output needs it, so no command's start-up loads it
            rows = payload if isinstance(payload, list) else [payload]
            writer = csv.DictWriter(out, list(rows[0]) if rows else _RUN_FIELDS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        out.flush()
    except OSError as exc:  # what stays in stdout's buffer would fail again in the flush at exit
        try:
            fd = out.fileno()
        except (OSError, ValueError):  # no descriptor, as on a StringIO: none to redirect
            pass
        else:
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a closed reader chose to stop: not an error
            raise


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    fmt = args.format or os.environ.get(FORMAT_ENV_VAR) or "json"
    if fmt not in _FORMATS:
        print(
            f"error: {FORMAT_ENV_VAR} must be one of {', '.join(_FORMATS)}, got {fmt!r}",
            file=sys.stderr,
        )
        return 1
    try:
        _write(args.handler(args), fmt)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C is the user's choice too: no traceback, and the status a
        # shell gives a command that SIGINT ended (128 + 2).
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
