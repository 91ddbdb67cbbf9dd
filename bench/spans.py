"""Spans for the benchmark's traced pass.

The recorder wraps qsignal's public functions from outside: in the
child process it replaces each module attribute that holds one of them,
so calls between modules (``cli`` -> ``protocol`` -> ``statevector``)
pass through the wrapper while the package's own files stay untouched.
Spans are kept in memory and handed back when the job ends; run.py
writes them to a file and derives self times from them.

A span is the list ``[id, parent, name, start_ns, end_ns, error, counts]``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Public functions wrapped in the traced pass, by module.
TRACED = {
    "qsignal.statevector": ("apply_gate", "measure_qubit"),
    "qsignal.protocol": ("run_pair", "run_block", "transmit_message"),
    "qsignal.channel": ("monte_carlo_block_error",),
    "qsignal.dsl": ("load", "execute"),
    "qsignal.cli": ("main",),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts recorded at the span boundary, from a call's arguments and result.
COUNTERS = {
    "channel.monte_carlo_block_error": lambda args, kwargs, result: {"trials": result.blocks},
    "protocol.transmit_message": lambda args, kwargs, result: {
        "pairs": len(result) * _arg(args, kwargs, 1, "n_pairs")},
    "dsl.execute": lambda args, kwargs, result: {
        "shots": len(result),
        "measurements": sum(len(r.measurement_outcomes) for r in result)},
}


class Recorder:
    """Collects spans from wrapped functions; parents are tracked per thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [len(self.spans), stack[-1] if stack else None, name,
                    time.perf_counter_ns(), None, None, None]
            self.spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a traced function in loaded qsignal modules."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            layer = module_name.rpartition(".")[2]
            for attr in names:
                original = getattr(module, attr)
                wrappers[id(original)] = (original, self.wrap(f"{layer}.{attr}", original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qsignal" and not module_name.startswith("qsignal."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s, errors and summed counts.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    summary: dict[str, dict] = {}
    for span_id, _, name, start, end, error, counts in spans:
        entry = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration / 1e9
        entry["self_s"] += (duration - _covered_ns(start, end, children.get(span_id, []))) / 1e9
        entry["errors"] += error is not None
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return summary
