"""qsignal benchmark: one CLI workload end to end, or the traced pass.

    python3 bench/run.py --workload mc_block --seed 0 --seconds 50 --trace 0

Run from the repo root. Every job is one CLI invocation in a fresh
child interpreter that imports ``qsignal.cli`` and calls
``cli.main(argv)`` on inputs generated from ``--seed``; jobs run one at
a time from this process (a closed loop with one client), and each
output is checked. The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The traced pass ignores ``--workload``: one traced invocation runs each
of the four workloads once plain and once with spans around the public
functions of every layer, checks that ``block`` output does not depend
on ``--workers``, and probes the layer functions directly, so it need
not be run once per workload. The table below says which end-to-end
metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
IMPORT_SAMPLES = 5  # import-only children per run, after one warm-up
MIN_JOBS = 3
# Every child is killed once the run is this long past its --seconds,
# so a hung program still ends the run in bounded time.
OVERRUN_S = 100
# The CLI's default output format comes from this variable; the checks
# read JSON, so children run without it whatever the user's shell sets.
FORMAT_ENV_VAR = "QSIGNAL_FORMAT"

# name: (unit, better, what it measures)
END_TO_END = {
    "run_s": ("s", "lower", "wall time of cli.main(argv), median over the run's jobs"),
    "throughput": ("1/s", "higher", "work units per run_s: protocol pairs, or shots for wide_circuit"),
    "setup_s": ("s", "lower", "fresh-interpreter `import qsignal.cli`, median of several per run"),
    "cpu_s": ("s", "lower", "user plus system CPU of the child during cli.main, all threads"),
    "peak_rss_mb": ("MiB", "lower", "ru_maxrss of the child, median over jobs"),
}

# name: (unit, better, how it is measured, the end-to-end metrics it should move)
PER_LAYER = {
    "mc_block.channel.monte_carlo_block_error.s": ("s", "lower", "span total", "run_s, throughput on mc_block"),
    "mc_block.channel.monte_carlo_block_error.trials": ("count", "higher", "blocks simulated", "throughput on mc_block"),
    "mc_block.cli.main.self_s": ("s", "lower", "argparse and render", "run_s on mc_block"),
    "mc_block.tracing.overhead_frac": ("ratio", "lower", "traced/plain run_s - 1", "none (tracing cost)"),
    "transmit.statevector.apply_gate.calls": ("count", "lower", "span count", "run_s on transmit"),
    "transmit.statevector.apply_gate.self_s": ("s", "lower", "span self time", "run_s on transmit"),
    "transmit.statevector.measure_qubit.calls": ("count", "lower", "span count", "run_s on transmit"),
    "transmit.statevector.measure_qubit.self_s": ("s", "lower", "span self time", "run_s on transmit"),
    "transmit.protocol.run_pair.calls": ("count", "lower", "span count", "run_s on transmit"),
    "transmit.protocol.run_pair.self_s": ("s", "lower", "span self time", "run_s on transmit"),
    "transmit.protocol.run_block.self_s": ("s", "lower", "span self time", "run_s on transmit"),
    "transmit.protocol.transmit_message.s": ("s", "lower", "span total", "run_s, throughput on transmit"),
    "transmit.protocol.transmit_message.us_per_pair": ("us", "lower", "span total / pairs", "run_s, throughput on transmit"),
    "transmit.cli.main.self_s": ("s", "lower", "argparse and render", "run_s on transmit"),
    "transmit.tracing.overhead_frac": ("ratio", "lower", "traced/plain run_s - 1", "none (tracing cost)"),
    "dsl_run.dsl.load.s": ("s", "lower", "span total", "run_s on dsl_run"),
    "dsl_run.dsl.execute.s": ("s", "lower", "span total", "run_s, throughput on dsl_run"),
    "dsl_run.dsl.execute.us_per_shot": ("us", "lower", "span total / shots", "run_s, throughput on dsl_run"),
    "dsl_run.dsl.execute.shots": ("count", "higher", "records returned", "throughput on dsl_run"),
    "dsl_run.dsl.execute.measurements": ("count", "higher", "measurements recorded", "throughput on dsl_run"),
    "dsl_run.cli.main.self_s": ("s", "lower", "argparse, histogram, render", "run_s, peak_rss_mb on dsl_run"),
    "dsl_run.tracing.overhead_frac": ("ratio", "lower", "traced/plain run_s - 1", "none (tracing cost)"),
    "wide_circuit.dsl.load.s": ("s", "lower", "span total", "run_s on wide_circuit"),
    "wide_circuit.dsl.execute.s": ("s", "lower", "span total", "run_s, throughput on wide_circuit"),
    "wide_circuit.dsl.execute.us_per_shot": ("us", "lower", "span total / shots", "run_s, throughput on wide_circuit"),
    "wide_circuit.dsl.execute.shots": ("count", "higher", "records returned", "throughput on wide_circuit"),
    "wide_circuit.dsl.execute.measurements": ("count", "higher", "measurements recorded", "throughput on wide_circuit"),
    "wide_circuit.cli.main.self_s": ("s", "lower", "argparse, histogram, render", "run_s on wide_circuit"),
    "wide_circuit.tracing.overhead_frac": ("ratio", "lower", "traced/plain run_s - 1", "none (tracing cost)"),
    "statevector.apply_gate_2q_us": ("us", "lower", "probe: cnot on a pair", "run_s on transmit"),
    "statevector.h_20q_ms": ("ms", "lower", "probe: apply_gate h, 20 qubits, with apply_gate's 16 MiB copy",
                             "run_s, peak_rss_mb on wide_circuit"),
    "statevector.cnot_20q_ms": ("ms", "lower", "probe: apply_gate cnot, 20 qubits, with apply_gate's 16 MiB copy",
                                "run_s, peak_rss_mb on wide_circuit"),
    "statevector.measure_20q_ms": ("ms", "lower", "probe: measure_qubit, 20 qubits, with its 16 MiB copy",
                                   "run_s, peak_rss_mb on wide_circuit"),
    "statevector.h_20q_gbps_computed": ("GB/s", "higher",
                                        "probe: 2 x 16 MiB / h_20q_ms, bytes computed from sizes, the copy not counted",
                                        "run_s on wide_circuit"),
    "channel.ns_per_trial": ("ns", "lower", "probe: one 65536-trial chunk, 1 worker", "run_s, throughput on mc_block"),
    "channel.rng_uniform_ns": ("ns", "lower", "probe: uniform draws, the floor", "none (floor for ns_per_trial)"),
    "channel.rng_spawn_us": ("us", "lower", "probe: Generator.spawn per child", "run_s on mc_block and transmit"),
    "channel.parallel_efficiency": ("ratio", "higher", "probe: t(1 worker) / (2 t(2 workers)), 8 chunks", "run_s, cpu_s on mc_block"),
    "channel.exact_distribution_us": ("us", "lower", "probe: exact_distribution(1)", "none (guard; microseconds beside setup_s)"),
    "channel.channel_capacity_us": ("us", "lower", "probe: channel_capacity(n=10)", "none (guard; microseconds beside setup_s)"),
    "dsl.parse_us": ("us", "lower", "probe: parse protocol_send1.qc", "run_s on dsl_run and wide_circuit"),
    "statevector.errors": ("count", "lower", "exceptions through statevector spans", "fail_frac"),
    "protocol.errors": ("count", "lower", "exceptions through protocol spans", "fail_frac"),
    "channel.errors": ("count", "lower", "exceptions through channel spans", "fail_frac"),
    "dsl.errors": ("count", "lower", "exceptions through dsl spans", "fail_frac"),
    "cli.errors": ("count", "lower", "exceptions through cli spans", "fail_frac"),
}

WIDE_NOTE = (
    "wide_circuit state: 2**20 complex128 amplitudes = 16 MiB, above the L2 ({l2} per core)"
    " and below the L3 ({l3}); 4x the L3 is out of reach under MAX_QUBITS = 24"
)
THREAD_NOTE = (
    "mc_block: time the two worker threads spend waiting on each other is not visible from"
    " outside the program; measuring it needs spans inside the program"
)


# --- environment ------------------------------------------------------------


def _cache_size(level: int) -> str:
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() != "Instruction"):
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.splitlines()
    # A checkout nested inside another repository must not report that one's commit.
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsignal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# --- children ---------------------------------------------------------------


def run_child(spec: dict, limit: float) -> tuple[dict | None, list[str]]:
    """Run child.py on ``spec``, killing it at monotonic time ``limit``.

    Returns the child's report and any problems seen.
    """
    env = {key: value for key, value in os.environ.items() if key != FORMAT_ENV_VAR}
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT,
                              capture_output=True, text=True, env=env,
                              timeout=max(1.0, limit - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, ["timed out"]
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if proc.stderr:
        problems.append(f"stderr: {proc.stderr.strip()[-500:]}")
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None, problems + ["no report from the child"]
    if report.get("rc", 0) != 0:
        problems.append(f"cli.main returned {report['rc']}")
    return report, problems


def run_job(job: workloads.Job, limit: float, trace: bool = False) -> tuple[dict | None, list[str]]:
    """One operation: a CLI invocation whose output is checked."""
    for rel, text in job.files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    report, problems = run_child({"mode": "job", "argv": list(job.argv), "trace": trace}, limit)
    if report is not None and "stdout" in report:
        problems += job.check(report["stdout"])
    for problem in problems:
        print(f"FAILED {job.workload}: {problem}")
    return report, problems


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


# --- end-to-end run ---------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, str]:
    """Repeat the workload's job until ``seconds`` run out; medians per metric."""
    job = workloads.make_job(workload, seed, workloads.load_fixture())
    shown = [arg if len(arg) <= 40 else f"<{len(arg)} chars>" for arg in job.argv]
    print(f"job: qsignal {' '.join(shown)}")
    deadline = time.monotonic() + seconds
    limit = deadline + OVERRUN_S
    setup = []
    for i in range(IMPORT_SAMPLES + 1):
        report, problems = run_child({"mode": "import"}, limit)
        if report is None or problems:
            raise RuntimeError(f"import qsignal.cli failed: {problems}")
        if i:  # the first import also warms the page cache and writes bytecode
            setup.append(report["setup_s"])
    numpy_version = report["numpy"]
    samples = {"run_s": [], "cpu_s": [], "peak_rss_mb": []}
    durations = []
    attempted = failed = 0
    while True:
        start = time.monotonic()
        report, problems = run_job(job, limit)
        durations.append(time.monotonic() - start)
        attempted += 1
        failed += bool(problems)
        if report is not None and "run_s" in report:
            setup.append(report["setup_s"])
            for key in samples:
                samples[key].append(report[key])
        if attempted >= MIN_JOBS and time.monotonic() + statistics.median(durations) > deadline:
            break
    if not samples["run_s"]:
        raise RuntimeError("no job produced a timing")
    samples["throughput"] = [job.units / t for t in samples["run_s"]]
    samples["setup_s"] = setup
    for name, (unit, _, what) in END_TO_END.items():
        print(f"{name:<12} {statistics.median(samples[name]):.6g} {unit:<4} {_spread(samples[name])}; {what}")
    print(f"fail_frac    {failed / attempted:.6g} ({failed} of {attempted} invocations failed)")
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    return metrics, attempted, failed, numpy_version


# --- traced pass ------------------------------------------------------------

SPAN_STATS = {
    "mc_block": [("channel.monte_carlo_block_error", "s"), ("channel.monte_carlo_block_error", "trials")],
    "transmit": [
        ("statevector.apply_gate", "calls"), ("statevector.apply_gate", "self_s"),
        ("statevector.measure_qubit", "calls"), ("statevector.measure_qubit", "self_s"),
        ("protocol.run_pair", "calls"), ("protocol.run_pair", "self_s"),
        ("protocol.run_block", "self_s"), ("protocol.transmit_message", "s"),
    ],
    "dsl_run": [("dsl.load", "s"), ("dsl.execute", "s"), ("dsl.execute", "shots"),
                ("dsl.execute", "measurements")],
}
SPAN_STATS["wide_circuit"] = SPAN_STATS["dsl_run"]
LAYERS = ("statevector", "protocol", "channel", "dsl", "cli")


def span_metrics(workload: str, summary: dict) -> dict[str, float]:
    def stat(function, key):
        entry = summary.get(function, {})
        return entry.get("total_s" if key == "s" else key, 0)

    metrics = {f"{workload}.{fn}.{key}": stat(fn, key) for fn, key in SPAN_STATS[workload]}
    metrics[f"{workload}.cli.main.self_s"] = stat("cli.main", "self_s")
    if workload == "transmit":
        metrics["transmit.protocol.transmit_message.us_per_pair"] = (
            stat("protocol.transmit_message", "s") / max(stat("protocol.transmit_message", "pairs"), 1) * 1e6)
    if workload in ("dsl_run", "wide_circuit"):
        metrics[f"{workload}.dsl.execute.us_per_shot"] = (
            stat("dsl.execute", "s") / max(stat("dsl.execute", "shots"), 1) * 1e6)
    return metrics


def sweep(seed: int, spans_path: Path, limit: float) -> tuple[dict, int, int, str]:
    """One traced pass over every workload, plus the determinism check and probes."""
    fixture = workloads.load_fixture()
    metrics = {f"{layer}.errors": 0 for layer in LAYERS}
    attempted = failed = 0
    with spans_path.open("w", encoding="utf-8") as spans_file:
        for workload in workloads.WORKLOADS:
            job = workloads.make_job(workload, seed, fixture)
            plain, plain_problems = run_job(job, limit)
            traced, traced_problems = run_job(job, limit, trace=True)
            attempted += 2
            failed += bool(plain_problems) + bool(traced_problems)
            if workload == "mc_block" and plain is not None:
                serial, problems = run_job(workloads.mc_block_job(seed, workers=1, fixture=fixture), limit)
                if serial is not None and serial.get("stdout") != plain.get("stdout"):
                    problems.append("stdout at --workers 1 differs from --workers 2")
                    print(f"FAILED mc_block: {problems[-1]}")
                attempted += 1
                failed += bool(problems)
            if plain is None or traced is None or "spans" not in traced:
                continue
            for span in traced["spans"]:
                spans_file.write(json.dumps({"workload": workload, "span": span}) + "\n")
            summary = spans.summarize(traced["spans"])
            metrics.update(span_metrics(workload, summary))
            metrics[f"{workload}.tracing.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1
            for name, entry in summary.items():
                metrics[f"{name.partition('.')[0]}.errors"] += entry["errors"]
    report, problems = run_child({"mode": "probes", "circuit": workloads.DSL_CIRCUIT}, limit)
    if problems or report is None:
        print(f"FAILED probes: {problems}")
        raise RuntimeError("the layer probes failed")
    metrics.update(report["probes"])
    return metrics, attempted, failed, report["numpy"]


def traced_pass(seed: int, seconds: float) -> tuple[dict, int, int, str]:
    """Sweeps until ``seconds`` run out (at least one); medians per metric."""
    spans_path = ROOT / workloads.OUT_DIR / f"spans-seed{seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + seconds
    limit = deadline + OVERRUN_S
    sweeps = []
    attempted = failed = 0
    while True:
        start = time.monotonic()
        metrics, ops, bad, numpy_version = sweep(seed, spans_path, limit)
        sweeps.append(metrics)
        attempted += ops
        failed += bad
        if time.monotonic() + (time.monotonic() - start) > deadline:
            break
    print(f"spans of the last sweep: {spans_path.relative_to(ROOT)}")
    merged = {}
    for name, (unit, _, how, moves) in PER_LAYER.items():
        values = [m[name] for m in sweeps if name in m]
        if values:
            merged[name] = statistics.median(values)
            print(f"{name:<50} {merged[name]:.6g} {unit:<6} {how}; moves {moves}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} invocations failed)")
    return merged, attempted, failed, numpy_version


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsignal" / "cli.py").is_file():
        print(f"error: no qsignal sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    print(f"qsignal benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            metrics, attempted, failed, numpy_version = traced_pass(args.seed, args.seconds)
            table = PER_LAYER
        else:
            metrics, attempted, failed, numpy_version = measure(args.workload, args.seed, args.seconds)
            table = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed, numpy_version)
    print("env " + json.dumps(env))
    if args.trace or args.workload == "wide_circuit":
        print(WIDE_NOTE.format(l2=env["l2_cache"], l3=env["l3_cache"]))
    if args.trace or args.workload == "mc_block":
        print(THREAD_NOTE)
    result = {
        "correct": failed == 0 and set(metrics) == set(table),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
