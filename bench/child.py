"""One measurement in a fresh interpreter, as a user's CLI call runs.

    python3 bench/child.py '<json spec>'

The spec's ``mode`` is ``import`` (time ``import qsignal.cli`` only),
``job`` (then run ``cli.main(argv)`` with stdout captured, traced when
``trace`` is true) or ``probes`` (time layer functions on fixed inputs).
Prints one JSON report on stdout. Anything the program writes to stderr
passes through, and run.py counts it as a failure.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Only modules the interpreter loads at start-up precede this import, so
# setup_s is the cost a fresh `qsignal` command pays before main runs.
start = time.perf_counter()
import qsignal.cli  # noqa: E402

setup_s = time.perf_counter() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402


def run_job(argv: list[str], trace: bool) -> dict:
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    out = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = qsignal.cli.main(argv)
    run_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "rc": rc,
        "run_s": run_s,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,  # Linux reports KiB
        "stdout": out.getvalue(),
    }
    if recorder is not None:
        report["spans"] = recorder.spans
    return report


def main() -> None:
    spec = json.loads(sys.argv[1])
    report = {"setup_s": setup_s, "numpy": numpy.__version__}
    if spec["mode"] == "job":
        report.update(run_job(spec["argv"], spec.get("trace", False)))
    elif spec["mode"] == "probes":
        import probes

        report["probes"] = probes.run_all(spec["circuit"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
