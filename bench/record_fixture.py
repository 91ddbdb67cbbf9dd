"""Record the mc_block fixture: `qsignal block` stdout for seeds 0-15.

    python3 bench/record_fixture.py

The mc_block check then requires byte-identical stdout at these
benchmark seeds, which pins the fixed-seed output contract. Re-record
only when that output is meant to change, and say why.
"""

import contextlib
import io
import json
import sys

import workloads

sys.path.insert(0, str(workloads.BENCH_DIR.parent / "src"))
from qsignal import cli  # noqa: E402

SEEDS = range(16)


def main() -> None:
    fixture = {}
    for seed in SEEDS:
        job = workloads.mc_block_job(seed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(job.argv))
        if rc != 0:
            raise SystemExit(f"seed {seed}: qsignal exited {rc}")
        fixture[str(seed)] = out.getvalue()
    workloads.FIXTURE_PATH.parent.mkdir(exist_ok=True)
    workloads.FIXTURE_PATH.write_text(json.dumps(fixture, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
