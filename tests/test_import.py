"""`import qsignal` exports exactly the public names it imports, and loads
numpy without OpenBLAS's worker threads, leaving the environment as it
found it. Each OpenBLAS case runs in a fresh interpreter, since a process
loads numpy, and OpenBLAS reads its thread count, once."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsignal

SRC = str(Path(qsignal.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# prepended to the code of every child
PRELUDE = "import json, os\ndef threads(): return len(os.listdir('/proc/self/task'))\n"

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in /proc/self/task")


def run_fresh(code: str, **env_vars: str):
    """JSON printed by ``code`` in a fresh interpreter whose environment sets
    none of THREAD_VARS but those in ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PRELUDE + code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_all_lists_exactly_the_public_names_the_package_imports():
    tree = ast.parse(Path(qsignal.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not (alias.asname or alias.name).startswith("_")]
    assert imported and len(set(imported)) == len(imported)
    assert len(set(qsignal.__all__)) == len(qsignal.__all__)
    assert set(qsignal.__all__) == set(imported)
    assert all(hasattr(qsignal, name) for name in qsignal.__all__)
    assert not {"GateKind", "GateOp"} & {*qsignal.__all__, *dir(qsignal)}


def test_import_leaves_environment_as_it_was():
    before, after = run_fresh(
        "before = dict(os.environ)\nimport qsignal.cli\nprint(json.dumps([before, dict(os.environ)]))")
    assert "OPENBLAS_NUM_THREADS" not in after
    assert after == before


@needs_proc
def test_import_starts_no_blas_thread():
    assert run_fresh("import qsignal.cli\nprint(threads())") == 1


@needs_proc
def test_user_thread_count_is_kept():
    value, count = run_fresh(
        "import qsignal\nprint(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], threads()]))",
        OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS starts no worker whatever the variable says")
    assert count == 2


@needs_proc
def test_numpy_imported_first_keeps_its_default_pool():
    numpy_alone, with_qsignal = run_fresh(
        "import numpy\nn = threads()\nimport qsignal\nprint(json.dumps([n, threads()]))")
    assert with_qsignal == numpy_alone
