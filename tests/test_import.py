"""`import qsignal` exports exactly the public names it imports, and loads
numpy without OpenBLAS's worker threads, leaving the environment as it
found it; `import qsignal.cli` loads no module that only some commands
use. A small `run` loads no numpy.random module at all, and neither do
a `run` that draws no coin and coins read off a stream that numpy did not make. A seeded command
loads none of numpy.random's ``Generator``, its legacy half, ``secrets``
and OpenSSL's hashes, and a later ``import numpy.random``,
``import secrets`` or ``import hmac`` gets the real module; the stubs that
make this so are skipped when they are not safe, and an ``ImportError``
under them falls back to the plain import. Each case runs in a fresh
interpreter, since a process loads numpy, numpy.random and OpenBLAS's
thread count once."""

import ast
import functools
import json
import os
import subprocess
import sys
import types
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


def test_star_import_binds_exactly_all_and_no_module():
    namespace = {}
    exec("from qsignal import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qsignal.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert qsignal.__all__ == sorted(qsignal.__all__)


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


def test_cli_loads_no_module_its_commands_do_not_run(tmp_path):
    # The Monte Carlo chunks run on plain threads and CSV output imports csv
    # when asked for: a thread pool would bring logging, queue and more. A
    # byte-order mark is stripped as a prefix, not by the utf-8-sig codec.
    # PCG64 alone is imported, without the numpy.random package's __init__
    # and with a stub secrets, so no command loads Generator, the legacy
    # generators or hashes anything: coins are read off PCG64's raw outputs.
    # A well-formed command line is read off the command table: argparse, and
    # the gettext and locale its first message loads, are built only for help
    # and errors.
    unused = ["argparse", "gettext", "locale",
              "concurrent.futures", "logging", "queue", "csv", "encodings.utf_8_sig",
              "hmac", "hashlib", "_hashlib", "secrets", "base64",
              "numpy.random.mtrand", "numpy.random._pickle", "numpy.random._mt19937",
              "numpy.random._philox", "numpy.random._sfc64",
              "numpy.random._generator", "numpy.random._bounded_integers"]
    bom = tmp_path / "bom.qc"
    bom.write_bytes(b"\xef\xbb\xbfqubits 2\nh 1\ncnot 1 0\nmeasure 0\nmeasure 1\n")
    after_import, after_block = run_fresh(
        f"import io, sys\nunused = {unused!r}\nimport qsignal.cli\n"
        "loaded = [m for m in unused if m in sys.modules]\n"
        "sys.stdout = io.StringIO()\n"
        "code = qsignal.cli.main(['block', '--n', '2', '--bit', '1', '--trials', '200000',"
        " '--seed', '1', '--workers', '2'])\n"
        f"code += qsignal.cli.main(['run', {str(bom)!r}, '--seed', '0'])\n"
        "code += qsignal.cli.main(['transmit', '--message', '101', '--n', '4', '--seed', '3'])\n"
        "sys.stdout = sys.__stdout__\n"
        "assert code == 0\n"
        "print(json.dumps([loaded, [m for m in unused if m in sys.modules]]))")
    assert after_import == []
    assert after_block == []


# Each command line's exit status, stdout and whether argparse is loaded after
# it, run in turn in one fresh interpreter; then the help page of `run`.
ARGPARSE = """
import io, sys
import qsignal.cli
def main(*argv):
    sys.stdout = io.StringIO()
    try:
        code = qsignal.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
    return [code, out, 'argparse' in sys.modules]
runs = [main(*argv) for argv in {argvs!r}]
import argparse
parser = qsignal.cli._build_parser()
sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
print(json.dumps([runs, sub.choices['run'].format_help()]))
"""


def test_help_and_a_line_the_table_does_not_read_still_go_through_argparse():
    # --seed=0 is argparse's own form of --seed 0
    bell = str(Path(__file__).resolve().parents[1] / "circuits" / "bell.qc")
    argvs = [["run", bell, "--seed", "0"], ["run", bell, "--seed=0"], ["run", "--help"]]
    (read, attached, help_), page = run_fresh(ARGPARSE.format(argvs=argvs))
    assert read[0] == 0 and read[2] is False
    assert attached == [0, read[1], True]
    assert help_ == [0, page, True]
    assert page.startswith("usage: qsignal run [-h]")


@pytest.mark.parametrize("shots, loaded", [(["--shots", "100"], False), ([], True)],
                         ids=["100 shots", "default shots"])
def test_only_a_run_past_the_python_draw_limit_loads_numpy_random(shots, loaded):
    # 100 shots of bell.qc's two measurements draw 200 outputs, which
    # `dsl._PyPCG64` computes; the default 10^4 shots import PCG64
    bell = str(Path(__file__).resolve().parents[1] / "circuits" / "bell.qc")
    code, modules = run_fresh(
        "import io, sys\nimport qsignal.cli\nsys.stdout = io.StringIO()\n"
        f"code = qsignal.cli.main(['run', {bell!r}, *{shots!r}, '--seed', '0'])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps([code, [m for m in sys.modules if m.startswith('numpy.random')]]))")
    assert code == 0
    assert ("numpy.random._pcg64" in modules) if loaded else (modules == [])


@pytest.mark.parametrize("text, shots, status", [
    ("qubits 2\nx 0\nmeasure 0\nmeasure 1\n", 10_000, 0),
    ("qubits 1\n" + "h 0\nmeasure 0\n" * 21, 1 << 21, 1),
], ids=["coin-free", "refused"])
def test_a_run_that_draws_no_coin_loads_no_numpy_random(tmp_path, text, shots, status):
    # `dsl._histogram` makes its stream only after the record caps pass, and
    # only for a circuit with coins: 10^4 shots of a coin-free circuit (20000
    # outputs, past the Python draw limit) and 2^21 shots of 21 coins, which
    # the record cap refuses, import no PCG64
    path = tmp_path / "circuit.qc"
    path.write_text(text, encoding="utf-8")
    code, modules = run_fresh(
        "import io, sys\nimport qsignal.cli\nsys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
        f"code = qsignal.cli.main(['run', {str(path)!r}, '--shots', '{shots}', '--seed', '0'])\n"
        "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
        "print(json.dumps([code, [m for m in sys.modules if m.startswith('numpy.random')]]))")
    assert code == status
    assert modules == []


def test_coins_of_a_stream_numpy_did_not_make_load_no_numpy_random():
    # `dsl._pcg64` looks PCG64 up among the loaded modules, never imports it:
    # nothing can be a PCG64 before its module is loaded
    before, coins, after = run_fresh(
        "import sys, numpy as np\nimport qsignal.dsl as dsl\n"
        "def loaded(): return [m for m in sys.modules if m.startswith('numpy.random')]\n"
        "class Plain:\n"
        "    def random(self, shape): return np.linspace(0.0, 1.0, np.prod(shape)).reshape(shape)\n"
        "before, out = loaded(), np.empty((2, 3), dtype=bool)\n"
        "dsl._fill_coins(Plain(), out)\n"
        "dsl._skip(Plain(), 7)\n"
        "print(json.dumps([before, out.tolist(), loaded()]))")
    assert before == []
    assert coins == [[False, False, False], [True, True, True]]
    assert after == []


# A seeded command in a fresh interpreter after ``before`` has run: its exit
# status and stdout, which of WATCHED it leaves loaded, and the names of the
# stubs (modules without a file) it leaves in sys.modules. ``after`` may add
# to them.
WATCHED = ["numpy.random", "secrets", "numpy.random.mtrand", "_hashlib"]
TRANSMIT = """
import io, sys
{before}
import qsignal.cli
sys.stdout = io.StringIO()
code = qsignal.cli.main(['transmit', '--message', '101', '--n', '4', '--seed', '3'])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
state = [code, out, [m for m in {watched!r} if m in sys.modules],
         [m for m in ('numpy.random', 'secrets')
          if m in sys.modules and not hasattr(sys.modules[m], '__file__')]]
{after}
print(json.dumps(state))
"""


def transmit_fresh(before: str = "", after: str = "") -> list:
    return run_fresh(TRANSMIT.format(before=before, after=after, watched=WATCHED))


@functools.cache
def plain_stdout() -> list:
    """Exit status and stdout of the command when numpy.random is imported
    whole, as ``np.random.default_rng`` would import it."""
    return transmit_fresh("import numpy.random")[:2]


def test_a_later_import_gets_the_real_numpy_random():
    code, out, loaded, stubs, checks = transmit_fresh(after=(
        "import pickle, numpy as np\n"
        "unbound = ['random' not in vars(np), 'numpy.random' not in sys.modules]\n"
        "rng = qsignal.dsl._default_rng(5)\n"
        "import numpy.random\n"
        "from numpy.random import Generator, PCG64\n"
        "from numpy.random.bit_generator import SeedSequence\n"
        "state.append([\n"
        "    unbound,\n"
        "    type(rng) is PCG64,\n"
        "    [np.random.default_rng(s).random(5).tolist()\n"
        "     == Generator(qsignal.dsl._default_rng(s)).random(5).tolist()\n"
        "     for s in (0, 1, 2**31 - 1, 2**70)],\n"
        "    pickle.loads(pickle.dumps(rng)).random_raw(3).tolist() == rng.random_raw(3).tolist(),\n"
        "    np.random.RandomState(0).rand(),\n"
        "    SeedSequence().entropy > 0,\n"
        "    'numpy.random.mtrand' in sys.modules])"))
    assert [code, out] == plain_stdout()
    assert loaded == [] and stubs == []  # the command itself loaded none of them
    unbound, pcg64_type, same_streams, pickled, legacy_draw, entropy, legacy_after = checks
    assert unbound == [True, True]
    assert pcg64_type
    assert same_streams == [True] * 4
    assert pickled
    assert legacy_draw == 0.5488135039273248  # RandomState(0).rand()
    assert entropy
    assert legacy_after


def test_a_later_import_gets_the_real_hmac_and_secrets_still_work():
    code, out, loaded, stubs, checks = transmit_fresh(after=(
        "import hmac, secrets, numpy as np\n"
        "state.append([\n"
        "    hmac.new(b'key', b'The quick brown fox jumps over the lazy dog', 'sha256').hexdigest(),\n"
        "    hmac.compare_digest is sys.modules['_hashlib'].compare_digest,\n"
        "    secrets.compare_digest is hmac.compare_digest,\n"
        "    len(secrets.token_bytes(8)),\n"
        "    [secrets.compare_digest(b'ab', b'ab'), secrets.compare_digest(b'ab', b'ac')],\n"
        "    np.random.SeedSequence().entropy > 0])"))
    assert [code, out] == plain_stdout()
    assert loaded == [] and stubs == []  # the command itself loaded neither secrets nor OpenSSL
    digest, openssl_compare, same_compare, token, compares, entropy = checks
    assert digest == "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    assert openssl_compare
    assert same_compare
    assert token == 8
    assert compares == [True, False]
    assert entropy


@pytest.mark.parametrize("before, after, left", [
    ("import numpy.random", "", WATCHED),
    ("import secrets", "", WATCHED),
    ("import threading\nidle = threading.Event()\n"
     "threading.Thread(target=idle.wait, daemon=True).start()", "idle.set()", WATCHED),
    # a stub package would shadow the loaded one, and leave none behind
    ("import numpy.random\ndel sys.modules['secrets']", "",
     ["numpy.random", "numpy.random.mtrand", "_hashlib"]),
], ids=["numpy.random first", "secrets first", "second thread", "numpy.random without secrets first"])
def test_imports_are_left_alone_when_the_stub_is_not_safe(before, after, left):
    code, out, loaded, stubs = transmit_fresh(before, after)
    assert [code, out] == plain_stdout()
    assert loaded == left and stubs == []


@pytest.mark.parametrize("module", ["numpy.random._pcg64"])
def test_an_import_error_under_the_stubs_falls_back_to_the_real_package(module):
    # The first import of ``module`` raises, as a missing or broken extension
    # would; the plain import that follows finds it.
    finder = f"""
import importlib.abc
class Refuse(importlib.abc.MetaPathFinder):
    raised = 0
    def find_spec(self, name, path, target=None):
        if name == {module!r} and not Refuse.raised:
            Refuse.raised += 1
            raise ImportError(name)
sys.meta_path.insert(0, Refuse())
"""
    code, out, loaded, stubs = transmit_fresh(finder, "assert Refuse.raised == 1")
    assert [code, out] == plain_stdout()
    assert stubs == []
    # the whole package ran; a bit_generator loaded before the failure kept the stub's randbits
    assert {"numpy.random", "numpy.random.mtrand"} <= set(loaded)
