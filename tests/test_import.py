"""`import qsignal` exports exactly the public names it imports, and loads
numpy without OpenBLAS's worker threads, leaving the environment as it
found it; `import qsignal.cli` loads no module that only some commands
use, OpenSSL's hashes included, and leaves a later ``import hmac`` the
real module. Each case runs in a fresh interpreter, since a process loads
numpy, numpy.random and OpenBLAS's thread count once."""

import ast
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
    # numpy.random is imported without hmac, so no command hashes anything.
    unused = ["concurrent.futures", "logging", "queue", "csv", "encodings.utf_8_sig",
              "hmac", "hashlib", "_hashlib"]
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


# A seeded command in a fresh interpreter after ``before`` has run: its exit
# status and stdout, the file of the hmac it leaves in sys.modules (false for
# none or a stub), and whether OpenSSL is loaded. ``after`` may add to them.
TRANSMIT = """
import io, sys
{before}
import qsignal.cli
sys.stdout = io.StringIO()
code = qsignal.cli.main(['transmit', '--message', '101', '--n', '4', '--seed', '3'])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
hmac = sys.modules.get('hmac')
state = [code, out, hasattr(hmac, 'new') and hmac.__file__, '_hashlib' in sys.modules]
{after}
print(json.dumps(state))
"""


def transmit_fresh(before: str = "", after: str = "") -> list:
    return run_fresh(TRANSMIT.format(before=before, after=after))


def test_a_later_import_gets_the_real_hmac_and_secrets_still_work():
    code, out, real_hmac, openssl, checks = transmit_fresh(after=(
        "import hmac, secrets, numpy as np\n"
        "state.append([\n"
        "    hmac.new(b'key', b'The quick brown fox jumps over the lazy dog', 'sha256').hexdigest(),\n"
        "    hmac.compare_digest is sys.modules['_hashlib'].compare_digest,\n"
        "    len(secrets.token_bytes(8)),\n"
        "    [secrets.compare_digest(b'ab', b'ab'), secrets.compare_digest(b'ab', b'ac')],\n"
        "    np.random.SeedSequence().entropy > 0])"))
    assert code == 0 and out
    assert real_hmac is False and openssl is False  # the command itself loaded neither
    digest, openssl_compare, token, compares, entropy = checks
    assert digest == "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    assert openssl_compare
    assert token == 8
    assert compares == [True, False]
    assert entropy


@pytest.mark.parametrize("before, after, openssl", [
    ("import numpy.random", "", True),
    ("import hmac", "", True),
    # an hmac loaded while OpenSSL is not, as on a build without _hashlib
    ("sys.modules['_hashlib'] = None\nimport hmac\ndel sys.modules['_hashlib']", "", False),
    ("import threading\nidle = threading.Event()\n"
     "threading.Thread(target=idle.wait, daemon=True).start()", "idle.set()", True),
], ids=["numpy.random first", "hmac first", "hmac without OpenSSL first", "second thread"])
def test_imports_are_left_alone_when_the_stub_is_not_safe(before, after, openssl):
    code, out, real_hmac, loaded = transmit_fresh(before, after)
    assert [code, out] == transmit_fresh()[:2]
    assert real_hmac
    assert loaded is openssl


def test_a_secrets_that_needs_more_of_hmac_is_imported_again_with_the_real_one():
    # This secrets stops at the stub, which has no ``new``; the plain retry
    # then loads it with the real hmac.
    finder = """
import importlib.abc, importlib.util
class Secrets(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    runs = 0
    def find_spec(self, name, path, target=None):
        return importlib.util.spec_from_loader(name, self) if name == 'secrets' else None
    def create_module(self, spec):
        return None
    def exec_module(self, module):
        Secrets.runs += 1
        exec('from hmac import new\\nfrom random import SystemRandom\\n'
             'randbits = SystemRandom().getrandbits', vars(module))
sys.meta_path.insert(0, Secrets())
"""
    code, out, real_hmac, openssl = transmit_fresh(finder, "assert Secrets.runs == 2, Secrets.runs")
    assert [code, out] == transmit_fresh()[:2]
    assert real_hmac and openssl
