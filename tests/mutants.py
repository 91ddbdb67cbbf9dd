"""Mutants of src/ that the tier-1 tests must kill, and their runner.

    python tests/mutants.py

Each entry of MUTANTS is (module, old, new, why): ``old`` occurs exactly once
in the module's source, and the mutant replaces it with ``new``. The runner
copies the tree to a temporary directory, checks that the unchanged copy
passes tier-1, then applies one mutant at a time and runs tier-1 with ``-x``.
A mutant is killed when the tests fail or run past TIMEOUT seconds (a mutant
can loop forever). The runner exits 1 when an old text is not unique or a
mutant survives. A change that adds a rule adds the mutants that must break it.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds; tier-1 takes about 45 s on a 2-vCPU Xeon VM
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]

MUTANTS = [
    ("qsignal.dsl",
     "constant = ((signs & d).bit_count() ^ cross.bit_count()) & 1",
     "constant = (signs & d).bit_count() & 1",
     "the determined branch's cross term: the 3-qubit @example of the dense-oracle "
     "and reference properties reads a certain 1 where the answer is 0"),
    ("qsignal.dsl",
     "signs = (signs ^ rows & product ^ (rows if signs & p else 0)) & ~p",
     "signs = (signs ^ (rows if signs & p else 0)) & ~p",
     "the random branch's product mask: the 2-qubit @example of both compile "
     "properties reads its second outcome as a copy of the coin, not its complement"),
    ("qsignal.dsl",
     "signs ^= xs[q] & zs[q]",
     "signs ^= 0",
     "h's sign update (H Y H = -Y): the 3-qubit @example of both compile properties "
     "reads a certain 1 where the answer is 0"),
    ("qsignal.dsl",
     "zs[q] ^= zs[ins.args[1]]",
     "zs[q] ^= 0",
     "cnot's Z part: the source-cap test's parity chain reads a parity as a "
     "single coin, and the 3-qubit @example reads a certain 1"),
    ("qsignal.dsl",
     "range((n - 2).bit_length())",
     "range((n - 2).bit_length() - 1)",
     "the prefix XOR's last step, at 3 qubits its only one: the 3-qubit @example "
     "loses the cross term of two rows two apart and reads a certain 1"),
    ("qsignal.dsl",
     "np.less(rng.random_raw(out.shape).view(np.int64), 0, out=out)",
     "np.less_equal(rng.random_raw(out.shape).view(np.int64), 0, out=out)",
     "a raw output of 0 is a uniform of 0.0, a coin of 0: only crafted raw words reach it"),
    ("qsignal.dsl",
     "out[:] = [word >> 63 for word in rng.random_raw(len(out))]",
     "out[:] = [word >> 62 & 1 for word in rng.random_raw(len(out))]",
     "a Python coin reads the raw output's second bit: the crafted raw words and the "
     "Python branch's property against numpy's PCG64 read other coins"),
    ("qsignal.dsl",
     "threading.active_count() == 1",
     "threading.active_count() >= 1",
     "the stubs go in while a second thread could import numpy.random under them: "
     "the import test with an idle thread finds the real package unloaded"),
    ("qsignal.dsl",
     "shots * len(outcomes) <= _PY_PCG64_DRAWS",
     "shots * len(outcomes) < _PY_PCG64_DRAWS",
     "a run of exactly _PY_PCG64_DRAWS draws imports numpy's PCG64 in place of _PyPCG64"),
    ("qsignal.dsl",
     "        if coins:  #",
     "        if True:  #",
     "a small coin-free run makes a _PyPCG64 and draws from it, which the "
     "draws-nothing test finds made"),
    ("qsignal.dsl",
     "    if coins:\n",
     "    if True:\n",
     "a coin-free run past the Python draw limit makes numpy's PCG64 and draws from "
     "it, which the draws-nothing test and the coin-free import test find"),
    ("qsignal.dsl",
     "(seed := operator.index(seed)) < 0",
     "seed < 0",
     "a float seed is an AttributeError below the Python draw limit where numpy's "
     "PCG64 raises TypeError above it"),
    ("qsignal.dsl",
     "(seed := operator.index(seed)) < 0:",
     "False:",
     "_PyPCG64(-1) gives the stream of seed 2^32 - 1 where numpy's PCG64(-1) raises: "
     "a negative seed runs below the Python draw limit and fails above it"),
    ("qsignal.dsl",
     "return module is not None and isinstance(rng, (module.PCG64, module.PCG64DXSM))",
     "return False",
     "a bare PCG64 is read as a Generator: _fill_coins calls the .random it lacks"),
    ("qsignal.dsl",
     "raise ParseError(error, ins.line or None)",
     "raise ParseError(error)",
     "a parsed statement's operand error loses its line: 'cnot 0 0' on line 2 "
     "reads without ', line 2'"),
    ("qsignal.dsl",
     "ins.line or None)",
     "ins.line)",
     "a hand-built statement's operand error names line 0, the default of a "
     "statement that was never parsed"),
    ("qsignal.dsl",
     'if raw.lstrip(" ").startswith("#"):',
     'if raw.lstrip().startswith("#"):',
     "a comment indented by a tab is read as a comment, where only spaces may "
     "indent one: '\\t# note' is an unknown mnemonic"),
    ("qsignal.dsl",
     "if not raw.strip():",
     'if not raw.strip(" "):',
     "a line holding only a tab or a form feed is an unknown mnemonic, not a blank"),
    ("qsignal.dsl",
     "    return parse(text)\n",
     '    return parse(text.replace("\\r", ""))\n',
     "load drops CR: a file whose lines end at CR alone reads as one line"),
    ("qsignal.channel",
     "raise errors.pop(min(errors))",
     "raise errors.pop(max(errors))",
     "of two recorded chunk failures the higher raises, not the one a serial loop would"),
    ("qsignal.channel",
     "drawn = p * m + k + 1",
     "drawn = p * m + k",
     "a chunk's skips fall one row short: later source rows are read from the wrong stream positions"),
    ("qsignal.channel",
     "if trials % CHUNK_TRIALS:",
     "if False:",
     "a partial last chunk is dropped: a trial count off the chunk size counts too few blocks"),
    ("qsignal.channel",
     "min(self.n_pairs, 1075)",
     "min(self.n_pairs, 1074)",
     "the exact miss probability is capped one pair early: from 1075 pairs on it "
     "reads 2^-1074, the smallest subnormal, in place of 0.0"),
    ("qsignal.protocol",
     "rng.spawn(len(actions))",
     "rng.spawn(len(actions))[::-1]",
     "message bit i is sent on child stream n-1-i, not i: the decoded coins come out reversed"),
    ("qsignal.cli",
     'not in options.get("choices", [value])',
     "not in [value]",
     "the reader skips choices: exact --bit 2 runs in place of argparse's usage error"),
    ("qsignal.cli",
     '(token, next(tokens)) if token[:1] == "-"',
     '(next(a for a in arguments if a.startswith(token)), next(tokens)) if token[:1] == "-"',
     "the reader takes a prefix for a flag: run's --s is ambiguous to argparse"),
    ("qsignal.cli",
     "handler, _, own = _COMMANDS[argv[0]]",
     "handler, _, own = _COMMANDS[None]",
     "the reader declines every line: a canonical command line builds a parser"),
    ("qsignal.cli",
     'if text[:1] == "-" or value not in',
     "if value not in",
     "the reader takes a value that starts with a dash: channel --prior -0. runs where "
     "argparse, which reads -0. as a flag, refuses it"),
    ("qsignal.statevector",
     'numpy_bool = getattr(value, "dtype", None) == bool and value.ndim == 0',
     'numpy_bool = getattr(value, "dtype", None) == bool',
     "a one-element bool array reads as its bit: np.array([True]) is taken for 1, not refused"),
]


def source(module: str, tree: Path = ROOT) -> Path:
    return tree / "src" / (module.replace(".", "/") + ".py")


def tier1_fails(tree: Path) -> bool:
    """Whether tier-1 fails, or runs past TIMEOUT, on the copy at ``tree``."""
    # no bytecode: a mutant and the source restored after it may share an mtime
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT) != 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the tests' own children too
        child.wait()
        return True


def main() -> int:
    repeated = [(module, old) for module, old, _, _ in MUTANTS
                if source(module).read_text(encoding="utf-8").count(old) != 1]
    for module, old in repeated:
        print(f"not exactly once in {module}: {old!r}")
    if repeated:
        return 1
    survived = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out", "*.egg-info"))
        if tier1_fails(tree):
            print("tier-1 fails on the unchanged tree: no mutant can be judged")
            return 1
        for module, old, new, why in MUTANTS:
            path = source(module, tree)
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            killed = tier1_fails(tree)
            path.write_text(original, encoding="utf-8")
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED'} in {time.perf_counter() - start:.0f} s:"
                  f" {module}: {why}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
