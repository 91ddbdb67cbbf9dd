"""The README's command-line examples, run from the repo root, and its
library example print what it shows."""

import json
import re
import shlex
from pathlib import Path

import pytest

from qsignal.cli import FORMAT_ENV_VAR, main

ROOT = Path(__file__).resolve().parent.parent


def command_line_examples():
    """(argv, shown stdout) for each ``$ qsignal ...`` line of the "Command line" section."""
    section = ROOT.joinpath("README.md").read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for example in re.split(r"^(?=\$ )", block, flags=re.M):
            if example.startswith("$ qsignal "):
                command, shown = example.split("\n", 1)
                examples.append((shlex.split(command)[2:], shown.strip()))
    return examples


EXAMPLES = command_line_examples()


def library_example():
    """(code, shown lines) of the "Library" section's Python block; each
    ``print`` line shows what it prints in its trailing comment."""
    section = ROOT.joinpath("README.md").read_text().split("\n## Library\n")[1].split("\n## ")[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    return code, [line.split("  # ", 1)[1] for line in prints]


def test_the_readme_shows_every_command_with_output():
    assert [argv[0] for argv, _ in EXAMPLES] == ["exact", "block", "channel", "run", "transmit"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(argv, shown, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    if shown.startswith("{ ... "):
        # an elided record: only the keys it shows are checked
        shown_keys = json.loads("{" + shown[len("{ ... "):])
        record = json.loads(out)
        assert {key: record[key] for key in shown_keys} == shown_keys
    else:
        assert out == shown


def test_readme_library_example_prints_what_it_shows(capsys):
    code, shown = library_example()
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
