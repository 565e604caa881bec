"""The README's command-line examples run as written: each exits 0, or 1
where its comment says so."""

import shlex
from pathlib import Path

import pytest

from semiflow.cli import main

ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """(argv, expected exit) for each ``semiflow`` line of the first shell
    block of README's "Command line" section, continuations joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for line in block.splitlines():
        if pending:
            line = pending + " " + line.strip()
            pending = ""
        if not line.startswith("semiflow "):
            continue
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
            continue
        argv = shlex.split(line, comments=True)[1:]
        commands.append((argv, 1 if "# exits 1" in line else 0))
    return commands


COMMANDS = readme_commands()


def test_readme_has_examples():
    assert len(COMMANDS) >= 8
    assert any(code == 1 for _, code in COMMANDS)


@pytest.mark.parametrize("argv, expected", COMMANDS,
                         ids=[" ".join(argv[:3]) for argv, _ in COMMANDS])
def test_readme_example_exit_code(argv, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == expected
    assert capsys.readouterr().out
