"""Every `$ hardy ...` command in README.md runs cleanly and deterministically."""

import shlex
from pathlib import Path

import pytest

from hardylab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The argv of each README line that starts with `$ hardy`, without the
    program name and any trailing comment, in JSON unless it names a
    format."""
    out = []
    for line in README.read_text().splitlines():
        if line.startswith("$ hardy "):
            argv = shlex.split(line[len("$ hardy "):], comments=True)
            if "--format" not in argv:
                argv += ["--format", "json"]
            out.append(argv)
    return out


COMMANDS = readme_commands()


def test_readme_lists_its_commands():
    assert len(COMMANDS) >= 13


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero_and_reruns_identically(capsys, argv):
    outs = []
    for _ in range(2):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "Traceback" not in captured.err
        outs.append(captured.out)
    assert outs[0] == outs[1]
