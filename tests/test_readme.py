"""The README's examples stay runnable.

Every ``fspm ...`` command line in the README parses with the real argument
parser (``$VARS`` replaced by dummy values), and its Python quickstart block
runs as written.
"""
import re
import shlex
from pathlib import Path

import pytest

from fspm.cli import build_parser

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def command_lines():
    """Each ``fspm`` command of the shell blocks, continuation lines joined."""
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "fspm":
                commands.append(words[1:])
    return commands


COMMANDS = command_lines()


def test_readme_shows_every_subcommand():
    subcommands = {argv[0] for argv in COMMANDS}
    assert subcommands == {"ingest", "classify-pa", "estimate", "fit", "simulate",
                           "export-skeleton", "bench-substructure"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_command_line_parses(argv):
    argv = [re.sub(r"\$\w+", "dummy", word) for word in argv]
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_python_quickstart_runs(capsys):
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
