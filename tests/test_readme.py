"""The README's CLI examples are what the CLI prints.

Each `$ ghostcycles ...` line inside a fenced block of README.md that is
followed by output lines is run in-process, and its stdout is compared
line by line with those lines; a `...` line matches any run of lines.
"""

import shlex
from pathlib import Path

import pytest

from ghostcycles.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(command, expected lines) for every README example that shows output."""
    examples, fenced, command = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, command = not fenced, None
        elif fenced and line.startswith("$ "):
            command = None
            if line.startswith("$ ghostcycles "):
                command = line[2:]
                examples.append((command, []))
        elif command is not None:
            examples[-1][1].append(line)
    return [(command, expected) for command, expected in examples if expected]


EXAMPLES = _examples()


def _matches(expected, got):
    if not expected:
        return not got
    if expected[0] == "...":
        return any(_matches(expected[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and got[0] == expected[0] and _matches(expected[1:], got[1:])


def test_the_readme_shows_cli_examples():
    assert len(EXAMPLES) >= 4  # the parser found the blocks


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_is_what_the_cli_prints(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    got = capsys.readouterr().out.splitlines()
    assert _matches(expected, got), "\n".join(got)
