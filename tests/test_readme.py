"""The README's examples run as written.

Every ``newtonzeta ...`` line of the command-line ``sh`` block goes through
``cli.main`` and must exit 0 or 2 (2 reports a nondegeneracy
counterexample, results included); the comment lines right after a
command are its output and must appear verbatim in its stdout.  The
``python`` block runs as it stands, and each ``expression  # value`` line
must evaluate to the commented value.
"""

import re
import shlex
from pathlib import Path

from newtonzeta import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _commands():
    """``(argv, output lines)`` of every ``newtonzeta`` line."""
    (block,) = [b for b in _blocks("sh") if "\nnewtonzeta " in "\n" + b]
    out, in_output = [], False
    for line in block.splitlines():
        if line.startswith("newtonzeta "):
            out.append((shlex.split(line)[1:], []))
            in_output = True
        elif line.startswith("# ") and in_output:
            out[-1][1].append(line[2:])
        else:
            in_output = False  # a blank line ends the output
    return out


def test_command_line_examples(capsys):
    commands = _commands()
    assert len(commands) == 6
    checked = 0
    for argv, expected in commands:
        code = cli.main(argv)
        stdout = capsys.readouterr().out.splitlines()
        assert code in (0, 2), argv
        for line in expected:
            assert line in stdout, (argv, line)
        checked += len(expected)
    # the cusp's germ and its two zeta functions
    assert checked == 3


def test_library_example():
    (block,) = _blocks("python")
    namespace = {}
    exec(block, namespace)
    values = [line.split("  # ") for line in block.splitlines() if "  # " in line]
    assert len(values) == 3
    for expr, comment in values:
        assert repr(eval(expr, namespace)) == comment.split(", ")[0], expr
