"""The README's examples run and print what it shows: the "Library use"
block prints its comments, and each `$ molscope ...` block prints its
output."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (argv, shown lines) of each block that starts with "$ molscope "
CONSOLE = [(shlex.split(cmd), body.splitlines())
           for cmd, body in re.findall(r"^```\n\$ molscope ([^\n]*)\n(.*?)^```$", TEXT, re.S | re.M)]


def test_library_example_prints_its_comments():
    (code,) = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
    # each print(...) line ends in "# <the line it prints>"
    want = [line.rpartition("# ")[2] for line in code.splitlines()
            if line.startswith("print(")]
    assert len(want) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want


def test_readme_shows_four_console_examples():
    assert [argv[:2] for argv, _ in CONSOLE] == [
        ["count", "mates"], ["count", "mols"], ["bound", "sudoku"],
        ["construct", "translate-mates"]]


@pytest.mark.parametrize("argv, shown", CONSOLE, ids=[" ".join(argv[:2]) for argv, _ in CONSOLE])
def test_console_example_prints_what_the_readme_shows(cli, argv, shown):
    code, out, _ = cli(argv)
    assert code == 0
    # the elapsed time of a table differs from run to run
    got, want = ([line for line in lines if not line.lstrip().startswith("elapsed:")]
                 for lines in (out.decode().splitlines(), shown))
    if "structured" in argv:
        assert json.loads("\n".join(got)) == json.loads("\n".join(want))
    elif "..." in want:  # the README shows the output up to "..."
        cut = want.index("...")
        assert got[:cut] == want[:cut]
    else:
        assert got == want
