"""The README's "Library use" example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    (code,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                         re.S | re.M)
    # each print(...) line ends in "# <the line it prints>"
    want = [line.rpartition("# ")[2] for line in code.splitlines()
            if line.startswith("print(")]
    assert len(want) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
