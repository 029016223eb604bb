"""The README's library quick tour runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_quick_tour_runs_as_written():
    text = README.read_text()
    match = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no quick-tour code block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), "README quick tour", "exec"), {})
    assert out.getvalue().splitlines()[0] == "[(Fraction(0, 1), 12), (Fraction(1, 1), 4)]"
