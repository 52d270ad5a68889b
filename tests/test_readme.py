"""README: the library quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_documented():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = re.findall(r"^print\([^#]*#\s*(\S+)", block, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert len(expected) == 5
    assert out.getvalue().splitlines() == expected
