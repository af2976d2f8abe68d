"""The README's library example runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "2 ('1', '1', '1')",
        "3 ('2', '1', '1')",
        "5 ('1', '1', '2')",
        "6 ('2', '1', '2')",
    ]
