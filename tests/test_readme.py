"""The README's library example runs as documented."""

import ast
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    estimate, summary, exact = out.getvalue().splitlines()
    summary = ast.literal_eval(summary)
    exact = int(exact)
    assert float(estimate) > 0
    assert summary["runs"] == 10_000
    # the summarized mean of the documented runs lies near the exact count
    assert abs(summary["mean"] - exact) <= 5 * summary["stderr"]
