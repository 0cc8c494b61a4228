"""The README's library example and command-line lines run as documented."""

import ast
import contextlib
import io
import pathlib
import re
import shlex

from stochenum.cli import main

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


def test_readme_command_line_block(tmp_path, monkeypatch, capsys):
    # The gen-poset and exact lines run as written.  The estimate line
    # (100000 runs at n = 40), the sweep and the verify suite take far
    # longer than a unit test should; the CLI tests cover those commands.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if b.startswith("stochenum ")]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    fast = [argv[1:] for argv in lines if {"gen-poset", "exact"} & set(argv)]
    assert len(fast) == 3
    monkeypatch.chdir(tmp_path)
    for argv in fast:
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "dp: " in out and "tree: " in out
