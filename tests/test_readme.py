"""The README's examples still print what the README shows."""

import contextlib
import io
import re

from flowcheck.cli import run_analyze
from paths import ROOT

README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_after(line):
    """The body of the first fenced block after ``line`` in the README."""
    rest = README[README.index(line):]
    return re.search(r"```\w*\n(.*?)```", rest, re.S).group(1)


def test_calculus_example_prints_its_verdict():
    code = fenced_after("Calculus-level reduction is available directly:")
    assert "print(verdict)            # Deadlock([!String])" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "Deadlock([!String])\n"


def test_trace_sample_matches_the_analyzer(monkeypatch):
    command, *shown = fenced_after("`--trace` prints one line per rule firing:").splitlines()
    prompt, tool, verb, path, flag = command.split()
    assert (prompt, tool, verb, flag) == ("$", "flowcheck", "analyze", "--trace")
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    assert run_analyze(path, show_trace=True, out=out) == 0
    assert out.getvalue().splitlines() == shown
