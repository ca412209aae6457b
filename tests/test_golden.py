"""Golden output: the text report with ``--trace`` for every corpus file.

The golden file pins verdicts, residuals, warnings and every trace line
byte for byte.  After a deliberate change to any of them, regenerate it
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
File names are printed relative to the repository root, wherever the
suite runs from.
"""

import io

from flowcheck.cli import run_analyze
from paths import GOLDEN, ROOT, corpus_files


def corpus_trace_text():
    out = io.StringIO()
    for path in corpus_files():
        run_analyze(path, "text", show_trace=True, out=out)
    return out.getvalue().replace(ROOT.as_posix() + "/", "")


def test_corpus_trace_matches_golden():
    assert corpus_trace_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(corpus_trace_text(), encoding="utf-8")
