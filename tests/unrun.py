"""Print each statement of ``src/flowcheck`` that no tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that follows only frames of ``src/flowcheck``, then prints one line per
statement whose first line never ran, as ``path:line: text``, and last the
count::

    python tests/unrun.py

``TestNoCycles`` is deselected: it counts the objects an analysis leaves
unreachable, and the frames the tracer holds make that count nonzero.  A
test that runs the analyser in a child process is not followed into it, so
what only such a test runs is listed too.  Extra arguments go to pytest.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "flowcheck"
sys.path[:0] = [str(ROOT / "src")]


def statements(path):
    """The first line of each statement of ``path``, docstrings aside."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str):
            continue  # a docstring runs no code
        lines.add(node.lineno)
    return lines


def main(argv):
    import pytest

    ran = set()  # (file name, line) of each line run
    prefix = str(SOURCE)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    class Rearm:
        """Python switches off a trace function that raises, as one called
        at the recursion limit does, so each test sets it again."""

        @staticmethod
        def pytest_runtest_setup(item):
            sys.settrace(tracer)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            "--deselect", "tests/test_engine.py::TestNoCycles", *argv],
                           plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = []
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(statements(path)):
            if (str(path), line) not in ran:
                unrun.append("%s:%d: %s" % (path.relative_to(ROOT), line, text[line - 1].strip()))
    print("\n".join(unrun))
    print("%d statements of src/flowcheck no tier-1 test runs" % len(unrun))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
