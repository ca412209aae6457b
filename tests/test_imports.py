"""Every module-level import under ``src/flowcheck`` is used.

``__init__.py`` files are skipped: their imports are re-exports."""

import ast

import pytest

from paths import ROOT

MODULES = sorted(
    p for p in (ROOT / "src" / "flowcheck").rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(source):
    """Names a module imports at its top level and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport sys as system\nprint(sep)\n"
    assert unused_imports(source) == ["path", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
