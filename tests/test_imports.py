"""Every module-level import under ``src/flowcheck`` is used, no module
there imports another's underscore-prefixed name, no function there but a
``__repr__`` imports a package module, every module-level name
defined there is read somewhere under ``src/`` or ``tests/``, every
function there reads each of its parameters, no nested function there
refers to itself, every module attribute the benchmark's span tracer
replaces exists, and a traced analysis counts its steps and cases.

``__init__.py`` files are skipped by the import check: their imports are
re-exports.  A one-file run must not load ``dataclasses``."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

from paths import ROOT

SOURCES = sorted((ROOT / "src" / "flowcheck").rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
READERS = SOURCES + sorted((ROOT / "tests").rglob("*.py"))


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


MODULE_NAMES = {p.stem for p in MODULES}


def private_imports(source):
    """The underscore-prefixed names a module takes from another module of
    the package: by ``from module import _name``, anywhere in the module,
    or as ``module._name`` on a package module it imported."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for a in n.names:
                bound = a.asname or a.name.split(".")[-1]
                if bound in MODULE_NAMES:
                    modules.add(bound)
                if isinstance(n, ast.ImportFrom) and is_private(a.name):
                    found.append("%s%s.%s" % ("." * n.level, n.module or "", a.name))
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules and is_private(n.attr)):
            found.append("%s.%s" % (n.value.id, n.attr))
    return found


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_the_check_sees_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from ..engine import _branches, reduce\n"
        "from . import terms\n"
        "def f():\n    from .preds import _NEGATE\n"
        "    return terms._same, terms.__name__, terms.flatten\n"
    )
    assert private_imports(source) == ["..engine._branches", ".preds._NEGATE", "terms._same"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_name_is_imported(path):
    """A name another module needs is public: it has one home, and an
    underscore means no other module reads it."""
    assert private_imports(path.read_text(encoding="utf-8")) == []


def function_imports(source):
    """``function:line`` for each import of a package module, relative or
    under ``flowcheck``, in a function body other than ``__repr__``'s."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                package = child.level or (child.module or "").split(".")[0] == "flowcheck"
            elif isinstance(child, ast.Import):
                package = any(a.name.split(".")[0] == "flowcheck" for a in child.names)
            else:
                package = False
            if package and function not in (None, "__repr__"):
                found.append("%s:%d" % (function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_check_sees_a_function_import():
    source = (
        "from . import terms\nimport os\n"
        "def f():\n    import sys\n    from .preds import conj\n"
        "    def __repr__():\n        from .notation import render\n"
        "    import flowcheck.solver\n"
        "class C:\n    def __repr__(self):\n        from . import notation\n"
        "    def m(self):\n        from .. import engine\n"
    )
    assert function_imports(source) == ["f:5", "f:8", "m:13"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_function_imports_a_package_module(path):
    """Modules that need each other import each other as modules and read
    the names at call time: an import in a function body is paid on every
    call.  A ``__repr__`` may import the notation, which builds on the
    term and predicate modules."""
    assert function_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source):
    """Names a module defines at its top level, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(source):
    """Every name a module reads: as a name, an attribute or an import."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(a.name for a in n.names)
    return read


def test_the_check_sees_an_unread_name():
    module = (
        "LIMIT = 3\nUSED, _spare = 1, 2\n__all__ = []\n"
        "def helper(): pass\nclass Kept: pass\nclass Gone: pass\n"
    )
    reader = "from module import Kept\nimport module\nmodule.helper(USED)\nmodule.LIMIT = 4\n"
    unread = set(defined_names(module)) - read_names(module) - read_names(reader)
    assert unread == {"LIMIT", "_spare", "Gone"}


READ = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in READERS))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_defined_name_is_read(path):
    assert [n for n in defined_names(path.read_text(encoding="utf-8")) if n not in READ] == []


def unread_parameters(source):
    """``function.parameter`` for each parameter, ``self`` and ``cls`` aside,
    that its function (or lambda) never reads in its body."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        unread += ["%s.%s" % (name, p.arg) for p in params if p.arg not in ("self", "cls", *read)]
    return unread


def test_the_check_sees_an_unread_parameter():
    source = (
        "class C:\n    def m(self, used, spare, *rest, flag=0, **options):\n"
        "        def inner(x):\n            return used\n        return inner\n"
        "    @classmethod\n    def make(cls, size):\n        return size\n"
        "key = lambda item, unused: item\n"
    )
    assert sorted(unread_parameters(source)) == [
        "<lambda>.unused", "inner.x", "m.flag", "m.options", "m.rest", "m.spare",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def self_referring_closures(source):
    """Each nested ``def`` that reads its own name, directly or through
    other ``def``s nested in the same function: every call of the function
    then leaves a function-cell cycle, which only the cyclic collector
    frees."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = {n.name: n for n in ast.walk(outer)
                 if n is not outer and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        reads = {name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} & inner.keys()
                 for name, fn in inner.items()}
        for name in inner:
            reached, todo = set(), list(reads[name])
            while todo:
                other = todo.pop()
                if other not in reached:
                    reached.add(other)
                    todo += reads[other]
            if name in reached:
                found.add(name)
    return sorted(found)


def test_the_check_sees_a_self_referring_closure():
    source = (
        "def f(t):\n    def walk(s):\n        return [walk(c) for c in s]\n    return walk(t)\n"
        "def g(t):\n    def one(s):\n        return two(s)\n"
        "    def two(s):\n        return one(s) if s else s\n    return one(t)\n"
        "def h(t):\n    def leaf(s):\n        return s\n"
        "    def node(s):\n        return leaf(s)\n    return node(t)\n"
    )
    assert self_referring_closures(source) == ["one", "two", "walk"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_nested_function_refers_to_itself(path):
    assert self_referring_closures(path.read_text(encoding="utf-8")) == []


def recursion_limit_uses(source):
    """Lines that name ``setrecursionlimit``: a call, an attribute or an
    import, under any alias."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Attribute):
            named = n.attr == "setrecursionlimit"
        elif isinstance(n, ast.Name):
            named = n.id == "setrecursionlimit"
        elif isinstance(n, ast.ImportFrom):
            named = any(a.name == "setrecursionlimit" for a in n.names)
        else:
            continue
        if named:
            lines.append(n.lineno)
    return sorted(lines)


def test_the_check_sees_a_recursion_limit():
    source = (
        "import sys\nsys.setrecursionlimit(10000)\n"
        "from sys import setrecursionlimit as deeper\ndeeper(20000)\n"
        "print(sys.getrecursionlimit())\n"
    )
    assert recursion_limit_uses(source) == [2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_recursion_limit_is_raised(path):
    """Deep input must meet a reported depth limit, not a larger Python
    stack that trades ``RecursionError`` for a C-stack overflow."""
    assert recursion_limit_uses(path.read_text(encoding="utf-8")) == []


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    """Building classes with ``dataclasses``, which imports ``inspect``, took
    most of the start-up of a one-file run; a fresh interpreter shows it.
    Modules the interpreter loaded before the import do not count."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; started = set(sys.modules); import flowcheck.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - started)))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_every_hook_of_the_span_tracer_resolves():
    """``bench/spans.py`` traces layers by replacing the module attributes
    in its ``TARGETS``; a rename under ``src/flowcheck`` must fail here, not
    only in a traced benchmark run.  The table is read without running the
    module."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    assert targets
    for module_name, attr, _span, _hook in targets:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


def test_a_traced_analysis_counts_its_steps_and_cases():
    """A layer whose calls stop going through a traced name reads zero in a
    traced benchmark run, silently: the corpus file must count engine steps
    and the guarded program its cases.  ``bench/spans.py`` is loaded from
    its file, read-only."""
    import importlib.util

    from flowcheck.gofront import analyze_source
    from paths import corpus_source
    from test_gofront import independent_guards

    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(sys.modules[module], attr) for module, attr, _span, _hook in spans.TARGETS]
    originals = [getattr(module, attr) for module, attr in names]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original
                   for (module, attr), original in zip(names, originals))
        tracer.run(0, analyze_source, corpus_source("nodeadlock/p01_basic.go"))
        steps, cases = tracer.counts["engine.steps"], tracer.counts["solver.cases"]
        tracer.run(1, analyze_source, independent_guards(2))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in names] == originals
    assert steps > 0
    assert tracer.counts["solver.cases"] - cases == 4  # two guards, each true or false
