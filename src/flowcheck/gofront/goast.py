"""AST for the supported Go subset, plus a source renderer.

The renderer emits canonically formatted Go that re-parses to an identical
tree, which is what the frontend round-trip tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# -- types ------------------------------------------------------------------


@dataclass(frozen=True)
class NamedType:
    name: str  # "int", "string", "error", "Foo", "time.Duration"


@dataclass(frozen=True)
class ChanType:
    elem: object


@dataclass(frozen=True)
class SliceType:
    elem: object


@dataclass(frozen=True)
class FuncType:
    params: tuple
    result: object = None


# -- expressions ------------------------------------------------------------


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Selector:
    pkg: str
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class StringLit:
    text: str  # raw, with quotes


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class NilLit:
    pass


@dataclass(frozen=True)
class Recv:
    chan: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MakeExpr:
    gotype: object
    size: object = None


@dataclass(frozen=True)
class Call:
    fn: object  # Ident | Selector | FuncLit
    args: tuple


@dataclass(frozen=True)
class FuncLit:
    func: "Func"


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


# -- statements --------------------------------------------------------------


@dataclass(frozen=True)
class ShortVarDecl:
    name: str
    expr: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class VarDecl:
    name: str
    gotype: object = None
    expr: object = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Assign:
    name: str
    expr: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Send:
    chan: object
    value: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ExprStmt:
    expr: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class GoStmt:
    call: Call
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DeferStmt:
    call: Call
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class If:
    cond: object
    then: tuple
    els: object = None  # tuple of statements, nested If, or None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Return:
    expr: object = None
    line: int = field(default=0, compare=False)


# -- declarations -------------------------------------------------------------


@dataclass
class Func:
    name: str
    params: tuple  # of (name, gotype)
    result: object
    body: tuple
    line: int = 0
    anonymous: bool = False


@dataclass
class TypeDecl:
    name: str
    embedded: tuple  # anonymous field type names
    named_fields: tuple  # of (name, gotype)
    line: int = 0


@dataclass
class Program:
    package: str
    imports: tuple
    globals: tuple  # of VarDecl
    functions: dict  # name -> Func (includes lifted anonymous functions)
    types: tuple  # of TypeDecl


# -- rendering ----------------------------------------------------------------


def render_type(t) -> str:
    if isinstance(t, NamedType):
        return t.name
    if isinstance(t, ChanType):
        return "chan %s" % render_type(t.elem)
    if isinstance(t, SliceType):
        return "[]%s" % render_type(t.elem)
    if isinstance(t, FuncType):
        params = ", ".join(render_type(p) for p in t.params)
        out = "func(%s)" % params
        if t.result is not None:
            out += " %s" % render_type(t.result)
        return out
    raise TypeError("not a Go type: %r" % (t,))


def render_expr(e) -> str:
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Selector):
        return "%s.%s" % (e.pkg, e.name)
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StringLit):
        return e.text
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NilLit):
        return "nil"
    if isinstance(e, Recv):
        return "<-%s" % render_expr(e.chan)
    if isinstance(e, MakeExpr):
        if e.size is None:
            return "make(%s)" % render_type(e.gotype)
        return "make(%s, %s)" % (render_type(e.gotype), render_expr(e.size))
    if isinstance(e, Call):
        return "%s(%s)" % (render_expr(e.fn), ", ".join(render_expr(a) for a in e.args))
    if isinstance(e, FuncLit):
        return _render_func(e.func, anonymous=True).rstrip("\n")
    if isinstance(e, Unary):
        return "%s%s" % (e.op, render_expr(e.operand))
    if isinstance(e, Binary):
        left, right = render_expr(e.left), render_expr(e.right)
        if isinstance(e.left, Binary):
            left = "(%s)" % left
        if isinstance(e.right, Binary):
            right = "(%s)" % right
        return "%s %s %s" % (left, e.op, right)
    raise TypeError("not a Go expression: %r" % (e,))


def _reindent(text, pad) -> str:
    lines = text.split("\n")
    return "\n".join([lines[0]] + [pad + line for line in lines[1:]])


def _render_stmt(s, indent) -> list:
    pad = "\t" * indent
    if isinstance(s, ShortVarDecl):
        return [pad + "%s := %s" % (s.name, render_expr(s.expr))]
    if isinstance(s, VarDecl):
        out = "var " + s.name
        if s.gotype is not None:
            out += " " + render_type(s.gotype)
        if s.expr is not None:
            out += " = " + render_expr(s.expr)
        return [pad + out]
    if isinstance(s, Assign):
        return [pad + "%s = %s" % (s.name, render_expr(s.expr))]
    if isinstance(s, Send):
        return [pad + "%s <- %s" % (render_expr(s.chan), render_expr(s.value))]
    if isinstance(s, ExprStmt):
        return [pad + _reindent(render_expr(s.expr), pad)]
    if isinstance(s, GoStmt):
        return [pad + "go " + _reindent(render_expr(s.call), pad)]
    if isinstance(s, DeferStmt):
        return [pad + "defer " + _reindent(render_expr(s.call), pad)]
    if isinstance(s, Return):
        return [pad + ("return" if s.expr is None else "return " + render_expr(s.expr))]
    if isinstance(s, If):
        lines = [pad + "if %s {" % render_expr(s.cond)]
        for inner in s.then:
            lines.extend(_render_stmt(inner, indent + 1))
        if s.els is None:
            lines.append(pad + "}")
        elif isinstance(s.els, If):
            nested = _render_stmt(s.els, indent)
            lines.append(pad + "} else " + nested[0].lstrip("\t"))
            lines.extend(nested[1:])
        else:
            lines.append(pad + "} else {")
            for inner in s.els:
                lines.extend(_render_stmt(inner, indent + 1))
            lines.append(pad + "}")
        return lines
    raise TypeError("not a Go statement: %r" % (s,))


def _render_func(f: Func, anonymous=False) -> str:
    params = ", ".join("%s %s" % (n, render_type(t)) for n, t in f.params)
    head = "func(%s)" % params if anonymous else "func %s(%s)" % (f.name, params)
    if f.result is not None:
        head += " " + render_type(f.result)
    lines = [head + " {"]
    for s in f.body:
        lines.extend(_render_stmt(s, 1))
    lines.append("}")
    return "\n".join(lines)


def render_program(prog: Program) -> str:
    parts = ["package %s" % prog.package]
    for path in prog.imports:
        parts.append('import "%s"' % path)
    for decl in prog.types:
        lines = ["type %s struct {" % decl.name]
        for name in decl.embedded:
            lines.append("\t" + name)
        for name, t in decl.named_fields:
            lines.append("\t%s %s" % (name, render_type(t)))
        lines.append("}")
        parts.append("\n".join(lines))
    for g in prog.globals:
        out = "var " + g.name
        if g.gotype is not None:
            out += " " + render_type(g.gotype)
        if g.expr is not None:
            out += " = " + render_expr(g.expr)
        parts.append(out)
    for name, f in prog.functions.items():
        if not f.anonymous:
            parts.append(_render_func(f))
    return "\n\n".join(parts) + "\n"
