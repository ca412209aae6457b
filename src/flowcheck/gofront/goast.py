"""AST for the supported Go subset: what the translator reads, nothing more.

The package clause, imports and struct declarations are checked by the
parser and then dropped, so a ``Program`` holds only its global variables
and its functions.  ``operands`` states Go's order of evaluation, once for
every node class.
"""

from __future__ import annotations

from ..record import Record


class Node(Record):
    """A syntax node.  A statement or expression keeps its source ``line``
    for reports; equality and hashing skip it."""

    __slots__ = ()
    _defaults = {"line": 0}
    _uncompared = ("line",)


# -- types ------------------------------------------------------------------


class NamedType(Node):
    __slots__ = ("name",)  # "int", "string", "error", "Foo", "time.Duration"


class ChanType(Node):
    __slots__ = ("elem",)


class SliceType(Node):
    __slots__ = ("elem",)


class FuncType(Node):
    __slots__ = ("params", "result")
    _defaults = {"result": None}


# -- expressions ------------------------------------------------------------


class Ident(Node):
    __slots__ = ("name", "line")


class Selector(Node):
    __slots__ = ("pkg", "name", "line")


class IntLit(Node):
    __slots__ = ("value", "line")


class StringLit(Node):
    __slots__ = ("text", "line")  # raw, with quotes


class BoolLit(Node):
    __slots__ = ("value", "line")


class NilLit(Node):
    __slots__ = ("line",)


class Recv(Node):
    __slots__ = ("chan", "line")


class MakeExpr(Node):
    __slots__ = ("gotype", "size", "line")
    _defaults = {"size": None, "line": 0}


class Call(Node):
    __slots__ = ("fn", "args", "line")  # fn: Ident | Selector | FuncLit


class FuncLit(Node):
    __slots__ = ("func", "line")


class Unary(Node):
    __slots__ = ("op", "operand", "line")


class Binary(Node):
    __slots__ = ("op", "left", "right", "line")


# -- statements --------------------------------------------------------------


class VarDecl(Node):
    # ``var name [gotype] [= expr]``, or ``name := expr`` with no gotype
    __slots__ = ("name", "gotype", "expr", "line")
    _defaults = {"gotype": None, "expr": None, "line": 0}


class Assign(Node):
    __slots__ = ("name", "expr", "line")


class Send(Node):
    __slots__ = ("chan", "value", "line")


class ExprStmt(Node):
    __slots__ = ("expr", "line")


class GoStmt(Node):
    __slots__ = ("call", "line")


class DeferStmt(Node):
    __slots__ = ("call", "line")


class If(Node):
    # els: a tuple of statements, an ``else if`` its one statement
    __slots__ = ("cond", "then", "els", "line")
    _defaults = {"els": (), "line": 0}


class Return(Node):
    __slots__ = ("expr", "line")
    _defaults = {"expr": None, "line": 0}


# -- declarations -------------------------------------------------------------


class Func(Node):
    """A declared function or a function literal.  ``params`` holds
    (name, gotype) pairs; unlike a statement's, its ``line`` takes part in
    equality."""

    __slots__ = ("name", "params", "result", "body", "line")
    _uncompared = ()


class Program(Node):
    # globals: VarDecls; functions: name -> Func, declared functions only (a
    # literal lives in its FuncLit)
    __slots__ = ("globals", "functions")


# -- evaluation order ---------------------------------------------------------

# the one operand field of each node that evaluates one expression
_OPERAND = {
    Recv: "chan", Unary: "operand", MakeExpr: "size", GoStmt: "call", DeferStmt: "call",
    If: "cond", VarDecl: "expr", Assign: "expr", ExprStmt: "expr", Return: "expr",
}


def operands(n) -> tuple:
    """The expressions Go evaluates for ``n``, in Go's order; none for a
    leaf, a ``make`` without a size or a statement without an expression.
    A function literal's body and an ``if``'s blocks are no operands: they
    run later, or not at all."""
    cls = n.__class__
    field = _OPERAND.get(cls)
    if field is not None:
        e = getattr(n, field)
        return () if e is None else (e,)
    if cls is Call:
        return (n.fn, *n.args)
    if cls is Binary:
        return n.left, n.right
    if cls is Send:
        return n.chan, n.value
    return ()
