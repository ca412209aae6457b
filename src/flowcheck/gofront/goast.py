"""AST for the supported Go subset: what the translator reads, nothing more.

The package clause, imports and struct declarations are checked by the
parser and then dropped, so a ``Program`` holds only its global variables,
its functions and the events the translator reads.  Each Go construct is
one node: an expression statement is its expression, a function literal is
its ``Func``, and a ``go`` or ``defer`` statement holds the fields of its
call.  A name carries the ``Decl`` the parser resolved it to.  ``operands``
states Go's order of evaluation, once for every node class.
"""

from __future__ import annotations

from ..record import Record


class Decl:
    """A declared name, compared by identity, so the flow facts key on it.
    ``gotype`` is the Go type its declaration fixes, or None: a literal's
    ``Func``, a function's signature as a ``Func`` with no body (so no body
    refers back to itself), a ``ChanType``...  ``owner`` is its ``Body``."""

    __slots__ = ("gotype", "owner")

    def __init__(self, gotype, owner):
        self.gotype = gotype
        self.owner = owner


class Body:
    """A function body, or the package's (named None): the owner of its
    names and events.  A literal's is named once it is read."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Node(Record):
    """A syntax node.  A statement or expression keeps its source ``line``
    for reports, and a name its ``Decl``; equality and hashing skip both."""

    __slots__ = ()
    _defaults = {"line": 0, "decl": None}
    _uncompared = ("line", "decl")

    def __repr__(self):  # a Decl is no syntax, and would show only its address
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__ if f != "decl")
        return "%s(%s)" % (type(self).__qualname__, fields)


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
    __slots__ = ("name", "line", "decl")


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
    __slots__ = ("fn", "args", "line")  # fn: Ident | Selector | Func, a literal


class Unary(Node):
    __slots__ = ("op", "operand", "line")


class Binary(Node):
    __slots__ = ("op", "left", "right", "line")


# -- statements --------------------------------------------------------------


class VarDecl(Node):
    # ``var name [gotype] [= expr]``, or ``name := expr`` with no gotype
    __slots__ = ("name", "gotype", "expr", "line", "decl")
    _defaults = {"gotype": None, "expr": None, "line": 0, "decl": None}


class Assign(Node):
    __slots__ = ("name", "expr", "line", "decl")


class Send(Node):
    __slots__ = ("chan", "value", "line")


class GoStmt(Node):
    __slots__ = ("fn", "args", "line")  # as a Call's


class DeferStmt(Node):
    __slots__ = ("fn", "args", "line")  # as a Call's


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
    # literal lives where it is written).  events: (Body, node) in the order
    # a walk of the globals, then the functions, meets them: each send,
    # receive and call (which a ``go`` or ``defer`` holds), each name that may
    # hold a function and literal but a callee, and each assignment
    __slots__ = ("globals", "functions", "events")
    _uncompared = ("events",)


def declared_type(e):
    """The Go type a declaration fixes for ``e``, or None: a name's, a
    literal's ``Func``, or the result type of a call of either."""
    cls = e.__class__
    if cls is Ident:
        return e.decl.gotype
    if cls is Call:
        return getattr(declared_type(e.fn), "result", None)
    return e if cls is Func else None


# -- evaluation order ---------------------------------------------------------

# the one operand field of each node that evaluates one expression
_OPERAND = {
    Recv: "chan", Unary: "operand", MakeExpr: "size", If: "cond", VarDecl: "expr",
    Assign: "expr", Return: "expr",
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
    if cls is Call or cls is GoStmt or cls is DeferStmt:
        return (n.fn, *n.args)
    if cls is Binary:
        return n.left, n.right
    if cls is Send:
        return n.chan, n.value
    return ()
