"""AST for the supported Go subset: what the translator reads, nothing more.

The package clause, imports and struct declarations are checked by the
parser and then dropped, so a ``Program`` holds only its global variables
and its functions.
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
class Program:
    globals: tuple  # of VarDecl
    functions: dict  # name -> Func (includes lifted anonymous functions)

