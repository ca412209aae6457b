"""Recursive-descent parser for the supported Go subset.

The parser reads the three lists ``tokenize`` returns by position: every
test reads ``kinds``, and a token's value and line are read only where a
node or a message needs them.  Binary expressions are read by precedence
climbing over one table, ``_PRECEDENCE``, of Go's five binary levels; every
operator is left-associative, as in the Go spec.  An operand enters the
postfix level only when a call or a selector follows it.

Anything outside the subset raises Unsupported naming the construct and the
line, so the analyzer can refuse the file instead of guessing: buffered or
directional channels, select, close, for loops, switch, pointers, maps,
sync primitives, if-statements with init clauses, methods, labels, several
names in one declaration, assignment or return, grouped declarations,
increments, decrements, compound assignments, assignments to a field,
bitwise and shift operators, and nesting deeper than ``MAX_NESTING``.
"""

from __future__ import annotations

from .goast import (
    Assign,
    Binary,
    BoolLit,
    Call,
    ChanType,
    DeferStmt,
    ExprStmt,
    Func,
    FuncLit,
    FuncType,
    GoStmt,
    Ident,
    If,
    IntLit,
    MakeExpr,
    NamedType,
    NilLit,
    Program,
    Recv,
    Return,
    Selector,
    Send,
    SliceType,
    StringLit,
    Unary,
    VarDecl,
)
from .lexer import GoSyntaxError, plain_decimal, tokenize


# Nesting levels: a block, an ``if`` (``else if`` included), an operand
# (parenthesized, prefixed or a call argument) and each binary operator.
# The parser and the later tree walks recurse on each level, so a deeper
# file is refused instead of exhausting the recursion limit.
MAX_NESTING = 100


class Unsupported(Exception):
    def __init__(self, feature, line):
        super().__init__("%s (line %d)" % (feature, line))
        self.feature = feature
        self.line = line


_UNSUPPORTED_STMTS = {
    "for": "for loop",
    "select": "select statement",
    "switch": "switch statement",
    "range": "range clause",
    "const": "const declaration",
    "goto": "goto statement",
    "break": "break statement",
    "continue": "continue statement",
}

_INCREMENTS = {"++": "increment statement", "--": "decrement statement"}
_COMPOUND = {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", "&^="}  # two tokens each

# Go's binary operators by precedence, loosest first
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}

# Go's operators that have no entry there, each by the name it is refused with
_UNSUPPORTED_BINARY = {
    "&": "bitwise operator &", "|": "bitwise operator |", "^": "bitwise operator ^",
    "&^": "bitwise operator &^", "<<": "shift operator <<", ">>": "shift operator >>",
}
_UNSUPPORTED_UNARY = {"^": "bitwise complement", "&": "address operation"}

# the kinds that may follow an operand as a call or a selector
_POSTFIXES = {"(", "."}

_UNSUPPORTED_TYPES = {
    "map": "map type",
    "interface": "interface type",
    "struct": "inline struct type",
}


class Parser:
    def __init__(self, source: str):
        tokens = tokenize(source)
        self.kinds, self.values, self.lines = tokens.kinds, tokens.values, tokens.lines
        self.pos = 0
        self.depth = 0
        self.literals: dict[int, int] = {}  # line -> function literals named on it

    # -- token plumbing ----------------------------------------------------
    # ``pos`` never passes ``eof``, the last token: a kind other than
    # ``eof`` is tested before each step past it.

    def accept(self, kind) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind) -> int:
        """Step past a token of ``kind``; its position."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise GoSyntaxError(self.lines[pos], "expected %r, found %r" % (kind, self.values[pos]))
        self.pos += 1
        return pos

    def skip_semis(self):
        while self.kinds[self.pos] == ";":
            self.pos += 1

    def end(self, closing):
        """End a statement or declaration: a ``;`` must follow it unless
        ``closing``, the token that closes its list, does."""
        if self.kinds[self.pos] == ";":
            self.skip_semis()
        elif self.kinds[self.pos] != closing:
            self.refuse_end()

    def refuse_end(self):
        """The error for a statement that runs on: Go's label and its lists
        of names are refused by name, anything else is a syntax error."""
        kinds, pos = self.kinds, self.pos
        kind, line = kinds[pos], self.lines[pos]
        if kinds[pos - 1] == "ident" and kinds[pos - 2] in (";", "{"):  # a statement of one name
            if kind == ":":
                raise Unsupported("labeled statement", line)
            while kinds[pos] == "," and kinds[pos + 1] == "ident":
                pos += 2
            if kind == "," and kinds[pos] in (":=", "="):
                several = "declaration of" if kinds[pos] == ":=" else "assignment to"
                raise Unsupported("%s several variables" % several, line)
        raise GoSyntaxError(line, "missing ';' before %r" % self.values[self.pos])

    def descend(self, line):
        """Enter one more nesting level; the caller restores ``depth``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise Unsupported("nesting too deep", line)

    # -- declarations --------------------------------------------------------

    def parse_program(self) -> Program:
        """The package clause, imports and struct declarations are checked
        and dropped: the analysis reads only globals and functions."""
        self.skip_semis()
        self.expect("package")
        self.expect("ident")
        self.end("eof")
        while self.accept("import"):
            if self.accept("("):
                self.skip_semis()
                while not self.accept(")"):
                    self.expect("string")
                    self.end(")")
            else:
                self.expect("string")
            self.end("eof")
        globals_, functions = [], {}
        while (kind := self.kinds[self.pos]) != "eof":
            if kind == "func":
                f = self.parse_func()
                if f.name in functions:
                    raise GoSyntaxError(f.line, "duplicate function %s" % f.name)
                functions[f.name] = f
            elif kind == "var":
                globals_.append(self.parse_var_decl())
            elif kind == "type":
                self.parse_type_decl()
            else:
                raise GoSyntaxError(self.lines[self.pos],
                                    "unexpected %r at top level" % self.values[self.pos])
            self.end("eof")
        return Program(tuple(globals_), functions)

    def parse_func(self, anonymous=False) -> Func:
        """A declaration, or a literal named ``anon@<line>[.k]`` once its
        body is parsed, so nested literals on one line keep their names; a
        literal lives only in its ``FuncLit``."""
        line = self.lines[self.expect("func")]
        if not anonymous and self.kinds[self.pos] == "(":
            raise Unsupported("method declaration", line)
        name = None if anonymous else self.values[self.expect("ident")]
        params = self.parse_params()
        result = None
        if self.kinds[self.pos] not in ("{", ";"):
            result = self.parse_type()
        body = self.parse_block()
        if anonymous:
            k = self.literals[line] = self.literals.get(line, 0) + 1
            name = "anon@%d" % line + (".%d" % k if k > 1 else "")
        return Func(name, params, result, body, line)

    def parenthesized(self, item) -> tuple:
        """``( a, b, … )``: ``item()`` for each entry, a trailing comma allowed."""
        self.expect("(")
        kinds, items = self.kinds, []
        while kinds[self.pos] != ")":
            items.append(item())
            if kinds[self.pos] != ",":
                break
            self.pos += 1
        self.expect(")")
        return tuple(items)

    def parse_params(self) -> tuple:
        groups = self.parenthesized(lambda: (
            self.values[self.expect("ident")],
            None if self.kinds[self.pos] in (",", ")") else self.parse_type(),
        ))
        # back-fill grouped parameters: `a, b int` gives both the int type
        params, pending = [], []
        for name, gotype in groups:
            pending.append(name)
            if gotype is not None:
                params.extend((n, gotype) for n in pending)
                pending = []
        if pending:
            raise GoSyntaxError(self.lines[self.pos], "parameters missing a type")
        return tuple(params)

    def parse_var_decl(self) -> VarDecl:
        line = self.lines[self.expect("var")]
        if self.kinds[self.pos] == "(":
            raise Unsupported("grouped declaration", line)
        name = self.values[self.expect("ident")]
        gotype = None
        expr = None
        if self.kinds[self.pos] not in ("=", ";"):
            if self.kinds[self.pos] == ",":
                raise Unsupported("declaration of several variables", line)
            gotype = self.parse_type()
        if self.accept("="):
            expr = self.parse_expr()
        return VarDecl(name, gotype, expr, line)

    def parse_type_decl(self):
        """A ``struct`` declaration: each field type is checked, none kept."""
        self.expect("type")
        self.expect("ident")
        if (kind := self.kinds[self.pos]) != "struct":
            feature = _UNSUPPORTED_TYPES.get(kind, "non-struct type declaration")
            raise Unsupported(feature, self.lines[self.pos])
        self.pos += 1
        self.expect("{")
        self.skip_semis()
        while not self.accept("}"):
            self.expect("ident")
            if self.kinds[self.pos] not in (";", "}"):
                self.parse_type()
            self.end("}")

    # -- types ----------------------------------------------------------------

    def parse_type(self):
        kind, line = self.kinds[self.pos], self.lines[self.pos]
        if kind in ("chan", "[", "func"):
            self.descend(line)
            gotype = self.parse_type_literal()
            self.depth -= 1
            return gotype
        if kind == "<-":
            raise Unsupported("directional channel type", line)
        if kind == "*":
            raise Unsupported("pointer type", line)
        if kind in _UNSUPPORTED_TYPES:
            raise Unsupported(_UNSUPPORTED_TYPES[kind], line)
        name = self.values[self.expect("ident")]
        if self.accept("."):
            qualified = "%s.%s" % (name, self.values[self.expect("ident")])
            if name == "sync":
                raise Unsupported("sync primitives", line)
            return NamedType(qualified)
        return NamedType(name)

    def parse_type_literal(self):
        """A ``chan``, ``[]`` or ``func(...)`` type, one nesting level down."""
        kind, line = self.kinds[self.pos], self.lines[self.pos]
        self.pos += 1
        if kind == "chan":
            if self.kinds[self.pos] == "<-":
                raise Unsupported("directional channel type", line)
            return ChanType(self.parse_type())
        if kind == "[":
            self.expect("]")
            return SliceType(self.parse_type())
        params = self.parenthesized(self.parse_type)
        result = None
        if self.kinds[self.pos] not in ("{", ")", ",", ";", "eof"):
            result = self.parse_type()
        return FuncType(params, result)

    # -- statements -------------------------------------------------------------

    def parse_block(self) -> tuple:
        self.descend(self.lines[self.expect("{")])
        self.skip_semis()
        kinds, stmts = self.kinds, []
        while kinds[self.pos] != "}":
            stmts.append(self.parse_stmt())
            self.end("}")
        self.pos += 1
        self.depth -= 1
        return tuple(stmts)

    def parse_stmt(self):
        kinds, pos = self.kinds, self.pos
        kind, line = kinds[pos], self.lines[pos]
        if kind == "ident" and kinds[pos + 1] in (":=", "="):
            self.pos = pos + 2
            if kinds[pos + 1] == "=":
                return Assign(self.values[pos], self.parse_expr(), line)
            return VarDecl(self.values[pos], None, self.parse_expr(), line)
        if kind == "ident" and kinds[pos + 1] + kinds[pos + 2] in _COMPOUND:
            raise Unsupported("compound assignment", line)
        if kind == "ident" and kinds[pos + 1] == "." and kinds[pos + 2] == "ident" and (
                kinds[pos + 3] == "=" or kinds[pos + 3] + kinds[pos + 4] in _COMPOUND):
            raise Unsupported("assignment to a field", line)
        if kind == "go" or kind == "defer":
            self.pos = pos + 1
            call = self.parse_expr()
            if not isinstance(call, Call):
                raise GoSyntaxError(line, "%s requires a function call" % kind)
            return (GoStmt if kind == "go" else DeferStmt)(call, line)
        if kind == "if":
            return self.parse_if()
        if kind == "return":
            self.pos = pos + 1
            value = None if kinds[pos + 1] in (";", "}") else self.parse_expr()
            if kinds[self.pos] == ",":
                raise Unsupported("return of several values", line)
            return Return(value, line)
        if kind == "var":
            return self.parse_var_decl()
        if kind in _UNSUPPORTED_STMTS:
            raise Unsupported(_UNSUPPORTED_STMTS[kind], line)
        expr = self.parse_expr()
        if kinds[self.pos] == "<-":
            self.pos += 1
            return Send(expr, self.parse_expr(), line)
        if kinds[self.pos] in _INCREMENTS:
            raise Unsupported(_INCREMENTS[kinds[self.pos]], self.lines[self.pos])
        return ExprStmt(expr, line)

    def parse_if(self) -> If:
        line = self.lines[self.expect("if")]
        self.descend(line)
        cond = self.parse_expr()
        if self.kinds[self.pos] == ";":
            raise Unsupported("if with init statement", line)
        then = self.parse_block()
        els = ()
        if self.accept("else"):
            els = (self.parse_if(),) if self.kinds[self.pos] == "if" else self.parse_block()
        self.depth -= 1
        return If(cond, then, els, line)

    # -- expressions ---------------------------------------------------------------

    def parse_expr(self, lowest=1):
        """A binary expression of operators that bind at level ``lowest`` or
        tighter; each operator nests the tree one level deeper."""
        outer = self.depth
        left = self.parse_unary()
        kinds = self.kinds
        while (level := _PRECEDENCE.get(kinds[self.pos], 0)) >= lowest:
            op, line = kinds[self.pos], self.lines[self.pos]
            self.pos += 1
            self.descend(line)
            left = Binary(op, left, self.parse_expr(level + 1), line)
        if kinds[self.pos] in _UNSUPPORTED_BINARY:
            raise Unsupported(_UNSUPPORTED_BINARY[kinds[self.pos]], self.lines[self.pos])
        self.depth = outer
        return left

    def parse_unary(self, negated=False):
        """A unary expression: prefix operators, then an operand and its
        postfixes, read only when one follows.  An integer literal must fit
        Go's 64-bit ``int``; 9223372036854775808 fits only as the operand
        of a minus."""
        kind, line = self.kinds[self.pos], self.lines[self.pos]
        self.descend(line)
        if kind in ("!", "-", "<-"):
            self.pos += 1
            expr = self.parse_unary(negated=kind == "-")
            if kind == "<-":
                expr = Recv(expr, line)
            elif kind == "-" and isinstance(expr, IntLit):
                expr = IntLit(-expr.value, line)
            else:
                expr = Unary(kind, expr, line)
        else:
            expr = self.parse_primary()
            if self.kinds[self.pos] in _POSTFIXES:
                expr = self.parse_postfix(expr)
        if expr.__class__ is IntLit and expr.value > (2**63 if negated else 2**63 - 1):
            raise Unsupported("integer literal overflows int", line)
        self.depth -= 1
        return expr

    def parse_postfix(self, expr):
        """Calls of ``expr`` and its selectors, as long as they follow."""
        kinds, depth = self.kinds, self.depth
        while True:
            if kinds[self.pos] == "(":
                if isinstance(expr, Call):  # the call of a call's result nests in it
                    self.descend(expr.line)
                expr = self.make_call(expr, self.parenthesized(self.parse_expr))
            elif kinds[self.pos] == "." and isinstance(expr, Ident):
                self.pos += 1
                expr = Selector(expr.name, self.values[self.expect("ident")], expr.line)
            else:
                self.depth = depth
                return expr

    def make_call(self, fn, args) -> Call:
        if isinstance(fn, Ident) and fn.name == "close":
            raise Unsupported("close", fn.line)
        if isinstance(fn, Selector) and fn.pkg == "sync":
            raise Unsupported("sync primitives", fn.line)
        return Call(fn, args, fn.line)

    def parse_primary(self):
        pos = self.pos
        kind, value, line = self.kinds[pos], self.values[pos], self.lines[pos]
        if kind == "ident":
            self.pos = pos + 1
            if value in ("true", "false"):
                return BoolLit(value == "true", line)
            if value == "nil":
                return NilLit(line)
            if value == "make" and self.kinds[pos + 1] == "(":
                return self.parse_make(line)
            return Ident(value, line)
        if kind == "int":
            if not plain_decimal(value):
                raise Unsupported("non-decimal integer literal", line)
            self.pos = pos + 1
            return IntLit(int(value), line)
        if kind == "string":
            self.pos = pos + 1
            return StringLit(value, line)
        if kind == "(":
            self.pos = pos + 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "func":
            return FuncLit(self.parse_func(anonymous=True), line)
        if kind == "float":
            raise Unsupported("floating point literal", line)
        if kind == "imaginary":
            raise Unsupported("imaginary literal", line)
        if kind in _UNSUPPORTED_STMTS:
            raise Unsupported(_UNSUPPORTED_STMTS[kind], line)
        if kind == "chan":
            raise Unsupported("channel type in expression", line)
        if kind in _UNSUPPORTED_UNARY:
            raise Unsupported(_UNSUPPORTED_UNARY[kind], line)
        raise GoSyntaxError(line, "unexpected %r in expression" % value)

    def parse_make(self, line) -> MakeExpr:
        self.expect("(")
        gotype = self.parse_type()
        size = None
        if self.accept(","):
            size = self.parse_expr()
        self.expect(")")
        if isinstance(gotype, ChanType):
            if size is not None and not (isinstance(size, IntLit) and size.value == 0):
                raise Unsupported("buffered channel", line)
        return MakeExpr(gotype, size, line)


def parse(source: str) -> Program:
    return Parser(source).parse_program()
