"""Recursive-descent parser for the supported Go subset.

The parser reads the three lists ``tokenize`` returns by position: every
test reads ``kinds``, and a token's value and line are read only where a
node or a message needs them.  Binary expressions are read by precedence
climbing over one table, ``_PRECEDENCE``, of Go's five binary levels; every
operator is left-associative, as in the Go spec.  An operand is read in
one frame, and a ``go`` or ``defer`` is built there as the call it holds.

Each name resolves where it is read, in Go's block scopes: an ``Ident``,
``VarDecl`` or ``Assign`` carries its ``Decl``.  A name no body declares is
the package's, settled once the file is read: a global, else a function,
from a body; an earlier global, else a function, from a global's
initializer.  ``true``, ``false``, ``nil`` and ``make`` are Go's own where
no body or earlier global declares them.  Each of the ``Program.events`` is
appended once its node is read, so they come in source order.

Anything outside the subset raises Unsupported naming the construct and the
line, so the analyzer can refuse the file instead of guessing: buffered or
directional channels, select, close, for loops, switch, pointers, maps,
sync primitives, if-statements with init clauses, methods, labels, several
names in one declaration, assignment or return, grouped declarations,
increments, decrements, compound assignments, assignments to a field,
bitwise and shift operators, and nesting deeper than ``MAX_NESTING``.
What Go itself refuses raises GoSyntaxError at its line: an expression
statement that is neither a call nor a receive, a ``go`` or ``defer`` of a
parenthesized call, or a conversion or value-only builtin such as ``len``
called as a statement where no declaration of that name is in scope.
"""

from __future__ import annotations

from .goast import (
    Assign,
    Binary,
    Body,
    BoolLit,
    Call,
    ChanType,
    Decl,
    DeferStmt,
    Func,
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
    declared_type,
)
from .lexer import GoSyntaxError, plain_decimal, tokenize


# Nesting levels: a block, an ``if`` (``else if`` included), a composite
# type, an operand, each prefix operator and call of a call's result on it,
# and each binary operator.  The parser and the later tree walks recurse on
# each level, so a deeper file is refused instead of exhausting the stack.
MAX_NESTING = 100


class Unsupported(Exception):
    def __init__(self, feature, line):
        super().__init__("%s (line %d)" % (feature, line))
        self.feature = feature
        self.line = line


_UNSUPPORTED_STMTS = {
    "for": "for loop", "select": "select statement", "switch": "switch statement",
    "range": "range clause", "const": "const declaration", "goto": "goto statement",
    "break": "break statement", "continue": "continue statement",
}

_INCREMENTS = {"++": "increment statement", "--": "decrement statement"}

# Go's builtins that only give a value, then its predeclared types, whose
# call is a conversion: neither may stand alone as a statement
_VALUE_ONLY = set("append cap complex imag len max min new real any bool byte complex64 complex128 "
                  "error float32 float64 int int8 int16 int32 int64 rune string uint uint8 uint16 "
                  "uint32 uint64 uintptr".split())
_COMPOUND = {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", "&^="}  # two tokens each

# Go's binary operators by precedence, loosest first; those outside the
# subset bind tightest, so the first expression to meet one refuses it
_UNSUPPORTED_BINARY = {
    "&": "bitwise operator &", "|": "bitwise operator |", "^": "bitwise operator ^",
    "&^": "bitwise operator &^", "<<": "shift operator <<", ">>": "shift operator >>",
}
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
    **dict.fromkeys(_UNSUPPORTED_BINARY, 6),
}

# an operand's prefix operators, the kinds that may follow it as a call or a
# selector, the names it reads as a literal or ``make`` unless declared, and
# the tokens outside the subset that may start one
_PREFIXES = {"!", "-", "<-"}
_POSTFIXES = {"(", "."}
_PREDECLARED = {"true", "false", "nil", "make"}
_UNSUPPORTED_OPERANDS = {
    "float": "floating point literal", "imaginary": "imaginary literal",
    "chan": "channel type in expression", "^": "bitwise complement", "&": "address operation",
    **_UNSUPPORTED_STMTS,
}

_UNSUPPORTED_TYPES = {"map": "map type", "interface": "interface type", "struct": "inline struct type"}


class Parser:
    def __init__(self, source: str):
        tokens = tokenize(source)
        self.kinds, self.values, self.lines = tokens.kinds, tokens.values, tokens.lines
        self.pos = 0
        self.depth = 0
        self.literals: dict[int, int] = {}  # line -> function literals named on it
        self.unused: list = []  # (name, line) of each statement calling a package ``_VALUE_ONLY`` name
        self.package = self.body = Body(None)  # the package's, then the body being read
        self.scope, self.log = {}, []  # name -> Decl in the bodies around; (name, Decl it hid)
        # package names to Decls: read from a body, each global so far, and
        # read from a global's initializer where no earlier global takes it
        self.names, self.earlier, self.funcs = {}, {}, {}
        self.visible = self.fallback = self.names  # where ``resolve`` looks past the bodies
        # (decl, its fixed type or None, expr) to type once the file is read,
        # the globals' and then the bodies'; and the ``Program.events``
        self.global_pending, self.pending, self.events = [], [], []

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
        kinds, pos = self.kinds, self.pos
        if kinds[pos] == ";":
            pos += 1
            while kinds[pos] == ";":
                pos += 1
            self.pos = pos
        elif kinds[pos] != closing:
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

    # -- names -----------------------------------------------------------------

    def declare(self, name, decl):
        self.log.append((name, self.scope.get(name)))
        self.scope[name] = decl

    def resolve(self, name) -> Decl:
        decl = self.scope.get(name) or self.visible.get(name) or self.fallback.get(name)
        if decl is None:
            decl = self.fallback[name] = Decl(None, self.package)
        return decl

    def declare_var(self, name, gotype, expr, line) -> VarDecl:
        """Its type is fixed here when written or made, else once the file is read."""
        fixed = expr.gotype if gotype is None and expr.__class__ is MakeExpr else gotype
        if self.body is self.package:
            decl = self.earlier[name] = self.names.setdefault(name, Decl(None, self.package))
            self.global_pending.append((decl, fixed, expr))
        else:
            decl = Decl(fixed, self.body)
            if fixed is None and expr is not None:
                self.pending.append((decl, None, expr))
            self.declare(name, decl)
        return VarDecl(name, gotype, expr, line, decl)

    def settle(self, functions):
        """Give each package name its function where no global takes it,
        then type the pending declarations, the globals' first."""
        for table in (self.funcs, self.names):
            for name, decl in table.items():
                if (f := functions.get(name)) and decl is not self.earlier.get(name):
                    decl.gotype = Func(name, f.params, f.result, (), f.line)
        for decl, fixed, expr in self.global_pending + self.pending:
            decl.gotype = fixed if fixed is not None or expr is None else declared_type(expr)

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
            elif kind == "var":  # a global, whose initializer reads the globals before it
                self.visible, self.fallback = self.earlier, self.funcs
                globals_.append(self.parse_var_decl())
                self.visible = self.fallback = self.names
            elif kind == "type":
                self.parse_type_decl()
            else:
                raise GoSyntaxError(self.lines[self.pos],
                                    "unexpected %r at top level" % self.values[self.pos])
            self.end("eof")
        for name, line in self.unused:  # Go's package scope holds every global
            if name not in functions and name not in self.earlier:
                raise GoSyntaxError(line, "expression is not used")
        self.settle(functions)
        return Program(tuple(globals_), functions, self.events)

    def parse_func(self, anonymous=False) -> Func:
        """A declaration, or a literal named ``anon@<line>[.k]`` once its
        body is parsed, so nested literals on one line keep their names; a
        literal lives only where it is written, as an expression."""
        line = self.lines[self.expect("func")]
        if not anonymous and self.kinds[self.pos] == "(":
            raise Unsupported("method declaration", line)
        name = None if anonymous else self.values[self.expect("ident")]
        outer = self.body
        self.body = owner = Body(name)
        params = self.parse_params()
        result = None
        if self.kinds[self.pos] not in ("{", ";"):
            result = self.parse_type()
        body = self.parse_block(params)
        self.body = outer
        if not anonymous:
            return Func(name, params, result, body, line)
        k = self.literals[line] = self.literals.get(line, 0) + 1
        owner.name = "anon@%d" % line + (".%d" % k if k > 1 else "")
        func = Func(owner.name, params, result, body, line)
        if self.kinds[self.pos] not in _POSTFIXES:
            self.events.append((outer, func))
        return func

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
        return self.declare_var(name, gotype, expr, line)

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

    def parse_block(self, params=()) -> tuple:
        """A block, with ``params``, a function's, in scope; its names go out
        of scope at its end."""
        self.descend(self.lines[self.expect("{")])
        self.skip_semis()
        kinds, stmts, log, mark = self.kinds, [], self.log, len(self.log)
        for name, gotype in params:
            self.declare(name, Decl(gotype, self.body))
        while kinds[self.pos] != "}":
            stmts.append(self.parse_stmt())
            self.end("}")
        self.pos += 1
        self.depth -= 1
        while len(log) > mark:
            name, hidden = log.pop()
            self.scope[name] = hidden
        return tuple(stmts)

    def parse_stmt(self):
        kinds, pos = self.kinds, self.pos
        kind, line = kinds[pos], self.lines[pos]
        if kind == "ident":
            if kinds[pos + 1] in (":=", "="):
                self.pos = pos + 2
                name, expr = self.values[pos], self.parse_expr()
                if kinds[pos + 1] == ":=":
                    return self.declare_var(name, None, expr, line)
                assign = Assign(name, expr, line, self.resolve(name))
                self.events.append((self.body, assign))
                return assign
            if kinds[pos + 1] + kinds[pos + 2] in _COMPOUND:
                raise Unsupported("compound assignment", line)
            if kinds[pos + 1] == "." and kinds[pos + 2] == "ident" and (
                    kinds[pos + 3] == "=" or kinds[pos + 3] + kinds[pos + 4] in _COMPOUND):
                raise Unsupported("assignment to a field", line)
        if kind == "go" or kind == "defer":
            self.pos = pos + 1
            stmt = self.parse_expr(call=GoStmt if kind == "go" else DeferStmt)
            if stmt.__class__ is not GoStmt and stmt.__class__ is not DeferStmt:
                raise GoSyntaxError(line, "%s requires a function call" % kind)
            return stmt
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
        kind = kinds[self.pos]
        if kind == "<-":
            self.pos += 1
            send = Send(expr, self.parse_expr(), line)
            self.events.append((self.body, send))
            return send
        if kind in _INCREMENTS:
            raise Unsupported(_INCREMENTS[kind], self.lines[self.pos])
        # only a call or a receive may stand alone; a statement that runs on
        # is left to ``end``, which names a label or a list of names
        if expr.__class__ is Call:
            fn = expr.fn
            if fn.__class__ is Ident and fn.name in _VALUE_ONLY and fn.decl.owner is self.package:
                self.unused.append((fn.name, line))  # no body declares it
        elif expr.__class__ is not Recv and kind in (";", "}"):
            raise GoSyntaxError(line, "expression is not used")
        return expr

    def parse_if(self) -> If:
        line = self.lines[self.expect("if")]
        self.descend(line)
        cond = self.parse_expr()
        if self.kinds[self.pos] in (";", ":=", "=", ","):
            raise Unsupported("if with init statement", line)
        then = self.parse_block()
        els = ()
        if self.accept("else"):
            els = (self.parse_if(),) if self.kinds[self.pos] == "if" else self.parse_block()
        self.depth -= 1
        return If(cond, then, els, line)

    # -- expressions ---------------------------------------------------------------

    def parse_expr(self, lowest=1, call=Call):
        """A binary expression of operators that bind at level ``lowest`` or
        tighter, its first operand read in this frame: prefix operators, a
        primary, and the calls and selectors after it, the last call a ``call``
        (a ``GoStmt`` or ``DeferStmt`` for a ``go`` or ``defer``).  Each prefix
        operator, primary, call of a call's result and binary operator nests
        one level.  A call's event, and a receive's, follows its operands'.
        An integer literal must fit Go's 64-bit ``int``; 9223372036854775808
        fits only as the operand of a minus."""
        kinds, lines, events = self.kinds, self.lines, self.events
        first = pos = self.pos
        outer = depth = self.depth
        while True:  # a level for each prefix operator, then the primary's
            depth += 1
            if depth > MAX_NESTING:
                raise Unsupported("nesting too deep", lines[pos])
            if kinds[pos] not in _PREFIXES:
                break
            pos += 1
        self.pos, self.depth = pos + 1, depth
        kind, value, line = kinds[pos], self.values[pos], lines[pos]
        if kind == "ident":
            if (value not in _PREDECLARED or self.scope.get(value) or self.earlier.get(value)
                    or value == "make" and kinds[pos + 1] != "("):
                decl = self.scope.get(value) or self.visible.get(value) or self.resolve(value)
                expr = Ident(value, line, decl)
                if decl.gotype is None and kinds[pos + 1] not in _POSTFIXES:
                    events.append((self.body, expr))  # it may name a function
            elif value == "make":
                expr = self.parse_make(line)
            else:
                expr = NilLit(line) if value == "nil" else BoolLit(value == "true", line)
        elif kind == "int":
            if not plain_decimal(value):
                raise Unsupported("non-decimal integer literal", line)
            expr = IntLit(int(value), line)
        elif kind == "string":
            expr = StringLit(value, line)
        elif kind == "(":
            expr = self.parse_expr()
            self.expect(")")
            if expr.__class__ in (Ident, Func) and kinds[self.pos] in _POSTFIXES and events:
                if events[-1][1] is expr:  # a name or literal called or selected is no value
                    events.pop()
        elif kind == "func":
            self.pos = pos
            expr = self.parse_func(anonymous=True)
        elif kind in _UNSUPPORTED_OPERANDS:
            raise Unsupported(_UNSUPPORTED_OPERANDS[kind], line)
        else:
            raise GoSyntaxError(line, "unexpected %r in expression" % value)
        while True:  # the calls and selectors
            kind = kinds[self.pos]
            if kind == "(":
                if expr.__class__ is Call:  # the call of a call's result nests in it
                    depth = self.depth = depth + 1
                    if depth > MAX_NESTING:
                        raise Unsupported("nesting too deep", expr.line)
                self.pos += 1
                args = []
                while kinds[self.pos] != ")":
                    args.append(self.parse_expr())
                    if kinds[self.pos] != ",":
                        break
                    self.pos += 1
                self.expect(")")
                if expr.__class__ is Ident and expr.name == "close":
                    raise Unsupported("close", expr.line)
                if expr.__class__ is Selector and expr.pkg == "sync":
                    raise Unsupported("sync primitives", expr.line)
                expr = (Call if kinds[self.pos] == "(" else call)(expr, tuple(args), expr.line)
                events.append((self.body, expr))
            elif kind == "." and expr.__class__ is Ident:
                self.pos += 1
                expr = Selector(expr.name, self.values[self.expect("ident")], expr.line)
            else:
                break
        while True:  # the prefix operators, innermost first
            if expr.__class__ is IntLit and expr.value > 2**63 - (pos == first or kinds[pos - 1] != "-"):
                raise Unsupported("integer literal overflows int", lines[pos])
            if pos == first:
                break
            pos -= 1
            op = kinds[pos]
            if op == "<-":
                expr = Recv(expr, lines[pos])
                events.append((self.body, expr))
            elif op == "-" and expr.__class__ is IntLit:
                expr = IntLit(-expr.value, lines[pos])
            else:
                expr = Unary(op, expr, lines[pos])
        self.depth = outer
        while (level := _PRECEDENCE.get(kind, 0)) >= lowest:  # ``kind`` follows the operand
            line = lines[self.pos]
            if kind in _UNSUPPORTED_BINARY:
                raise Unsupported(_UNSUPPORTED_BINARY[kind], line)
            self.pos += 1
            self.descend(line)
            expr = Binary(kind, expr, self.parse_expr(level + 1), line)
            kind = kinds[self.pos]
        self.depth = outer
        return expr

    def parse_make(self, line) -> MakeExpr:
        self.expect("(")
        gotype = self.parse_type()
        size = self.parse_expr() if self.accept(",") else None
        self.expect(")")
        if isinstance(gotype, ChanType):
            if size is not None and not (isinstance(size, IntLit) and size.value == 0):
                raise Unsupported("buffered channel", line)
        return MakeExpr(gotype, size, line)


def parse(source: str) -> Program:
    return Parser(source).parse_program()
