"""Recursive-descent parser for the supported Go subset.

Anything outside the subset raises Unsupported naming the construct and the
line, so the analyzer can refuse the file instead of guessing: buffered or
directional channels, select, close, for loops, switch, pointers, maps,
sync primitives, if-statements with init clauses, and nesting deeper than
``MAX_NESTING``.
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
    ShortVarDecl,
    SliceType,
    StringLit,
    Unary,
    VarDecl,
)
from .lexer import GoSyntaxError, Token, tokenize


# Nesting levels: a block, an ``if`` (``else if`` included), an operand
# (parenthesized, prefixed or a call argument) and each operator of a binary
# chain.  The parser and the later tree walks recurse on each level, so a
# deeper file is refused instead of exhausting the recursion limit.
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

_UNSUPPORTED_TYPES = {
    "map": "map type",
    "interface": "interface type",
    "struct": "inline struct type",
}


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0
        self.anon_funcs: list[Func] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0) -> Token:
        # No clamp: ``next`` stops at ``eof``, the last token, and the one
        # lookahead follows an identifier, so it reads at most ``eof``.
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind) -> bool:
        if self.peek().kind == kind:
            self.next()
            return True
        return False

    def expect(self, kind) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise GoSyntaxError(tok.line, "expected %r, found %r" % (kind, tok.value))
        return tok

    def skip_semis(self):
        while self.accept(";"):
            pass

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
        self.skip_semis()
        while self.accept("import"):
            if self.accept("("):
                self.skip_semis()
                while not self.accept(")"):
                    self.expect("string")
                    self.skip_semis()
            else:
                self.expect("string")
            self.skip_semis()
        globals_, functions = [], {}
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "func":
                f = self.parse_func()
                if f.name in functions:
                    raise GoSyntaxError(f.line, "duplicate function %s" % f.name)
                functions[f.name] = f
            elif tok.kind == "var":
                globals_.append(self.parse_var_decl())
            elif tok.kind == "type":
                self.parse_type_decl()
            else:
                raise GoSyntaxError(tok.line, "unexpected %r at top level" % tok.value)
            self.skip_semis()
        for f in self.anon_funcs:
            functions[f.name] = f
        return Program(tuple(globals_), functions)

    def parse_func(self, anonymous=False) -> Func:
        """A declaration, or a literal named ``anon@<line>[.k]`` once its
        body is parsed, so nested literals on one line keep their names."""
        line = self.expect("func").line
        name = None if anonymous else self.expect("ident").value
        params = self.parse_params()
        result = None
        if self.peek().kind not in ("{", ";"):
            result = self.parse_type()
        body = self.parse_block()
        if not anonymous:
            return Func(name, params, result, body, line)
        same_line = sum(f.line == line for f in self.anon_funcs)
        name = "anon@%d" % line + (".%d" % (same_line + 1) if same_line else "")
        func = Func(name, params, result, body, line, anonymous=True)
        self.anon_funcs.append(func)
        return func

    def parenthesized(self, item) -> tuple:
        """``( a, b, … )``: ``item()`` for each entry, a trailing comma allowed."""
        self.expect("(")
        items = []
        while not self.accept(")"):
            items.append(item())
            if not self.accept(","):
                self.expect(")")
                break
        return tuple(items)

    def parse_params(self) -> tuple:
        groups = self.parenthesized(lambda: (
            self.expect("ident").value,
            None if self.peek().kind in (",", ")") else self.parse_type(),
        ))
        # back-fill grouped parameters: `a, b int` gives both the int type
        params, pending = [], []
        for name, gotype in groups:
            pending.append(name)
            if gotype is not None:
                params.extend((n, gotype) for n in pending)
                pending = []
        if pending:
            raise GoSyntaxError(self.peek().line, "parameters missing a type")
        return tuple(params)

    def parse_var_decl(self) -> VarDecl:
        line = self.expect("var").line
        name = self.expect("ident").value
        gotype = None
        expr = None
        if self.peek().kind not in ("=", ";"):
            gotype = self.parse_type()
        if self.accept("="):
            expr = self.parse_expr()
        return VarDecl(name, gotype, expr, line)

    def parse_type_decl(self):
        """A ``struct`` declaration: each field type is checked, none kept."""
        self.expect("type")
        self.expect("ident")
        if self.peek().kind != "struct":
            raise Unsupported(
                _UNSUPPORTED_TYPES.get(self.peek().kind, "non-struct type declaration"),
                self.peek().line,
            )
        self.next()
        self.expect("{")
        self.skip_semis()
        while not self.accept("}"):
            self.expect("ident")
            if self.peek().kind not in (";", "}"):
                self.parse_type()
            self.skip_semis()

    # -- types ----------------------------------------------------------------

    def parse_type(self):
        tok = self.peek()
        if tok.kind in ("chan", "[", "func"):
            self.descend(tok.line)
            gotype = self.parse_type_literal()
            self.depth -= 1
            return gotype
        if tok.kind == "<-":
            raise Unsupported("directional channel type", tok.line)
        if tok.kind == "*":
            raise Unsupported("pointer type", tok.line)
        if tok.kind in _UNSUPPORTED_TYPES:
            raise Unsupported(_UNSUPPORTED_TYPES[tok.kind], tok.line)
        name = self.expect("ident").value
        if self.accept("."):
            qualified = "%s.%s" % (name, self.expect("ident").value)
            if name == "sync":
                raise Unsupported("sync primitives", tok.line)
            return NamedType(qualified)
        return NamedType(name)

    def parse_type_literal(self):
        """A ``chan``, ``[]`` or ``func(...)`` type, one nesting level down."""
        tok = self.next()
        if tok.kind == "chan":
            if self.peek().kind == "<-":
                raise Unsupported("directional channel type", tok.line)
            return ChanType(self.parse_type())
        if tok.kind == "[":
            self.expect("]")
            return SliceType(self.parse_type())
        params = self.parenthesized(self.parse_type)
        result = None
        if self.peek().kind not in ("{", ")", ",", ";", "eof"):
            result = self.parse_type()
        return FuncType(params, result)

    # -- statements -------------------------------------------------------------

    def parse_block(self) -> tuple:
        self.descend(self.expect("{").line)
        self.skip_semis()
        stmts = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
            self.skip_semis()
        self.depth -= 1
        return tuple(stmts)

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind in _UNSUPPORTED_STMTS:
            raise Unsupported(_UNSUPPORTED_STMTS[tok.kind], tok.line)
        if tok.kind == "go":
            self.next()
            call = self.parse_expr()
            if not isinstance(call, Call):
                raise GoSyntaxError(tok.line, "go requires a function call")
            return GoStmt(call, tok.line)
        if tok.kind == "defer":
            self.next()
            call = self.parse_expr()
            if not isinstance(call, Call):
                raise GoSyntaxError(tok.line, "defer requires a function call")
            return DeferStmt(call, tok.line)
        if tok.kind == "if":
            return self.parse_if()
        if tok.kind == "return":
            self.next()
            if self.peek().kind in (";", "}"):
                return Return(None, tok.line)
            return Return(self.parse_expr(), tok.line)
        if tok.kind == "var":
            return self.parse_var_decl()
        if tok.kind == "ident" and self.peek(1).kind == ":=":
            self.next()
            self.next()
            return ShortVarDecl(tok.value, self.parse_expr(), tok.line)
        if tok.kind == "ident" and self.peek(1).kind == "=":
            self.next()
            self.next()
            return Assign(tok.value, self.parse_expr(), tok.line)
        expr = self.parse_expr()
        if self.peek().kind == "<-":
            self.next()
            return Send(expr, self.parse_expr(), tok.line)
        return ExprStmt(expr, tok.line)

    def parse_if(self) -> If:
        line = self.expect("if").line
        self.descend(line)
        cond = self.parse_expr()
        if self.peek().kind == ";":
            raise Unsupported("if with init statement", line)
        then = self.parse_block()
        els = None
        if self.accept("else"):
            if self.peek().kind == "if":
                els = self.parse_if()
            else:
                els = self.parse_block()
        self.depth -= 1
        return If(cond, then, els, line)

    # -- expressions ---------------------------------------------------------------

    # each operator of a chain nests the tree one level deeper
    def parse_expr(self):
        outer = self.depth
        left = self.parse_and()
        while self.peek().kind == "||":
            self.descend(self.next().line)
            left = Binary("||", left, self.parse_and())
        self.depth = outer
        return left

    def parse_and(self):
        outer = self.depth
        left = self.parse_cmp()
        while self.peek().kind == "&&":
            self.descend(self.next().line)
            left = Binary("&&", left, self.parse_cmp())
        self.depth = outer
        return left

    def parse_cmp(self):
        left = self.parse_add()
        if self.peek().kind in ("==", "!=", "<", "<=", ">", ">="):
            op = self.next().kind
            return Binary(op, left, self.parse_add())
        return left

    def parse_add(self):
        """``+ -`` over ``* / %``, left-associative, in one frame per level."""
        outer = self.depth
        total, op, product = None, None, self.parse_unary()
        while self.peek().kind in ("+", "-", "*", "/", "%"):
            tok = self.next()
            self.descend(tok.line)
            operand = self.parse_unary()
            if tok.kind in ("*", "/", "%"):
                product = Binary(tok.kind, product, operand)
            else:
                total = product if total is None else Binary(op, total, product)
                op, product = tok.kind, operand
        self.depth = outer
        return product if total is None else Binary(op, total, product)

    def parse_unary(self):
        tok = self.peek()
        self.descend(tok.line)
        if tok.kind in ("!", "-", "<-"):
            self.next()
            expr = self.parse_unary()
            if tok.kind == "<-":
                expr = Recv(expr, tok.line)
            elif tok.kind == "-" and isinstance(expr, IntLit):
                expr = IntLit(-expr.value)
            else:
                expr = Unary(tok.kind, expr)
        else:
            expr = self.parse_postfix()
        self.depth -= 1
        return expr

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            if self.peek().kind == "(":
                expr = self.make_call(expr, self.parenthesized(self.parse_expr))
            elif self.peek().kind == "." and isinstance(expr, Ident):
                self.next()
                expr = Selector(expr.name, self.expect("ident").value)
            else:
                return expr

    def make_call(self, fn, args) -> Call:
        line = self.peek().line
        if isinstance(fn, Ident) and fn.name == "close":
            raise Unsupported("close", line)
        if isinstance(fn, Selector) and fn.pkg == "sync":
            raise Unsupported("sync primitives", line)
        return Call(fn, args)

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.value))
        if tok.kind == "float":
            raise Unsupported("floating point literal", tok.line)
        if tok.kind == "string":
            self.next()
            return StringLit(tok.value)
        if tok.kind == "func":
            return FuncLit(self.parse_func(anonymous=True))
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind in _UNSUPPORTED_STMTS:
            raise Unsupported(_UNSUPPORTED_STMTS[tok.kind], tok.line)
        if tok.kind == "chan":
            raise Unsupported("channel type in expression", tok.line)
        if tok.kind == "ident":
            self.next()
            if tok.value == "true":
                return BoolLit(True)
            if tok.value == "false":
                return BoolLit(False)
            if tok.value == "nil":
                return NilLit()
            if tok.value == "make" and self.peek().kind == "(":
                return self.parse_make(tok.line)
            return Ident(tok.value)
        raise GoSyntaxError(tok.line, "unexpected %r in expression" % tok.value)

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
        return MakeExpr(gotype, size)


def parse(source: str) -> Program:
    return Parser(source).parse_program()
