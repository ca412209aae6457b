"""From Go functions to coroutine definitions.

A function joins the coroutine map when it sends or receives on a channel,
or when it calls or starts a member: membership is reverse reachability
over the call edges from the functions that use channels.  Each named
member translates once, in declaration order, and a call site names its
callee with a reference; a function literal translates at its one call
site, in the caller's scope.  Member bodies translate statement by
statement: sends yield the channel's element type, receives expect it,
``go`` becomes a start application, plain calls of members inline,
``defer`` inlines at the end of the flow (last deferred first), and
undecided conditionals become unions guarded by the condition predicate.
One evaluator, ``_fold``, folds an integer expression in one walk: exactly
over literals, as Go evaluates a constant expression, and with 64-bit
wrap-around at each operation a variable takes part in.

Channel identity is deliberately not tracked: two channels with the same
element type are indistinguishable, so a program that uses them out of
order can slip through; the analyzer emits a warning when it sees one.
"""

from __future__ import annotations

from collections import ChainMap, defaultdict
from itertools import count
from typing import Optional

from ..preds import Cmp, FALSE, TRUE, conj, disj, neg, pred_free_vars, pred_simplify
from ..terms import (
    Concrete,
    CorDef,
    DefRef,
    InlineApp,
    StartApp,
    Union,
    Var,
    branches,
    cor_def,
    constrained,
    received,
    seq,
    substitute,
    term_map,
    union,
    yielded,
)
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
    Unary,
    VarDecl,
)
from .parser import Unsupported


def _quotient(a, b):
    """``a / b`` as Go divides integers: truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_ARITHMETIC = {
    "+": int.__add__,
    "-": int.__sub__,
    "*": int.__mul__,
    "/": _quotient,
    "%": lambda a, b: a - b * _quotient(a, b),
}


def concrete_name(gotype) -> str:
    """The concrete symbol a Go type contributes, e.g. int -> Int."""
    if isinstance(gotype, NamedType):
        base = gotype.name.split(".")[-1]
        return base[0].upper() + base[1:]
    if isinstance(gotype, ChanType):
        return "Chan" + concrete_name(gotype.elem)
    if isinstance(gotype, SliceType):
        return concrete_name(gotype.elem) + "Slice"
    if isinstance(gotype, FuncType):
        return "Func"
    raise TypeError("no concrete name for %r" % (gotype,))


class Env:
    """Lexically chained typing environment: channel element types,
    propagated constant values and which channel variables may hold nil,
    each a ``ChainMap`` whose first map is this block's.  A name assigned
    something that is not a known constant maps to None, which hides any
    outer constant.  ``nil`` maps a local channel variable or parameter to
    True while it may hold nil: declared without ``make``, or assigned
    ``nil`` or such a variable.  A global is not in it, since any function
    may make it first.  ``declared`` holds the names a declaration in this
    block introduced."""

    def __init__(self, chans: ChainMap, consts: ChainMap, nil: ChainMap):
        self.chans = chans
        self.consts = consts
        self.nil = nil
        self.declared: set = set()

    def child(self) -> "Env":
        return Env(self.chans.new_child(), self.consts.new_child(), self.nil.new_child())


class Translation:
    __slots__ = ("cordefs", "warnings")

    def __init__(self, cordefs, warnings):
        self.cordefs = cordefs  # name -> CorDef, the coroutine map
        self.warnings = warnings


def body_nodes(nodes):
    """Every node of ``nodes``, expressions and statements that hold no
    block, outside in.  The arguments of a call are entered but not its
    callee, so a function literal is never entered (it is a function of
    its own); ``_scan`` walks the blocks."""
    for n in nodes:
        if n is None:
            continue
        yield n
        if isinstance(n, Send):
            children = (n.chan, n.value)
        elif isinstance(n, (GoStmt, DeferStmt)):
            children = (n.call,)
        elif isinstance(n, Recv):
            children = (n.chan,)
        elif isinstance(n, Call):
            children = n.args
        elif isinstance(n, Unary):
            children = (n.operand,)
        elif isinstance(n, Binary):
            children = (n.left, n.right)
        else:  # declarations, assignments, expression statements, returns
            children = (getattr(n, "expr", None),)
        yield from body_nodes(children)


def _scan(block, bound, owner, uses, values, callees):
    """Walk ``block`` of function ``owner`` (None for the globals) in source
    order, block by block: add each send, receive and call to ``uses`` as
    ``(owner, node)``, to ``callees`` the ``_callee`` of each call, keyed by
    the call's ``id``, and to ``values`` each function literal used as a
    value and each name that the set ``bound`` does not hold.  A name is
    bound by a parameter or by a declaration earlier in an enclosing block,
    after its own expression.  A function literal's body is walked where it
    is written, as a function of its own."""
    for s in block:
        for n in body_nodes((s.cond,) if isinstance(s, If) else (s,)):
            if isinstance(n, (Send, Recv, Call)):
                uses.append((owner, n))
            if isinstance(n, Call):
                callees[id(n)] = _callee(n, bound)
            if isinstance(n, FuncLit):
                values.append((n.func.name, n))
            elif isinstance(n, Ident) and n.name not in bound:
                values.append((n.name, n))
            lit = n.fn if isinstance(n, Call) else n
            if isinstance(lit, FuncLit):
                params = bound.union(p for p, _ in lit.func.params)
                _scan(lit.func.body, params, lit.func.name, uses, values, callees)
        if isinstance(s, If):
            _scan(s.then, bound, owner, uses, values, callees)
            _scan(s.els, bound, owner, uses, values, callees)
        elif isinstance(s, VarDecl):
            bound = bound | {s.name}


class Translator:
    def __init__(self, program: Program):
        self.program = program
        self.callees: dict = {}  # id of a call -> the function it targets, or None
        self.members = self._members()
        self.cordefs: dict[str, CorDef] = {}
        self.chan_makes: defaultdict[str, int] = defaultdict(int)
        self.unknown_args = count(1)

    # -- membership ----------------------------------------------------------

    def _members(self) -> set:
        """The channel users, then every caller of a member, one worklist.
        A member used other than as the callee of a call is refused: a
        function value that is stored, passed or called through a variable
        would take its channel operations with it."""
        uses: list = []  # (function name, a send, receive or call in its body)
        values: list = []  # (name, node): a function named or written as a value
        _scan(self.program.globals, set(), None, uses, values, self.callees)
        for name, f in self.program.functions.items():
            if not f.anonymous:
                _scan(f.body, {p for p, _ in f.params}, name, uses, values, self.callees)
        members = set()
        callers = defaultdict(set)
        for owner, n in uses:
            if owner is None:
                continue  # the globals belong to no function
            if isinstance(n, Call):
                callers[self.callees[id(n)]].add(owner)
            else:
                members.add(owner)
        work = list(members)
        while work:
            for caller in callers[work.pop()] - members:
                members.add(caller)
                work.append(caller)
        for name, n in values:
            if name in members:
                shown = "literal" if isinstance(n, FuncLit) else name
                raise Unsupported("channel-using function %s used as a value" % shown, n.line)
        return members

    # -- translation ----------------------------------------------------------

    def translate_all(self) -> dict:
        root = Env(ChainMap(), ChainMap(), ChainMap())
        for g in self.program.globals:
            self._bind_value(root, g.name, g.gotype, g.expr)
            if isinstance(g.expr, MakeExpr) and isinstance(g.expr.gotype, ChanType):
                self.chan_makes[concrete_name(g.expr.gotype.elem)] += 1
        for name, f in self.program.functions.items():
            if name in self.members and not f.anonymous:
                self._translate(f, root)
        return self.cordefs

    def _translate(self, f: Func, outer_env: Env):
        env = outer_env.child()
        for pname, ptype in f.params:
            if isinstance(ptype, ChanType):
                env.chans[pname] = concrete_name(ptype.elem)
                env.nil[pname] = False  # a call site passes no nil channel
        deferred: list = []
        items, _ = self._block(f.body, env, deferred, allow_defer=True)
        self.cordefs[f.name] = cor_def(*items, *reversed(deferred), label=f.name)

    def _block(self, stmts, env: Env, deferred, allow_defer) -> tuple:
        items: list = []
        returned = False
        for s in stmts:
            if returned:
                raise Unsupported("statement after return", s.line)
            new_items, returned = self._stmt(s, env, deferred, allow_defer)
            items.extend(new_items)
        return items, returned

    def _stmt(self, s, env: Env, deferred, allow_defer) -> tuple:
        if isinstance(s, VarDecl):
            items = self._expr_items(s.expr, env)
            env.declared.add(s.name)
            self._bind_local(env, s.name, s.gotype, s.expr)
            return items, False
        if isinstance(s, Assign):
            items = self._expr_items(s.expr, env)
            self._bind_local(env, s.name, None, s.expr)
            return items, False
        if isinstance(s, Send):
            items = self._expr_items(s.value, env)
            items.append(yielded(Concrete(self._chan_elem(s, env))))
            return items, False
        if isinstance(s, ExprStmt):
            return self._expr_items(s.expr, env), False
        if isinstance(s, (GoStmt, DeferStmt)):
            go = isinstance(s, GoStmt)
            if not go and not allow_defer:
                raise Unsupported("defer inside a conditional", s.line)
            items = []
            for a in s.call.args:  # both evaluate their arguments now
                items.extend(self._expr_items(a, env))
            app = self._spawn_app(s.call, env, StartApp if go else InlineApp)
            if app is not None:
                (items if go else deferred).append(app)
            return items, False
        if isinstance(s, If):
            return self._if(s, env, deferred, allow_defer)
        if isinstance(s, Return):
            return self._expr_items(s.expr, env), True
        raise Unsupported("unrecognized statement", s.line)

    def _if(self, s: If, env: Env, deferred, allow_defer) -> tuple:
        pred = pred_simplify(self._cond_pred(s.cond, env))
        if pred == TRUE or pred == FALSE:
            branch_env = env.child()
            body = s.then if pred == TRUE else s.els
            items, returned = self._block(body, branch_env, deferred, allow_defer)
            self._merge_branches(env, (branch_env,), decided=True)
            return items, returned
        then_env, else_env = env.child(), env.child()
        then_items, t_ret = self._block(s.then, then_env, deferred, allow_defer=False)
        else_items, e_ret = self._block(s.els, else_env, deferred, allow_defer=False)
        self._merge_branches(env, (then_env, else_env), decided=False)
        if t_ret or e_ret:
            raise Unsupported("return inside an undecided conditional", s.line)
        then_branch = constrained(seq(*then_items), pred)
        else_branch = constrained(seq(*else_items), neg(pred))
        # an empty branch flattens to an unguarded 0, which resolution takes
        # as definite, so it must come last
        if then_items:
            return [union(then_branch, else_branch)], False
        return [union(else_branch, then_branch)], False

    def _merge_branches(self, env: Env, branches, decided):
        """Carry the assignments of the ``branches`` of one conditional to
        enclosing names out of them, as unknown values unless the branch
        was ``decided``.  A channel may hold nil after the conditional when
        it may at the end of any branch.  A declaration ends with its block,
        and no channel binding leaves it: a Go variable's element type is
        fixed where it is declared."""
        nil = {}
        for branch in branches:
            for name, value in branch.consts.maps[0].items():
                if name not in branch.declared:
                    env.consts[name] = value if decided else None
            for name in branch.nil.maps[0].keys() - branch.declared:
                nil[name] = any(b.nil.get(name, False) for b in branches)
        env.nil.update(nil)

    # -- expressions ------------------------------------------------------------

    def _expr_items(self, e, env: Env) -> list:
        """Flow items an expression evaluation produces, in evaluation order:
        receives inside it, then an inline application if it calls a member.
        An absent expression (None) produces none."""
        if isinstance(e, Recv):
            special = self._time_after(e.chan)
            if special is not None:
                return special
            return [received(Concrete(self._chan_elem(e, env)))]
        if isinstance(e, Call):
            items = []
            for a in e.args:
                items.extend(self._expr_items(a, env))
            app = self._spawn_app(e, env, InlineApp)
            if app is not None:
                items.append(app)
            return items
        if isinstance(e, Unary):
            return self._expr_items(e.operand, env)
        if isinstance(e, Binary):
            return self._expr_items(e.left, env) + self._expr_items(e.right, env)
        if isinstance(e, MakeExpr) and isinstance(e.gotype, ChanType):
            self.chan_makes[concrete_name(e.gotype.elem)] += 1
        return []

    def _time_after(self, chan_expr):
        """``<-time.After(d)`` completes by itself: the runtime yields a Time
        value on a fresh channel and the program receives it."""
        if (
            isinstance(chan_expr, Call)
            and isinstance(chan_expr.fn, Selector)
            and chan_expr.fn.pkg == "time"
            and chan_expr.fn.name == "After"
        ):
            return [yielded(Concrete("Time")), received(Concrete("Time"))]
        return None

    def _spawn_app(self, call: Call, env: Env, app_cls):
        """A Start/Inline application for a call, or None when the callee
        never touches channels (library calls included).  A function
        literal translates here, in the caller's scope; a named callee is
        translated by ``translate_all``."""
        name = self.callees[id(call)]
        if name not in self.members:
            return None
        func = self.program.functions[name]
        for (_, ptype), arg in zip(func.params, call.args):
            if isinstance(ptype, ChanType) and isinstance(arg, Ident) and env.nil.get(arg.name):
                raise Unsupported("channel %r may be nil" % arg.name, call.line)
        if func.anonymous:
            self._translate(func, env)
        bindings = self._call_bindings(func, call.args, env)
        return app_cls(DefRef(name), tuple(bindings.items()))

    def _call_bindings(self, func: Func, args, env: Env) -> dict:
        """Constant propagation into call arguments.  An argument with no
        constant value stays a free variable for the constraint solver: an
        identifier keeps its name, and any other argument becomes a variable
        of its own, ``arg@N``, numbered in declaration order of the calling
        functions, then in source order within a body."""
        bindings = {}
        for (pname, ptype), arg in zip(func.params, args):
            if isinstance(ptype, (ChanType, FuncType, SliceType)):
                continue  # channels resolve via the callee's own signature
            value = self._eval_value(arg, env)
            if value is not None:
                bindings[pname] = value
            elif isinstance(arg, Ident):
                bindings[pname] = Var(arg.name)
            else:
                bindings[pname] = Var("arg@%d" % next(self.unknown_args))
        return bindings

    def _eval_value(self, e, env: Env):
        """The constant ``e`` folds to, or None; see ``_fold``."""
        value, exact = self._fold(e, env)
        if exact:
            _check_fits(value, e.line)
        return value

    def _fold(self, e, env: Env) -> tuple:
        """``(value, exact)``: the integer ``e`` folds to, or None, and
        whether it is built of integer literals only.  Such a value is
        exact, as Go evaluates a constant expression; it must fit ``int``
        where it meets a variable operand, and the caller checks it at the
        top.  An operation with a variable operand wraps as Go's ``int``
        does at run time.  A divisor that folds to zero is refused."""
        if isinstance(e, IntLit):
            return e.value, True
        if isinstance(e, BoolLit):
            return int(e.value), False
        if isinstance(e, Ident):
            return env.consts.get(e.name), False
        if isinstance(e, Unary) and e.op == "-":
            value, exact = self._fold(e.operand, env)
            if value is not None:
                value = -value if exact else _wrap(-value)
            return value, exact
        if isinstance(e, Binary) and e.op in _ARITHMETIC:
            left, left_exact = self._fold(e.left, env)
            right, right_exact = self._fold(e.right, env)
            exact = left_exact and right_exact
            if left_exact and not right_exact:
                _check_fits(left, e.left.line)
            if right_exact and not left_exact:
                _check_fits(right, e.right.line)
            if right == 0 and e.op in ("/", "%"):
                raise Unsupported("division by zero", e.line)
            if left is None or right is None:
                return None, False
            value = _ARITHMETIC[e.op](left, right)
            return (value, True) if exact else (_wrap(value), False)
        return None, False

    def _cond_pred(self, e, env: Env):
        """The predicate a condition compiles to over its free variables;
        constants fold in."""
        if isinstance(e, BoolLit):
            return TRUE if e.value else FALSE
        if isinstance(e, Ident):
            value = env.consts.get(e.name)
            if value is not None:
                return TRUE if value else FALSE
            return Cmp(Var(e.name), "=", 1)  # a bare flag reads as "is set"
        if isinstance(e, Unary) and e.op == "!":
            return neg(self._cond_pred(e.operand, env))
        if isinstance(e, Binary) and e.op == "&&":
            return conj(self._cond_pred(e.left, env), self._cond_pred(e.right, env))
        if isinstance(e, Binary) and e.op == "||":
            return disj(self._cond_pred(e.left, env), self._cond_pred(e.right, env))
        if isinstance(e, Binary) and e.op in ("==", "!=", "<", "<=", ">", ">="):
            sides = []
            for side in (e.left, e.right):
                value = self._eval_value(side, env)
                if value is None and not isinstance(side, Ident):
                    raise Unsupported("condition beyond integer/boolean comparisons", side.line)
                sides.append(Var(side.name) if value is None else value)
            op = "=" if e.op in ("==", "!=") else e.op
            out = Cmp(sides[0], op, sides[1])
            return neg(out) if e.op == "!=" else out
        raise Unsupported("condition beyond integer/boolean comparisons", e.line)

    def _returned_chan(self, e) -> Optional[str]:
        """The element type of the channel ``e`` returns when it calls a
        function of the program declared to return one, else None."""
        if isinstance(e, Call) and isinstance(e.fn, Ident):
            func = self.program.functions.get(e.fn.name)
            if func is not None and isinstance(func.result, ChanType):
                return concrete_name(func.result.elem)
        return None

    def _chan_elem(self, op, env: Env) -> str:
        """The element type of the channel a send or receive ``op`` uses;
        one that may hold nil would block forever, and is refused."""
        e = op.chan
        elem = env.chans.get(e.name) if isinstance(e, Ident) else self._returned_chan(e)
        if elem is None:
            name = getattr(getattr(e, "fn", e), "name", "?")
            raise Unsupported("cannot resolve channel %r" % name, e.line)
        if isinstance(e, Ident) and env.nil.get(e.name):
            raise Unsupported("channel %r may be nil" % e.name, op.line)
        return elem

    def _bind_local(self, env: Env, name, gotype, expr):
        """Bind a local variable as ``_bind_value`` does, and record
        whether it may now hold nil when it is a channel."""
        nil = expr is None or isinstance(expr, NilLit) or (
            isinstance(expr, Ident) and env.nil.get(expr.name, False))
        self._bind_value(env, name, gotype, expr)
        if name in env.chans:
            env.nil[name] = nil

    def _bind_value(self, env: Env, name, gotype, expr):
        if isinstance(expr, MakeExpr) and isinstance(expr.gotype, ChanType):
            # creation is counted by _expr_items, and for globals by translate_all
            env.chans[name] = concrete_name(expr.gotype.elem)
        elif isinstance(gotype, ChanType):
            env.chans[name] = concrete_name(gotype.elem)
        elif (elem := self._returned_chan(expr)) is not None:
            env.chans[name] = elem
        else:
            env.consts[name] = self._eval_value(expr, env)


def _callee(call: Call, bound) -> Optional[str]:
    """The name of the program function ``call`` targets: a function
    literal's, or an identifier's that the set ``bound`` does not hold;
    None for a selector or a bound name, which holds no program function."""
    if isinstance(call.fn, FuncLit):
        return call.fn.func.name
    if isinstance(call.fn, Ident) and call.fn.name not in bound:
        return call.fn.name
    return None


def _wrap(value: int) -> int:
    """``value`` wrapped to Go's 64-bit ``int``."""
    return (value + 2**63) % 2**64 - 2**63


def _check_fits(value: int, line):
    if not -(2**63) <= value < 2**63:
        raise Unsupported("constant %d overflows int" % value, line)


def compute_m(program: Program) -> Translation:
    """The coroutine map: every channel-using (direct or transitive)
    function, translated to its coroutine definition."""
    tr = Translator(program)
    cordefs = tr.translate_all()
    warnings = []
    for elem in sorted(tr.chan_makes):
        count = tr.chan_makes[elem]
        if count > 1:
            warnings.append(
                "%d channels share element type %s; channel identity is not "
                "tracked, so operations on them may be conflated" % (count, elem)
            )
    return Translation(cordefs, warnings)


def unresolved_condition_preds(cordefs: dict, entry: str = "main") -> list:
    """Branch guards still symbolic from the entry point's perspective, each
    once, in the order a depth-first walk of the calls first meets them.

    The walk keeps an explicit stack of guards and ``(name, bindings)``
    calls, and enters each definition once per distinct bindings, with the
    call-site bindings applied, so a guard inside a callee surfaces under
    the caller's variable names."""
    preds: list = []
    seen: set = set()
    stack: list = [(entry, {})]
    while stack:
        top = stack.pop()
        if not isinstance(top, tuple):
            preds.append(top)
            continue
        name, bindings = top
        key = (name, frozenset(bindings.items()))
        if name not in cordefs or key in seen:
            continue
        seen.add(key)
        # branches needs the canonical form: cor_def built it, substitute keeps it
        body = substitute(cordefs[name], bindings) if bindings else cordefs[name]
        stack.extend(reversed(_guards_and_calls(body)))
    return list(dict.fromkeys(preds))


def _guards_and_calls(body) -> list:
    """The symbolic guards and the ``(name, bindings)`` calls of one body,
    in order; a callee's body is not entered."""
    out: list = []

    def visit(t):
        if isinstance(t, Union):
            for payload, guard in branches(t):
                if pred_free_vars(guard):
                    out.append(guard)
                visit(payload)
        elif isinstance(t, (StartApp, InlineApp)) and isinstance(t.target, DefRef):
            out.append((t.target.name, dict(t.bindings)))
        else:
            term_map(t, visit)
        return t

    visit(body)
    return out
