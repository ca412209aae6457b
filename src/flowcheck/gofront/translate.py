"""From Go functions to coroutine definitions.

A function joins the coroutine map when it sends or receives on a channel,
or when it calls or starts a member: membership is reverse reachability
over the call edges from the functions that use channels, read off the
parser's ``Program.events`` in one pass; no tree is walked for it.  The
parser resolved each name to its ``Decl``, which fixes its Go type.
Translation keeps the flow facts in the ``facts`` table, keyed by ``Decl``:
a constant value, or whether a channel may be nil.  It changes only through
``_set``, which logs what it replaced; ``_undo`` takes back a function's
facts once it is translated, and each branch of an undecided ``if`` before
the two join.  A variable that a body other than its own assigns has no
constant value; a global channel declared without ``make`` is nil at every
use when no statement assigns it, and is taken as made otherwise.

Member bodies translate statement by statement, in Go's order of
evaluation (``goast.operands``): sends yield the channel's element type,
receives expect it, and an undecided conditional becomes one flow item, a
union guarded by the condition predicate; ``Translation.guarded`` reads
the definitions that hold one off the coroutine map.  When it names none,
the analysis skips ``unresolved_condition_preds``.  A call of a member
becomes an inline application, a ``go`` a start, and a ``defer`` an
inline application at the end of the flow; both passes take a ``go`` or
``defer`` as the call it holds.  Each named member translates once; a
function literal translates where it runs, with the facts there:
at its call or ``go``, or at the function's end if deferred.  ``_item``
builds each distinct send, receive or application item once per
translation and shares it; the checks of each use run at that use.

Channel identity is deliberately not tracked: two channels with the same
element type are indistinguishable, so a program that uses them out of
order can slip through; the analyzer emits a warning when it sees one.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count

from ..preds import Cmp, FALSE, TRUE, conj, disj, neg, pred_free_vars, pred_simplify
from ..record import Record
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
    operands,
)
from .parser import Unsupported

# operands whose evaluation yields no flow item
_NO_ITEMS = {Ident, Selector, IntLit, StringLit, BoolLit, NilLit, Func}
# the application a call, ``go`` or ``defer`` of a member translates to
_APPS = {Call: InlineApp, GoStmt: StartApp, DeferStmt: InlineApp}


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


class Translation(Record):
    __slots__ = ("cordefs", "warnings")  # cordefs: name -> CorDef, the coroutine map

    @property
    def guarded(self) -> frozenset:
        """The definitions with a union among their flow items, where ``_if``
        puts each undecided conditional, whose guard may need a case split."""
        return frozenset(name for name, d in self.cordefs.items()
                         if any(item.__class__ is Union for item in d.flow))


class Translator:
    def __init__(self, program: Program):
        self.program = program
        self.assigned: set = set()  # the Decl of each assignment statement
        self.shared: set = set()  # each Decl that a body other than its owner assigns
        self.facts: dict = {}  # Decl -> its constant value, or a channel's "may be nil"
        self.log: list = []  # (Decl, the fact _set replaced), for _undo
        self.members = self._members()
        self.cordefs: dict[str, CorDef] = {}
        self.chan_makes: defaultdict[str, int] = defaultdict(int)
        self.unknown_args = count(1)
        self.built: dict = {}  # what a flow item is built from -> the one item built

    def _item(self, make, ref, name, *rest):
        """``make(ref(name), *rest)``, built once per translation: a flow item
        is immutable, so the equal items of repeated sends, receives and
        applications can be one object."""
        key = make, name, *rest
        item = self.built.get(key)
        if item is None:
            item = self.built[key] = make(ref(name), *rest)
        return item

    # -- facts --------------------------------------------------------------------

    def _set(self, decl, fact):
        """``facts[decl] = fact``, logged for ``_undo``."""
        self.log.append((decl, self.facts.get(decl)))
        self.facts[decl] = fact

    def _undo(self, mark) -> dict:
        """Take back every ``_set`` since the log was ``mark`` long, and
        return the fact each changed Decl held at the end."""
        done, facts = {}, self.facts
        while len(self.log) > mark:
            decl, old = self.log.pop()
            done.setdefault(decl, facts[decl])
            facts[decl] = old
        return done

    # -- membership -------------------------------------------------------------

    def _members(self) -> dict:
        """The channel users, then every caller of a member, one worklist,
        where the globals' initializers are the owner None.  A member used
        other than as the callee of a call is refused: a function value that
        is stored, passed or called through a variable would take its
        channel operations with it.  So is a channel operation in a global's
        initializer, which would run before ``main``.  Each assignment adds
        to ``assigned``, and to ``shared`` when another body owns its name."""
        members = {}  # name -> the line of its first channel use or member call
        callers = defaultdict(dict)  # callee name -> {caller: the line of its first call}
        values = []  # each name that may hold a function and each literal, but a callee
        for body, n in self.program.events:
            cls = n.__class__
            if cls in _APPS:
                if isinstance(callee := declared_type(n.fn), Func):
                    callers[callee.name].setdefault(body.name, n.line)
            elif cls is Send or cls is Recv:
                members.setdefault(body.name, n.line)
            elif cls is Assign:
                self.assigned.add(n.decl)
                if n.decl.owner is not body:
                    self.shared.add(n.decl)
            else:
                values.append(n)
        work = list(members)
        while work:
            for caller, line in callers[work.pop()].items():
                if caller not in members:
                    members[caller] = line
                    work.append(caller)
        if None in members:
            raise Unsupported("channel operation in a package-level initializer", members[None])
        for n in values:
            func = declared_type(n)
            if func.__class__ is Func and func.name in members:
                shown = "literal" if n.__class__ is Func else func.name
                raise Unsupported("channel-using function %s used as a value" % shown, n.line)
        return members

    # -- translation ----------------------------------------------------------

    def translate_all(self) -> dict:
        for g in self.program.globals:
            self._items(g)  # yields no flow: _members refused any
        for decl in self.assigned:  # some function may make a global channel first
            self._set(decl, None)
        for name, f in self.program.functions.items():
            if name in self.members:
                self._translate(f)
        return self.cordefs

    def _translate(self, f: Func):
        """Translate ``f`` with the facts where it runs, then take back its changes."""
        mark = len(self.log)
        deferred: list = []  # (application, literal or None)
        items, _ = self._block(f.body, deferred)
        deferred.reverse()  # run last deferred first, at the end, with the facts there
        for app, literal in deferred:
            if literal is not None:
                self._translate(literal)
            items.append(app)
        self._undo(mark)
        self.cordefs[f.name] = cor_def(*items, label=f.name)

    def _block(self, stmts, deferred) -> tuple:
        """Flow items and whether ``stmts`` return; ``deferred`` is None
        inside an undecided conditional, where ``defer`` is refused, and
        only a ``defer`` statement adds to it."""
        items: list = []
        returned = False
        for s in stmts:
            if returned:
                raise Unsupported("statement after return", s.line)
            cls = s.__class__
            if cls is If:
                new_items, returned = self._if(s, deferred)
            elif cls is DeferStmt:
                if deferred is None:
                    raise Unsupported("defer inside a conditional", s.line)
                new_items = self._items(s, deferred)
            else:
                new_items, returned = self._items(s), cls is Return
            items.extend(new_items)
        return items, returned

    def _if(self, s: If, deferred) -> tuple:
        pred = pred_simplify(self._cond_pred(s.cond))
        if pred == TRUE or pred == FALSE:
            return self._block(s.then if pred == TRUE else s.els, deferred)
        mark = len(self.log)
        then_items, t_ret = self._block(s.then, None)
        then_facts = self._undo(mark)
        else_items, e_ret = self._block(s.els, None)
        else_facts = self._undo(mark)
        # a variable keeps a value both branches leave it, and a channel may
        # be nil after the conditional when it may at the end of either
        for decl in then_facts.keys() | else_facts.keys():
            a, b = (facts.get(decl, self.facts.get(decl)) for facts in (then_facts, else_facts))
            chan = isinstance(decl.gotype, ChanType)
            self._set(decl, (a or b) if chan else a if a == b else None)
        if t_ret or e_ret:
            raise Unsupported("return inside an undecided conditional", s.line)
        then_branch = constrained(seq(*then_items), pred)
        else_branch = constrained(seq(*else_items), neg(pred))
        # an empty branch flattens to an unguarded 0, which resolution takes
        # as definite, so it must come last
        if then_items:
            return [union(then_branch, else_branch)], False
        return [union(else_branch, then_branch)], False

    # -- expressions ------------------------------------------------------------

    def _items(self, n, deferred=None) -> list:
        """The flow items of running ``n``, an expression or a statement other
        than ``if``: its operands', in Go's order (see ``operands``), then
        its own: a send's, a receive's, or for a call, ``go`` or ``defer`` of
        a member an application, which joins ``deferred``, given only to a
        ``defer``.  A declaration or assignment then binds its name."""
        cls = n.__class__
        if cls is Binary and n.op in ("&&", "||"):
            return self._short_circuit(n)
        items = []
        for e in operands(n):
            if e.__class__ not in _NO_ITEMS:
                items += self._items(e)
        app_cls = _APPS.get(cls)
        if app_cls is not None:
            return self._call(n, items, app_cls, deferred)
        if cls is Send:
            items.append(self._item(yielded, Concrete, self._chan_elem(n)))
        elif cls is Recv:
            fn = getattr(n.chan, "fn", None)
            if isinstance(fn, Selector) and (fn.pkg, fn.name) == ("time", "After"):
                # <-time.After(d) completes: the runtime yields a Time on a fresh channel
                items += (self._item(made, Concrete, "Time") for made in (yielded, received))
            else:
                items.append(self._item(received, Concrete, self._chan_elem(n)))
        elif cls is VarDecl or cls is Assign:
            self._bind(n.decl, n.expr)
        elif cls is MakeExpr and isinstance(n.gotype, ChanType):
            self.chan_makes[concrete_name(n.gotype.elem)] += 1
        return items

    def _short_circuit(self, e: Binary) -> list:
        """The flow items of ``&&`` or ``||``: Go evaluates the right operand
        only when the left one does not decide the result.  When the right
        operand yields flow items, its constants must decide the left one."""
        left, right = (self._items(o) for o in operands(e))
        if right:
            try:
                pred = pred_simplify(self._cond_pred(e.left))
            except Unsupported:
                pred = None
            if pred != TRUE and pred != FALSE:
                raise Unsupported("channel operation in the right operand of %s" % e.op, e.line)
            if (pred == TRUE) != (e.op == "&&"):
                return left
        return left + right

    def _call(self, call, items: list, app_cls, deferred) -> list:
        """``items``, the flow items of the operands of ``call``, a call,
        ``go`` or ``defer``, then, for one of a member, an ``app_cls``
        application, or none when it joins ``deferred``.  A literal callee
        translates where it runs: here, or at the function's end if deferred."""
        func = declared_type(call.fn)
        if not isinstance(func, Func) or func.name not in self.members:
            return items
        for (_, ptype), arg in zip(func.params, call.args):
            if isinstance(ptype, ChanType) and self._nil(arg):
                raise Unsupported("channel %r may be nil" % arg.name, call.line)
        app = self._item(app_cls, DefRef, func.name, self._call_bindings(func, call.args))
        literal = func if call.fn is func else None
        if deferred is not None:
            deferred.append((app, literal))
            return items
        if literal is not None:
            self._translate(literal)
        items.append(app)
        return items

    def _call_bindings(self, func: Func, args) -> tuple:
        """Constant propagation into call arguments.  An argument with no
        constant value stays a free variable for the constraint solver: an
        identifier keeps its name, and any other argument becomes a variable
        of its own, ``arg@N``, numbered in declaration order of the calling
        functions, then in source order within a body, where a literal's
        body counts after its call's arguments, or at the end if deferred."""
        bindings = {}
        for (pname, ptype), arg in zip(func.params, args):
            if isinstance(ptype, (ChanType, FuncType, SliceType)):
                continue  # channels resolve via the callee's own signature
            value = self._eval_value(arg)
            if value is not None:
                bindings[pname] = value
            elif isinstance(arg, Ident):
                bindings[pname] = Var(arg.name)
            else:
                bindings[pname] = Var("arg@%d" % next(self.unknown_args))
        return tuple(bindings.items())

    def _eval_value(self, e):
        """The constant ``e`` folds to, or None; see ``_fold``."""
        value, exact = self._fold(e)
        if exact:
            _check_fits(value, e.line)
        return value

    def _fold(self, e) -> tuple:
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
        if isinstance(e, Ident):  # a channel's fact, a bool, is no value
            value = self.facts.get(e.decl)
            return (None if isinstance(value, bool) else value), False
        if isinstance(e, Unary) and e.op == "-":
            value, exact = self._fold(e.operand)
            if value is not None:
                value = -value if exact else _wrap(-value)
            return value, exact
        if isinstance(e, Binary) and e.op in _ARITHMETIC:
            left, left_exact = self._fold(e.left)
            right, right_exact = self._fold(e.right)
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

    def _cond_pred(self, e):
        """The predicate a condition compiles to over its free variables;
        constants fold in."""
        if isinstance(e, BoolLit):
            return TRUE if e.value else FALSE
        if isinstance(e, Ident):
            value = self._eval_value(e)
            if value is not None:
                return TRUE if value else FALSE
            return Cmp(Var(e.name), "=", 1)  # a bare flag reads as "is set"
        if isinstance(e, Unary) and e.op == "!":
            return neg(self._cond_pred(e.operand))
        if isinstance(e, Binary) and e.op == "&&":
            return conj(self._cond_pred(e.left), self._cond_pred(e.right))
        if isinstance(e, Binary) and e.op == "||":
            return disj(self._cond_pred(e.left), self._cond_pred(e.right))
        if isinstance(e, Binary) and e.op in ("==", "!=", "<", "<=", ">", ">="):
            sides = []
            for side in (e.left, e.right):
                value = self._eval_value(side)
                if value is None and not isinstance(side, Ident):
                    raise Unsupported("condition beyond integer/boolean comparisons", side.line)
                sides.append(Var(side.name) if value is None else value)
            op = "=" if e.op in ("==", "!=") else e.op
            out = Cmp(sides[0], op, sides[1])
            return neg(out) if e.op == "!=" else out
        raise Unsupported("condition beyond integer/boolean comparisons", e.line)

    def _chan_elem(self, op) -> str:
        """The element type of the channel a send or receive ``op`` uses, as
        its declaration fixes it; one that may hold nil would block forever,
        and is refused."""
        e = op.chan
        gotype = declared_type(e)
        if not isinstance(gotype, ChanType):
            fn = getattr(e, "fn", e)
            name = "?" if fn.__class__ is Func else getattr(fn, "name", "?")  # a literal shows none
            raise Unsupported("cannot resolve channel %r" % name, e.line)
        if self._nil(e):
            raise Unsupported("channel %r may be nil" % e.name, op.line)
        return concrete_name(gotype.elem)

    def _bind(self, decl, expr):
        """Record in ``facts`` what the flow knows of ``decl`` once it holds
        ``expr``: a channel's "may be nil" (a parameter has no fact, as a call
        site passes no nil channel), or any other's constant value, None when
        another body assigns it, since that body may run between two uses."""
        if isinstance(decl.gotype, ChanType):
            self._set(decl, expr is None or isinstance(expr, NilLit) or self._nil(expr))
        else:
            value = self._eval_value(expr)
            self._set(decl, None if decl in self.shared else value)

    def _nil(self, e) -> bool:
        """Whether ``e`` names a channel that may be nil."""
        return e.__class__ is Ident and self.facts.get(e.decl) is True


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
    warnings = [
        "%d channels share element type %s; channel identity is not tracked, so "
        "operations on them may be conflated" % (count, elem)
        for elem, count in sorted(tr.chan_makes.items()) if count > 1
    ]
    return Translation(cordefs, warnings)


def unresolved_condition_preds(cordefs: dict) -> list:
    """Branch guards still symbolic from ``main``'s perspective, each once.

    One worklist holds the ``(name, bindings)`` calls still to enter, and
    each is entered once: its body, with the call-site bindings applied, is
    walked once, so a guard inside a callee surfaces under the caller's
    variable names.  The guards come in no promised order, and need none:
    ``partition_cases`` gives the same cases for any order of them."""
    guards: dict = {}  # an ordered set
    calls: list = [("main", ())]
    entered: set = set()
    while calls:
        name, bindings = call = calls.pop()
        if name in cordefs and call not in entered:
            entered.add(call)
            # branches needs the canonical form: cor_def built it, substitute keeps it
            _collect_guards(substitute(cordefs[name], dict(bindings)), guards, calls)
    return list(guards)


def _collect_guards(t, guards, calls):
    """Add each guard over a variable in ``t`` to ``guards``, and the
    ``(name, bindings)`` of each application of a reference to ``calls``."""
    if isinstance(t, Union):
        for payload, guard in branches(t):
            if pred_free_vars(guard):
                guards[guard] = None
            _collect_guards(payload, guards, calls)
    elif isinstance(t, (StartApp, InlineApp)) and isinstance(t.target, DefRef):
        calls.append((t.target.name, t.bindings))
    else:
        term_map(t, lambda s: _collect_guards(s, guards, calls))
    return t
