"""Textual syntax for type terms and predicates.

This is the format used by reduction traces, reports, and tests:
``[!A; ?B]`` for instances, ``corDef[...]`` for definitions, ``t / p`` for
constraints, ``(a | b)`` for unions, ``<a, b>`` for sequences, ``0`` for the
empty behavior, and ``Int^n`` for repeated items; in a flow, a union or
sequence may hold directed items: ``[(!A / v ≤ 3 | <?B, !A>)]``.  ``parse``
inverts ``render`` up to canonical form.
"""

from __future__ import annotations

import re

from . import preds, terms
from .preds import And, Binding, Cmp, FALSE, Not, Or, TRUE
from .terms import (
    Concrete,
    Constrained,
    CorDef,
    CorIns,
    DefRef,
    Directed,
    InlineApp,
    Power,
    Seq,
    StartApp,
    Tup,
    Union,
    Var,
    ZERO,
    ZeroType,
)


class NotationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rendering


def render(t) -> str:
    if isinstance(t, ZeroType):
        return "0"
    if isinstance(t, int):
        return str(t)
    if isinstance(t, (Concrete, Var, DefRef)):
        return t.name
    if isinstance(t, Seq):
        return _render_seq(t.items)
    if isinstance(t, Tup):
        return "(%s)" % ", ".join(render(i) for i in t.items)
    if isinstance(t, Union):
        return "(%s | %s)" % (render(t.left), render(t.right))
    if isinstance(t, Power):
        return _power_str(t.base, t.count)
    if isinstance(t, Constrained):
        return "%s / %s" % (render(t.base), render_pred(t.pred))
    if isinstance(t, Directed):
        payload = render(t.payload)
        if isinstance(t.payload, Constrained):
            payload = "(%s)" % payload
        return t.direction + payload
    if isinstance(t, CorIns):
        return _render_flow("[%s]", t)
    if isinstance(t, CorDef):
        return _render_flow("corDef[%s]", t)
    if isinstance(t, StartApp):
        return _render_app("Start", t)
    if isinstance(t, InlineApp):
        return _render_app("Inline", t)
    raise NotationError("cannot render %r" % (t,))


def _render_seq(items) -> str:
    runs = []
    for item in items:
        if runs and runs[-1][0] == item:
            runs[-1][1] += 1
        else:
            runs.append([item, 1])
    if len(runs) == 1 and runs[0][1] >= 2:
        return _power_str(runs[0][0], runs[0][1])
    parts = [
        render(item) if count == 1 else _power_str(item, count)
        for item, count in runs
    ]
    return "<%s>" % ", ".join(parts)


def _power_str(base, count) -> str:
    base_text = render(base)
    if not isinstance(base, (Concrete, Var, int)):
        base_text = "(%s)" % base_text
    return "%s^%s" % (base_text, render(count))


def _render_flow(shape, t) -> str:
    body = shape % "; ".join(render(item) for item in t.flow)
    if t.constraint is None:
        return body
    return "%s / %s" % (body, render_pred(t.constraint))


def _render_app(name, t) -> str:
    if not t.bindings:
        return "%s(%s)" % (name, render(t.target))
    args = ", ".join("%s ↦ %s" % (k, render(v)) for k, v in t.bindings)
    return "%s(%s, %s)" % (name, render(t.target), args)


# the shown spelling of each comparison that has one; the parser also reads
# the ASCII one
_SHOWN = {"<=": "≤", ">=": "≥"}


def render_pred(p) -> str:
    if p is None or isinstance(p, preds.TruePred):
        return "true"
    if isinstance(p, preds.FalsePred):
        return "false"
    if isinstance(p, And):
        return " ∧ ".join(_pred_wrap(i, (Or,)) for i in p.items)
    if isinstance(p, Or):
        return " ∨ ".join(_pred_wrap(i, (And,)) for i in p.items)
    if isinstance(p, Not):
        return "¬%s" % _pred_wrap(p.item, (And, Or, Cmp, Binding))
    if isinstance(p, Cmp):
        return "%s %s %s" % (render(p.lhs), _SHOWN.get(p.op, p.op), render(p.rhs))
    if isinstance(p, Binding):
        return "%s ↦ %s" % (render(p.var), render(p.value))
    raise NotationError("cannot render predicate %r" % (p,))


def _pred_wrap(p, kinds) -> str:
    text = render_pred(p)
    return "(%s)" % text if isinstance(p, kinds) else text


# ---------------------------------------------------------------------------
# parsing

# A token is its text: a name, a decimal integer or an operator, each after
# any blanks.  Any other character but a blank is stray.
_TOKEN_RE = re.compile(
    r"\s*(?:([A-Za-z_][A-Za-z0-9_@]*|\d+|\|->|<=|>=|&&|\|\|"
    r"|[≤≥↦∧∨¬<>=\[\]();,/|!?^-])|(\S))"
)

# the spelling the parser reads of each operator spelt another way: the
# ASCII aliases of the connectives and of ↦, and the shown comparisons
_ALIASES = {"|->": "↦", "&&": "∧", "||": "∨", **{shown: op for op, shown in _SHOWN.items()}}

# the predicate connectives, the loosest first
_CONNECTIVES = (("∨", preds.disj), ("∧", preds.conj))

_APPS = {"Start": StartApp, "Inline": InlineApp}


def _is_name(token) -> bool:
    return token[:1].isidentifier()  # a name starts with a letter or "_"


class _Parser:
    """Recursive descent over the token texts; ``""`` ends the input."""

    def __init__(self, text):
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            token, stray = m.groups()
            if stray is not None:
                raise NotationError("stray character %r at offset %d" % (stray, m.start(2)))
            self.tokens.append(_ALIASES.get(token, token))
        self.tokens.append("")
        self.pos = 0
        self.flows = 0  # how many flows' brackets the parser is inside

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, token):
        if self.tokens[self.pos] == token:
            self.pos += 1
            return True
        return False

    def expect(self, token):
        if not self.accept(token):
            raise NotationError("expected %r, found %r" % (token, self.peek()))

    def some(self, item, sep):
        """``item`` once, then once more after each ``sep``."""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return items

    # -- types ------------------------------------------------------------

    def type_(self):
        t = self.atom()
        while self.accept("/"):
            t = terms.constrained(t, self.pred())
        return t

    def atom(self):
        """A type with no ``/`` constraint, raised to each ``^`` exponent; in
        a flow, also a directed item, as in a union or sequence of items."""
        if self.flows and self.peek() in (terms.YIELD, terms.RECEIVE):
            return Directed(self.take(), self.atom())
        if self.accept("0"):
            t = ZERO
        elif self.accept("corDef"):
            self.expect("[")
            t = self.flow(CorDef)
        elif self.accept("["):
            t = self.flow(CorIns)
        elif self.peek() in _APPS:
            t = self.app(_APPS[self.take()])
        elif self.accept("<"):
            items = self.some(self.type_, ",")
            self.expect(">")
            t = terms.seq(*items)
        elif self.accept("("):
            t = self.group()
        else:
            t = self.scalar("type")
        while self.accept("^"):
            t = terms.power(t, self.count())
        return t

    def count(self):
        token = self.take()
        if token.isdigit():
            return int(token)
        if _is_name(token) and not token[0].isupper():
            return Var(token)
        raise NotationError("exponent must be an integer or a variable, found %r" % token)

    def group(self):
        """After ``(``: the union of two types, a tuple, or one type."""
        items = self.some(self.type_, ",")
        if len(items) == 1 and self.accept("|"):
            items.append(self.type_())
            self.expect(")")
            return terms.union(*items)
        self.expect(")")
        return terms.tup(*items) if len(items) > 1 else items[0]

    def flow(self, cls):
        """After ``[``: the items up to ``]``, then any ``/`` constraint."""
        items = []
        self.flows += 1
        if not self.accept("]"):
            items = self.some(self.type_, ";")
            self.expect("]")
        self.flows -= 1
        constraint = self.pred() if self.accept("/") else None
        return terms.canon(cls(tuple(items), constraint))

    def app(self, cls):
        """After ``Start`` or ``Inline``: ``(target, name ↦ value, ...)``."""
        self.expect("(")
        target = self.type_()
        if isinstance(target, (Var, Concrete)):
            target = DefRef(target.name)
        bindings = []
        while self.accept(","):
            name = self.take()
            if not _is_name(name):
                raise NotationError("expected a variable name in binding")
            self.expect("↦")
            bindings.append((name, self.scalar("binding value")))
        self.expect(")")
        return cls(target, tuple(bindings))

    def scalar(self, what):
        """An integer, a negated integer, or a name: a capitalised name is a
        concrete type, any other a variable.  ``what`` names the expected
        operand in the error."""
        token = self.take()
        if token == "-":
            token = self.take()
            if not token.isdigit():
                raise NotationError("expected an integer after '-'")
            return -int(token)
        if token.isdigit():
            return int(token)
        if _is_name(token):
            return Concrete(token) if token[0].isupper() else Var(token)
        raise NotationError("unexpected token %r in %s" % (token, what))

    # -- predicates --------------------------------------------------------

    def pred(self, level=0):
        """The connective ``_CONNECTIVES[level]`` over predicates that bind
        tighter, down to single atoms."""
        if level == len(_CONNECTIVES):
            return self.pred_atom()
        op, join = _CONNECTIVES[level]
        return join(*self.some(lambda: self.pred(level + 1), op))

    def pred_atom(self):
        if self.accept("¬") or self.accept("!"):
            return preds.neg(self.pred_atom())
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.accept("("):
            p = self.pred()
            self.expect(")")
            return p
        lhs = self.scalar("predicate operand")
        op = self.take()
        if op == "↦":
            if not isinstance(lhs, Var):
                raise NotationError("binding target must be a variable")
            return Binding(lhs, self.scalar("predicate operand"))
        if op not in preds.OPS:
            raise NotationError("expected a comparison, found %r" % op)
        return Cmp(lhs, op, self.scalar("predicate operand"))


def _parse_all(text, rule):
    """``rule`` of ``_Parser`` over the whole of ``text``."""
    parser = _Parser(text)
    out = rule(parser)
    if parser.peek():
        raise NotationError("trailing input at %r" % parser.peek())
    return out


def parse(text: str):
    """Parse a type term; inverse of render up to canonical form."""
    return _parse_all(text, _Parser.type_)


def parse_pred(text: str):
    return _parse_all(text, _Parser.pred)
