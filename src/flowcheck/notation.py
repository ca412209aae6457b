"""Textual syntax for type terms and predicates.

This is the format used by reduction traces, reports, and tests:
``[!A; ?B]`` for instances, ``corDef[...]`` for definitions, ``t / p`` for
constraints, ``(a | b)`` for unions, ``<a, b>`` for sequences, ``0`` for the
empty behavior, and ``Int^n`` for repeated items.  ``parse`` inverts
``render`` up to canonical form.
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


def render_pred(p) -> str:
    if p is None:
        return "true"
    if isinstance(p, preds.TruePred):
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
        shown = {"<=": "≤", ">=": "≥"}.get(p.op, p.op)
        return "%s %s %s" % (render(p.lhs), shown, render(p.rhs))
    if isinstance(p, Binding):
        return "%s ↦ %s" % (render(p.var), render(p.value))
    raise NotationError("cannot render predicate %r" % (p,))


def _pred_wrap(p, kinds) -> str:
    text = render_pred(p)
    return "(%s)" % text if isinstance(p, kinds) else text


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_@]*)
  | (?P<int>\d+)
  | (?P<op>\|->|<=|>=|&&|\|\||[≤≥↦∧∨¬<>=\[\]();,/|!?^-])
    """,
    re.VERBOSE,
)

_ALIASES = {"<=": "≤", ">=": "≥", "|->": "↦", "&&": "∧", "||": "∨"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise NotationError("stray character %r at offset %d" % (text[pos], pos))
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        if m.lastgroup == "op":
            value = _ALIASES.get(value, value)
        tokens.append((m.lastgroup, value))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, value):
        if self.peek()[1] == value and self.peek()[0] != "name":
            self.pos += 1
            return True
        return False

    def accept_name(self, value):
        if self.peek() == ("name", value):
            self.pos += 1
            return True
        return False

    def expect(self, value):
        kind, got = self.next()
        if got != value:
            raise NotationError("expected %r, found %r" % (value, got))

    # -- types ------------------------------------------------------------

    def type_(self):
        t = self.atom()
        while self.accept("/"):
            t = terms.constrained(t, self.pred_or())
        return t

    def atom(self):
        base = self.atom_no_power()
        while self.accept("^"):
            base = terms.power(base, self.count())
        return base

    def count(self):
        kind, value = self.next()
        if kind == "int":
            return int(value)
        if kind == "name" and not value[0].isupper():
            return Var(value)
        raise NotationError("exponent must be an integer or a variable, found %r" % value)

    def atom_no_power(self):
        kind, value = self.peek()
        if self.accept("0"):
            return ZERO
        if self.accept_name("corDef"):
            return self.flow_body(CorDef)
        if self.accept_name("Start"):
            return self.app_body(StartApp)
        if self.accept_name("Inline"):
            return self.app_body(InlineApp)
        if kind in ("int", "name") or value == "-":
            return self.scalar("type")
        if self.accept("["):
            return self.flow_items(CorIns)
        if self.accept("<"):
            items = [self.type_()]
            while self.accept(","):
                items.append(self.type_())
            self.expect(">")
            return terms.seq(*items)
        if self.accept("("):
            t = self.type_()
            if self.accept("|"):
                right = self.type_()
                self.expect(")")
                return terms.union(t, right)
            if self.peek()[1] == ",":
                items = [t]
                while self.accept(","):
                    items.append(self.type_())
                self.expect(")")
                return terms.tup(*items)
            self.expect(")")
            return t
        raise NotationError("unexpected token %r in type" % value)

    def flow_body(self, cls):
        self.expect("[")
        return self.flow_items(cls)

    def flow_items(self, cls):
        items = []
        if not self.accept("]"):
            items.append(self.flow_item())
            while self.accept(";"):
                items.append(self.flow_item())
            self.expect("]")
        constraint = None
        if self.accept("/"):
            constraint = self.pred_or()
        return terms.canon(cls(tuple(items), constraint))

    def flow_item(self):
        if self.accept("!"):
            return Directed(terms.YIELD, self.atom())
        if self.accept("?"):
            return Directed(terms.RECEIVE, self.atom())
        return self.type_()

    def app_body(self, cls):
        self.expect("(")
        target = self.type_()
        if isinstance(target, (Var, Concrete)):
            target = DefRef(target.name)
        bindings = []
        while self.accept(","):
            kind, name = self.next()
            if kind != "name":
                raise NotationError("expected a variable name in binding")
            self.expect("↦")
            bindings.append((name, self.scalar("binding value")))
        self.expect(")")
        return cls(target, tuple(bindings))

    def scalar(self, what):
        """An integer, a negated integer, or a name: a capitalised name is a
        concrete type, any other a variable.  ``what`` names the expected
        operand in the error."""
        kind, value = self.peek()
        if kind == "int":
            self.next()
            return int(value)
        if self.accept("-"):
            kind, value = self.next()
            if kind != "int":
                raise NotationError("expected an integer after '-'")
            return -int(value)
        if kind == "name":
            self.next()
            return Concrete(value) if value[0].isupper() else Var(value)
        raise NotationError("bad %s %r" % (what, value))

    # -- predicates --------------------------------------------------------

    def pred_or(self):
        items = [self.pred_and()]
        while self.accept("∨"):
            items.append(self.pred_and())
        return preds.disj(*items)

    def pred_and(self):
        items = [self.pred_not()]
        while self.accept("∧"):
            items.append(self.pred_not())
        return preds.conj(*items)

    def pred_not(self):
        if self.accept("¬") or self.accept("!"):
            return preds.neg(self.pred_not())
        return self.pred_atom()

    def pred_atom(self):
        if self.accept_name("true"):
            return TRUE
        if self.accept_name("false"):
            return FALSE
        if self.accept("("):
            p = self.pred_or()
            self.expect(")")
            return p
        lhs = self.pred_term()
        kind, op = self.next()
        if op == "↦":
            if not isinstance(lhs, Var):
                raise NotationError("binding target must be a variable")
            return Binding(lhs, self.pred_term())
        if op in ("≤", "≥"):
            op = {"≤": "<=", "≥": ">="}[op]
        if op not in preds.OPS:
            raise NotationError("expected a comparison, found %r" % op)
        return Cmp(lhs, op, self.pred_term())

    def pred_term(self):
        return self.scalar("predicate operand")


def parse(text: str):
    """Parse a type term; inverse of render up to canonical form."""
    parser = _Parser(text)
    t = parser.type_()
    if parser.peek()[0] != "eof":
        raise NotationError("trailing input at %r" % (parser.peek()[1],))
    return t


def parse_pred(text: str):
    parser = _Parser(text)
    p = parser.pred_or()
    if parser.peek()[0] != "eof":
        raise NotationError("trailing input at %r" % (parser.peek()[1],))
    return p
