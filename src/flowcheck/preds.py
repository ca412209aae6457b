"""The predicate language attached to constrained types.

Predicates guard union branches and travel with matched values: boolean
connectives over integer comparisons, symbol equality and explicit variable
bindings.  Atom operands are variables, plain Python ints, or Concrete
symbols from the term module.
"""

from __future__ import annotations

import operator

from . import terms
from .record import Record

# the comparison each operator names, on two ints
_COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge,
            ">": operator.gt}
OPS = tuple(_COMPARE)
_FLIP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}
_NEGATE = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}


class Pred(Record):
    """Every predicate node shows itself in the notation of
    ``notation.render_pred``."""

    __slots__ = ()

    def __repr__(self):
        from .notation import render_pred  # notation builds on this module

        return render_pred(self)


class TruePred(Pred):
    """The predicate that always holds."""

    __slots__ = ()


class FalsePred(Pred):
    """The predicate that never holds."""

    __slots__ = ()


TRUE = TruePred()
FALSE = FalsePred()


class And(Pred):
    __slots__ = ("items",)


class Or(Pred):
    __slots__ = ("items",)


class Not(Pred):
    __slots__ = ("item",)


class Cmp(Pred):
    __slots__ = ("lhs", "op", "rhs")


class Binding(Pred):
    """The predicate form of ``x ↦ v``; consumed by constraint rewriting."""

    __slots__ = ("var", "value")


# ---------------------------------------------------------------------------
# smart constructors; these keep connectives in flattened n-ary form


def conj(*preds):
    items = []
    for p in preds:
        if isinstance(p, TruePred):
            continue
        if isinstance(p, FalsePred):
            return FALSE
        if isinstance(p, And):
            items.extend(p.items)
        else:
            items.append(p)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def disj(*preds):
    items = []
    for p in preds:
        if isinstance(p, FalsePred):
            continue
        if isinstance(p, TruePred):
            return TRUE
        if isinstance(p, Or):
            items.extend(p.items)
        else:
            items.append(p)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))


def neg(p):
    if isinstance(p, TruePred):
        return FALSE
    if isinstance(p, FalsePred):
        return TRUE
    if isinstance(p, Not):
        return p.item
    if isinstance(p, Cmp) and p.op in _NEGATE:
        return Cmp(p.lhs, _NEGATE[p.op], p.rhs)
    return Not(p)


def cmp(lhs, op, rhs):
    if op not in OPS:
        raise ValueError("unknown comparison operator %r" % op)
    # canonical orientation: a variable goes on the left when possible
    if not isinstance(lhs, terms.Var) and isinstance(rhs, terms.Var):
        lhs, op, rhs = rhs, _FLIP[op], lhs
    elif isinstance(lhs, terms.Var) and isinstance(rhs, terms.Var) and rhs.name < lhs.name:
        lhs, op, rhs = rhs, _FLIP[op], lhs
    return Cmp(lhs, op, rhs)


# ---------------------------------------------------------------------------
# traversal and evaluation


def pred_atoms(p):
    """The comparison and binding atoms of a predicate, left to right."""
    if isinstance(p, (And, Or)):
        for item in p.items:
            yield from pred_atoms(item)
    elif isinstance(p, Not):
        yield from pred_atoms(p.item)
    elif isinstance(p, (Cmp, Binding)):
        yield p


def atom_terms(a) -> tuple:
    """The operands of one atom, in order."""
    if isinstance(a, Cmp):
        return (a.lhs, a.rhs)
    return (a.var, a.value)


def pred_map(p, atom_fn):
    """Rebuild a predicate with ``atom_fn`` applied to every atom; the smart
    constructors fold whatever constants that produces."""
    if isinstance(p, (TruePred, FalsePred)):
        return p
    if isinstance(p, And):
        return conj(*(pred_map(i, atom_fn) for i in p.items))
    if isinstance(p, Or):
        return disj(*(pred_map(i, atom_fn) for i in p.items))
    if isinstance(p, Not):
        return neg(pred_map(p.item, atom_fn))
    if isinstance(p, (Cmp, Binding)):
        return atom_fn(p)
    raise TypeError("not a predicate: %r" % (p,))


def pred_free_vars(p):
    """Variable names occurring in a predicate, in first-occurrence order."""
    out = []
    for atom in pred_atoms(p):
        for t in atom_terms(atom):
            if isinstance(t, terms.Var) and t.name not in out:
                out.append(t.name)
    return out


def pred_substitute(p, binding: dict):
    """Replace bound variables in a predicate, then fold ground atoms."""

    def sub_term(t):
        if isinstance(t, terms.Var):
            return binding.get(t.name, t)
        return t

    def atom(q):
        if isinstance(q, Cmp):
            return _fold_cmp(Cmp(sub_term(q.lhs), q.op, sub_term(q.rhs)))
        lhs = sub_term(q.var)
        rhs = sub_term(q.value)
        if isinstance(lhs, terms.Var):
            return Binding(lhs, rhs)
        return _fold_cmp(Cmp(lhs, "=", rhs))

    return pred_map(p, atom)


def _fold_cmp(c):
    lhs, rhs = c.lhs, c.rhs
    if isinstance(lhs, int) and isinstance(rhs, int):
        return TRUE if _COMPARE[c.op](lhs, rhs) else FALSE
    if isinstance(lhs, terms.Concrete) and isinstance(rhs, terms.Concrete):
        if c.op == "=":
            return TRUE if lhs == rhs else FALSE
    if isinstance(lhs, terms.Var) and lhs == rhs:
        return FALSE if c.op in ("<", ">") else TRUE
    return c


def pred_evaluate(p, assignment: dict):
    """Evaluate a predicate under an assignment (name -> int | Concrete) in
    three values: True, False, or None while an unassigned variable can
    still tip it either way.  Under a full assignment it is True or False."""
    if isinstance(p, TruePred):
        return True
    if isinstance(p, FalsePred):
        return False
    if isinstance(p, (And, Or)):
        # the first item with the deciding value settles it; an open item
        # otherwise leaves it open
        decides = isinstance(p, Or)
        result = not decides
        for item in p.items:
            value = pred_evaluate(item, assignment)
            if value is decides:
                return decides
            if value is None:
                result = None
        return result
    if isinstance(p, Not):
        value = pred_evaluate(p.item, assignment)
        return None if value is None else not value
    if isinstance(p, (Cmp, Binding)):
        lhs, op, rhs = (p.var, "=", p.value) if isinstance(p, Binding) else (p.lhs, p.op, p.rhs)
        if isinstance(lhs, terms.Var):
            lhs = assignment.get(lhs.name)
        if isinstance(rhs, terms.Var):
            rhs = assignment.get(rhs.name)
        if lhs is None or rhs is None:
            return None
        if isinstance(lhs, int) and isinstance(rhs, int):
            return _COMPARE[op](lhs, rhs)
        if isinstance(lhs, terms.Concrete) and isinstance(rhs, terms.Concrete):
            if op != "=":
                raise ValueError("symbols admit equality only: %r" % (p,))
            return lhs == rhs
        return False
    raise TypeError("not a predicate: %r" % (p,))


def pred_simplify(p):
    """Fold every ground subformula down to true/false."""

    def atom(q):
        if isinstance(q, Cmp):
            return _fold_cmp(q)
        if isinstance(q.value, terms.Var) and q.value.name == q.var.name:
            return TRUE
        return q

    return pred_map(p, atom)
