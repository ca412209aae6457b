"""The predicate language attached to constrained types.

Predicates guard union branches and travel with matched values: boolean
connectives over integer comparisons, symbol equality and explicit variable
bindings.  Atom operands are variables, plain Python ints, or Concrete
symbols from the term module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Concrete, Var

OPS = ("<", "<=", "=", ">=", ">")
_FLIP = {"<": ">", "<=": ">=", "=": "=", ">=": "<=", ">": "<"}
_NEGATE = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}


class Pred:
    """Every predicate node shows itself in the notation of
    ``notation.render_pred``."""

    def __repr__(self):
        from .notation import render_pred  # notation builds on this module

        return render_pred(self)


@dataclass(frozen=True, repr=False)
class TruePred(Pred):
    """The predicate that always holds."""


@dataclass(frozen=True, repr=False)
class FalsePred(Pred):
    """The predicate that never holds."""


TRUE = TruePred()
FALSE = FalsePred()


@dataclass(frozen=True, repr=False)
class And(Pred):
    items: tuple


@dataclass(frozen=True, repr=False)
class Or(Pred):
    items: tuple


@dataclass(frozen=True, repr=False)
class Not(Pred):
    item: object


@dataclass(frozen=True, repr=False)
class Cmp(Pred):
    lhs: object
    op: str
    rhs: object


@dataclass(frozen=True, repr=False)
class Binding(Pred):
    """The predicate form of ``x ↦ v``; consumed by constraint rewriting."""

    var: Var
    value: object


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
    if not isinstance(lhs, Var) and isinstance(rhs, Var):
        lhs, op, rhs = rhs, _FLIP[op], lhs
    elif isinstance(lhs, Var) and isinstance(rhs, Var) and rhs.name < lhs.name:
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
            if isinstance(t, Var) and t.name not in out:
                out.append(t.name)
    return out


def pred_substitute(p, binding: dict):
    """Replace bound variables in a predicate, then fold ground atoms."""

    def sub_term(t):
        if isinstance(t, Var):
            return binding.get(t.name, t)
        return t

    def atom(q):
        if isinstance(q, Cmp):
            return _fold_cmp(Cmp(sub_term(q.lhs), q.op, sub_term(q.rhs)))
        lhs = sub_term(q.var)
        rhs = sub_term(q.value)
        if isinstance(lhs, Var):
            return Binding(lhs, rhs)
        return _fold_cmp(Cmp(lhs, "=", rhs))

    return pred_map(p, atom)


def _fold_cmp(c):
    lhs, rhs = c.lhs, c.rhs
    if isinstance(lhs, int) and isinstance(rhs, int):
        return TRUE if _cmp_ints(lhs, c.op, rhs) else FALSE
    if isinstance(lhs, Concrete) and isinstance(rhs, Concrete):
        if c.op == "=":
            return TRUE if lhs == rhs else FALSE
    if isinstance(lhs, Var) and lhs == rhs:
        return FALSE if c.op in ("<", ">") else TRUE
    return c


def _cmp_ints(a, op, b):
    return {
        "<": a < b,
        "<=": a <= b,
        "=": a == b,
        ">=": a >= b,
        ">": a > b,
    }[op]


def pred_evaluate(p, assignment: dict):
    """Evaluate a predicate under an assignment (name -> int | Concrete) in
    three values: True, False, or None while an unassigned variable can
    still tip it either way.  Under a full assignment it is True or False."""

    def term(t):
        return assignment.get(t.name) if isinstance(t, Var) else t

    def walk(q):
        if isinstance(q, TruePred):
            return True
        if isinstance(q, FalsePred):
            return False
        if isinstance(q, (And, Or)):
            # the first item with the deciding value settles it; an open
            # item otherwise leaves it open
            decides = isinstance(q, Or)
            result = not decides
            for item in q.items:
                value = walk(item)
                if value is decides:
                    return decides
                if value is None:
                    result = None
            return result
        if isinstance(q, Not):
            value = walk(q.item)
            return None if value is None else not value
        if isinstance(q, (Cmp, Binding)):
            if isinstance(q, Binding):
                lhs, op, rhs = term(q.var), "=", term(q.value)
            else:
                lhs, op, rhs = term(q.lhs), q.op, term(q.rhs)
            if lhs is None or rhs is None:
                return None
            if isinstance(lhs, int) and isinstance(rhs, int):
                return _cmp_ints(lhs, op, rhs)
            if isinstance(lhs, Concrete) and isinstance(rhs, Concrete):
                if op != "=":
                    raise ValueError("symbols admit equality only: %r" % (q,))
                return lhs == rhs
            return False
        raise TypeError("not a predicate: %r" % (q,))

    return walk(p)


def pred_simplify(p):
    """Fold every ground subformula down to true/false."""

    def atom(q):
        if isinstance(q, Cmp):
            return _fold_cmp(q)
        if isinstance(q.value, Var) and q.value.name == q.var.name:
            return TRUE
        return q

    return pred_map(p, atom)
