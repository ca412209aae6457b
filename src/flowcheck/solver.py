"""Constraint handling: rewriting, collection, matching, satisfiability.

The predicate fragment in scope -- boolean connectives over linear integer
comparisons and equality over a finite symbol universe -- is decided by a
built-in enumerative solver.  Integer variables range over a grid derived
from the comparison constants (wide enough to be exact for order
constraints); symbol variables range over the collected universe.  The
solver splits a query into conjuncts, searches each group of conjuncts that
share variables on its own, and never extends a partial assignment that
already makes the group's conjunction false, so independent guards cost a
sum of searches rather than a product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import terms
from .notation import render, render_pred
from .preds import (
    And,
    Binding,
    Cmp,
    FALSE,
    Not,
    Or,
    TRUE,
    atom_terms,
    cmp,
    conj,
    disj,
    neg,
    pred_atoms,
    pred_evaluate,
    pred_free_vars,
    pred_simplify,
    pred_substitute,
)
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
    ZeroType,
    flatten,
    substitute,
    term_map,
)


class ConstraintError(Exception):
    pass


class DomainConflict(ConstraintError):
    """A variable used both as an integer and as a concrete symbol."""


class _Bottom:
    """No conditions make the two types equal."""

    def __repr__(self):
        return "⊥"


BOTTOM = _Bottom()


@dataclass
class ConditionSet:
    """The outcome of a successful match: uniquely determined variable
    bindings plus whatever predicate remains over the undetermined ones."""

    bindings: dict
    residual: object = TRUE

    def __repr__(self):
        pairs = ", ".join("%s ↦ %s" % (k, render(v)) for k, v in self.bindings.items())
        return "{%s} / %s" % (pairs, render_pred(self.residual))


class Universe:
    """All concrete symbols of one analysis.

    Populated once, before reduction starts; treated as read-only afterwards.
    """

    def __init__(self, symbols=()):
        self.symbols = tuple(sorted(set(symbols)))

    @classmethod
    def collect(cls, *types):
        symbols = set()
        for t in types:
            symbols |= collect_concrete(t)
        return cls(symbols)


def collect_concrete(t) -> set:
    """All concrete type names occurring anywhere in a term."""
    out = set()

    def walk(x):
        if isinstance(x, Concrete):
            out.add(x.name)
        term_map(x, walk, walk_pred)
        return x

    def walk_pred(p):
        for atom in pred_atoms(p):
            for t in atom_terms(atom):
                walk(t)
        return p

    walk(t)
    return out


# ---------------------------------------------------------------------------
# constrained-type rewriting


def reduce_constrained(t):
    """Rewrite constrained types to a fixpoint.

    Rules: a false guard erases the type, a true guard vanishes, stacked
    guards merge, and an ``x ↦ v`` conjunct is applied as a substitution.
    """
    prev = None
    t = flatten(t)
    while t != prev:
        prev = t
        t = _rc_walk(t)
    return t


def _rc_walk(t):
    if isinstance(t, Constrained):
        base, pred = _apply_guard(_rc_walk(t.base), t.pred)
        return base if pred is None else flatten(Constrained(base, pred))
    if isinstance(t, (CorIns, CorDef)) and t.constraint is not None:
        inner = term_map(type(t)(t.flow, None, t.label), _rc_walk)
        body, pred = _apply_guard(inner, t.constraint)
        if isinstance(body, (CorIns, CorDef)):
            return flatten(type(body)(body.flow, pred, body.label))
        return body if pred is None else flatten(Constrained(body, pred))
    return flatten(term_map(t, _rc_walk))


def _apply_guard(base, pred):
    """Run the guard rules on one constrained node; returns (base, pred|None)."""
    while True:
        pred = pred_simplify(pred)
        if pred == FALSE:
            return terms.ZERO, None
        if pred == TRUE:
            return base, None
        binding, rest = _extract_binding(pred)
        if binding is None:
            return base, pred
        name, value = binding
        base = substitute(base, {name: value})
        pred = pred_substitute(rest, {name: value})


def _extract_binding(pred):
    if isinstance(pred, Binding) and isinstance(pred.value, (int, Concrete, Var)):
        return (pred.var.name, pred.value), TRUE
    if isinstance(pred, And):
        for k, item in enumerate(pred.items):
            if isinstance(item, Binding) and isinstance(item.value, (int, Concrete, Var)):
                rest = conj(*(pred.items[:k] + pred.items[k + 1 :]))
                return (item.var.name, item.value), rest
    return None, pred


# ---------------------------------------------------------------------------
# structural equality compiled to a predicate


def equate(a, b):
    """A predicate equivalent to "a and b denote the same type".

    Symmetric in its arguments.  Sequences align positionally; a symbolic
    power aligns with another power, with a run of equal items, or with a
    single item.  A variable may only equal a symbol, an integer, or another
    variable -- anything structured yields false.
    """
    a, b = flatten(a), flatten(b)
    if isinstance(a, Constrained):
        return conj(equate(a.base, b), a.pred)
    if isinstance(b, Constrained):
        return conj(equate(a, b.base), b.pred)
    if isinstance(a, Union):
        return disj(equate(a.left, b), equate(a.right, b))
    if isinstance(b, Union):
        return disj(equate(a, b.left), equate(a, b.right))
    if isinstance(a, Var) or isinstance(b, Var):
        v, other = (a, b) if isinstance(a, Var) else (b, a)
        if isinstance(other, Var):
            return TRUE if v.name == other.name else cmp(v, "=", other)
        if isinstance(other, (Concrete, int)):
            return cmp(v, "=", other)
        return FALSE  # a variable never equals a structured type or Zero
    if isinstance(a, Power) or isinstance(b, Power):
        return _equate_power(a, b)
    if isinstance(a, ZeroType) or isinstance(b, ZeroType):
        return TRUE if type(a) is type(b) else FALSE
    if isinstance(a, int) or isinstance(b, int):
        return TRUE if a == b else FALSE
    if isinstance(a, Concrete) and isinstance(b, Concrete):
        return TRUE if a.name == b.name else FALSE
    if isinstance(a, (Seq, Tup)) and type(a) is type(b):
        if len(a.items) != len(b.items):
            return FALSE
        return conj(*(equate(x, y) for x, y in zip(a.items, b.items)))
    if isinstance(a, Directed) and isinstance(b, Directed):
        if a.direction != b.direction:
            return FALSE
        return equate(a.payload, b.payload)
    if type(a) is type(b) and isinstance(a, (CorIns, CorDef)):
        if len(a.flow) != len(b.flow):
            return FALSE
        parts = [equate(x, y) for x, y in zip(a.flow, b.flow)]
        for side in (a, b):
            if side.constraint is not None:
                parts.append(side.constraint)
        return conj(*parts)
    if isinstance(a, DefRef) and isinstance(b, DefRef):
        return TRUE if a.name == b.name else FALSE
    if type(a) is type(b) and isinstance(a, (StartApp, InlineApp)):
        return TRUE if a == b else FALSE
    return FALSE


def _equate_power(a, b):
    if isinstance(a, Power) and isinstance(b, Power):
        return conj(equate(a.base, b.base), cmp(a.count, "=", b.count))
    p, other = (a, b) if isinstance(a, Power) else (b, a)
    if isinstance(other, ZeroType):
        return cmp(p.count, "=", 0)
    if isinstance(other, Seq):
        parts = [equate(p.base, item) for item in other.items]
        parts.append(cmp(p.count, "=", len(other.items)))
        return conj(*parts)
    return conj(equate(p.base, other), cmp(p.count, "=", 1))


# ---------------------------------------------------------------------------
# satisfiability over the finite fragment

INT = "int"
SYM = "sym"


def _infer_domains(expr, universe: Universe):
    """Assign each variable an integer or symbol domain, scanning atoms in
    order; a conflicting later use raises DomainConflict."""
    domain: dict[str, str] = {}
    groups: dict[str, str] = {}  # union-find parent by name

    def find(name):
        while groups.get(name, name) != name:
            name = groups[name]
        return name

    def assign(name, dom, why):
        root = find(name)
        have = domain.get(root)
        if have is None:
            domain[root] = dom
        elif have != dom:
            raise DomainConflict("%s used as %s and %s (%s)" % (name, have, dom, why))

    def merge(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        dx, dy = domain.get(rx), domain.get(ry)
        if dx and dy and dx != dy:
            raise DomainConflict("%s and %s have different domains" % (x, y))
        groups[ry] = rx
        if dy and not dx:
            domain[rx] = dy
        domain.pop(ry, None)

    def atom(lhs, op, rhs, why):
        if isinstance(lhs, Var) and isinstance(rhs, Var):
            merge(lhs.name, rhs.name)
            return
        for var, other in ((lhs, rhs), (rhs, lhs)):
            if not isinstance(var, Var):
                continue
            if isinstance(other, int):
                assign(var.name, INT, why)
            elif isinstance(other, Concrete):
                if op != "=":
                    raise DomainConflict(
                        "symbol %s under ordering comparison" % other.name
                    )
                assign(var.name, SYM, why)

    for p in pred_atoms(expr):
        if isinstance(p, Cmp):
            if p.op != "=":
                for side in (p.lhs, p.rhs):
                    if isinstance(side, Var):
                        assign(side.name, INT, "ordering comparison")
                    elif isinstance(side, Concrete):
                        raise DomainConflict(
                            "symbol %s under ordering comparison" % side.name
                        )
            atom(p.lhs, p.op, p.rhs, "comparison")
        else:
            atom(p.var, "=", p.value, "binding")
    out = {}
    for name in pred_free_vars(expr):
        dom = domain.get(find(name))
        if dom is None:
            dom = SYM if universe.symbols else INT
        out[name] = dom
    return out


def _int_constants(expr):
    return {t for a in pred_atoms(expr) for t in atom_terms(a) if isinstance(t, int)}


def _conjuncts(p):
    """The conjuncts of a predicate: the items of an ``And`` and the negated
    disjuncts of a negated ``Or``, recursively."""
    if isinstance(p, And):
        for item in p.items:
            yield from _conjuncts(item)
    elif isinstance(p, Not) and isinstance(p.item, Or):
        for item in p.item.items:
            yield from _conjuncts(neg(item))
    else:
        yield p


def _groups(expr):
    """The conjuncts of ``expr`` joined by shared free variables, as
    ``[(sorted names, their conjunction)]``; ground conjuncts come first,
    in a group with no names."""
    parent: dict[str, str] = {}

    def find(name):
        while parent[name] != name:
            name = parent[name]
        return name

    parts = [(c, pred_free_vars(c)) for c in _conjuncts(expr)]
    for _, names in parts:
        for name in names:
            parent.setdefault(name, name)
        for other in names[1:]:
            parent[find(other)] = find(names[0])
    groups: dict = {}
    for c, names in parts:
        groups.setdefault(find(names[0]) if names else "", []).append((c, names))
    return [
        (sorted({n for _, names in members for n in names}),
         conj(*(c for c, _ in members)))
        for _, members in sorted(groups.items())
    ]


def solve(expr, universe: Universe):
    """Find a satisfying assignment (name -> int | Concrete), or None.

    The conjuncts of the query are split into groups that share no
    variable, and each group is searched on its own: its variables are
    assigned in sorted name order, candidate values in ascending /
    lexicographic order.  After each assignment the group's conjunction is
    evaluated in three values (true, false, or open while a variable is
    unassigned), and a partial assignment that already makes it false is
    never extended.  Ground conjuncts are checked once.  The satisfying set
    is the product of the groups' sets, so the merged witness (in sorted
    name order) is the first one a search over all variables at once would
    find: deterministic, the same expression always yields the same
    witness.
    """
    expr = pred_simplify(expr)
    if expr == TRUE:
        return {}
    if expr == FALSE:
        return None
    domains = _infer_domains(expr, universe)
    # Order constraints never force a variable further than the number of
    # variables away from a mentioned constant, so this grid is exact.
    pad = len([d for d in domains.values() if d == INT]) + 1
    consts = _int_constants(expr) or {0}
    grid = sorted({c + d for c in consts for d in range(-pad, pad + 1)})
    sym_values = [Concrete(s) for s in universe.symbols]
    witness: dict = {}
    for names, check in _groups(expr):
        found = _search(
            names, [grid if domains[n] == INT else sym_values for n in names], check
        )
        if found is None:
            return None
        witness.update(found)
    return {name: witness[name] for name in sorted(witness)}


def _search(names, candidates, check):
    """The first assignment of ``names`` in candidate order under which
    ``check`` holds, or None.  ``check`` is evaluated in three values after
    each name is assigned, and an assignment that already makes it false
    is never extended."""
    assignment: dict = {}

    def extend(k):
        if pred_evaluate(check, assignment) is False:
            return False
        if k == len(names):
            return True
        for value in candidates[k]:
            assignment[names[k]] = value
            if extend(k + 1):
                return True
        assignment.pop(names[k], None)
        return False

    return dict(assignment) if extend(0) else None


def unique_bindings(expr, interp: dict, universe: Universe) -> ConditionSet:
    """Split a satisfying assignment into pinned bindings and a residual.

    A variable is pinned only when re-solving with its value excluded fails;
    otherwise it stays symbolic and its constraints remain in the residual.
    """
    bindings = {}
    for name in sorted(interp):
        value = interp[name]
        excluded = conj(expr, neg(Cmp(Var(name), "=", value)))
        if solve(excluded, universe) is None:
            bindings[name] = value
    residual = pred_simplify(pred_substitute(expr, bindings))
    return ConditionSet(bindings, pred_canonical(residual))


def pred_canonical(p):
    """Sort n-ary connectives by rendered text, for stable, symmetric output."""
    if isinstance(p, And):
        items = tuple(sorted((pred_canonical(i) for i in p.items), key=render_pred))
        return conj(*items)
    if isinstance(p, Or):
        items = tuple(sorted((pred_canonical(i) for i in p.items), key=render_pred))
        return disj(*items)
    if isinstance(p, Not):
        return neg(pred_canonical(p.item))
    return p


def match(pending, pattern, universe: Universe):
    """Unify two (possibly constrained) types; commutative.

    Returns a ConditionSet on success and BOTTOM when no assignment over the
    universe makes the types equal.
    """
    a = reduce_constrained(flatten(pending))
    b = reduce_constrained(flatten(pattern))
    a, rho1 = _strip(a)
    b, rho2 = _strip(b)
    expr = pred_simplify(conj(equate(a, b), rho1, rho2))
    if expr == FALSE:
        return BOTTOM
    if expr == TRUE:
        return ConditionSet({}, TRUE)
    if not pred_free_vars(expr):
        ok = pred_evaluate(expr, {})
        return ConditionSet({}, TRUE) if ok else BOTTOM
    interp = solve(expr, universe)
    if interp is None:
        return BOTTOM
    return unique_bindings(expr, interp, universe)


def _strip(t):
    if isinstance(t, Constrained):
        return t.base, t.pred
    return t, TRUE


# ---------------------------------------------------------------------------
# partitioning of unresolved integer conditions


@dataclass
class Case:
    """One analysis case: an assumption under which every branch predicate
    in the program has a fixed truth value, kept in ``valuation``."""

    assumption: object
    label: str
    valuation: dict = field(default_factory=dict)


def partition_cases(predicates) -> list[Case]:
    """Split the integer line so every given predicate is constant per case.

    Cells with identical predicate valuations merge into a single case, so
    e.g. two guard intervals over one variable yield at most four cases.
    Each case keeps its valuation, where the engine reads these guards.
    Every variable is an integer: a comparison against anything but an
    integer constant raises ``ConstraintError``.
    """
    predicates = [pred_simplify(p) for p in predicates]
    names = sorted({n for p in predicates for n in pred_free_vars(p)})
    if not names:
        return [Case(TRUE, "")]

    def boundaries(var):
        points = set()
        for q in (a for p in predicates for a in pred_atoms(p)):
            if not isinstance(q, Cmp):
                continue
            if Var(var) not in (q.lhs, q.rhs):
                continue
            oriented = cmp(q.lhs, q.op, q.rhs)  # var-op-const
            const, op = oriented.rhs, oriented.op
            if not isinstance(const, int):
                raise ConstraintError(
                    "cannot partition %s: comparison against a non-constant" % var
                )
            if op in ("<", ">="):
                points.add(const)
            elif op in ("<=", ">"):
                points.add(const + 1)
            else:  # equality flips entering and leaving the value
                points.add(const)
                points.add(const + 1)
        return sorted(points)

    def intervals(var):
        pts = boundaries(var)
        if not pts:
            return [(None, None)]
        out = [(None, pts[0] - 1)]
        for lo, nxt in zip(pts, pts[1:]):
            out.append((lo, nxt - 1))
        out.append((pts[-1], None))
        return out

    def interval_pred(var, lo, hi):
        v = Var(var)
        if lo is None and hi is None:
            return TRUE
        if lo is None:
            return Cmp(v, "<=", hi)
        if hi is None:
            return Cmp(v, ">=", lo)
        if lo == hi:
            return Cmp(v, "=", lo)
        return conj(Cmp(v, ">=", lo), Cmp(v, "<=", hi))

    grouped: dict[tuple, list] = {}  # valuation -> cells, first seen first
    for cell in product(*(intervals(n) for n in names)):
        # each interval is represented by its lower end, else its upper end
        assignment = {
            n: lo if lo is not None else hi if hi is not None else 0
            for n, (lo, hi) in zip(names, cell)
        }
        valuation = tuple(pred_evaluate(p, assignment) for p in predicates)
        grouped.setdefault(valuation, []).append(cell)

    cases = []
    for valuation, members in grouped.items():
        parts = [
            conj(*(interval_pred(n, lo, hi) for n, (lo, hi) in zip(names, cell)))
            for cell in members
        ]
        assumption = disj(*parts)
        label = render_pred(assumption)
        cases.append(Case(assumption, label, dict(zip(predicates, valuation))))
    return cases

