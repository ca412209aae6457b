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

from itertools import product

from . import terms
from .notation import render, render_pred
from .record import Record
from .preds import (
    And,
    Binding,
    Cmp,
    FALSE,
    Not,
    Or,
    Pred,
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
    canon,
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


class ConditionSet(Record):
    """The outcome of a successful match: uniquely determined variable
    bindings plus whatever predicate remains over the undetermined ones."""

    __slots__ = ("bindings", "residual")
    _defaults = {"residual": TRUE}

    def __repr__(self):
        pairs = ", ".join("%s ↦ %s" % (k, render(v)) for k, v in self.bindings.items())
        return "{%s} / %s" % (pairs, render_pred(self.residual))


class Universe:
    """The sorted concrete symbols that symbol variables range over."""

    def __init__(self, symbols=()):
        self.symbols = tuple(sorted(set(symbols)))

    @classmethod
    def collect(cls, *parts):
        """The universe of the symbols in ``parts``, terms or predicates."""
        return cls(set().union(*map(collect_concrete, parts)))


universe_of = Universe.collect  # what the engine collects a guard's universe with


def collect_concrete(t) -> set:
    """All concrete type names occurring anywhere in a term or predicate."""
    out = set()
    _collect_concrete(t, out)
    return out


def _collect_concrete(t, out):
    """Add the concrete names in ``t``, a term or a predicate, to ``out``."""
    if isinstance(t, Pred):
        for atom in pred_atoms(t):
            for s in atom_terms(atom):
                _collect_concrete(s, out)
    elif isinstance(t, Concrete):
        out.add(t.name)
    else:
        term_map(t, lambda s: _collect_concrete(s, out), lambda p: _collect_concrete(p, out))
    return t


# ---------------------------------------------------------------------------
# constrained-type rewriting


def reduce_constrained(t):
    """Rewrite constrained types to a fixpoint.

    Rules: a false guard erases the type, a true guard vanishes, stacked
    guards merge, and an ``x ↦ v`` conjunct is applied as a substitution.
    The term is flattened once; each pass keeps it canonical.
    """
    prev = None
    t = flatten(t)
    while t != prev:
        prev = t
        t = _rc_walk(t)
    return t


def _rc_walk(t):
    """One rewriting pass over a canonical term; the result is canonical."""
    if isinstance(t, Constrained):
        base, pred = _apply_guard(_rc_walk(t.base), t.pred)
        return base if pred is None else canon(Constrained(base, pred))
    if isinstance(t, (CorIns, CorDef)) and t.constraint is not None:
        inner = canon(term_map(type(t)(t.flow, None, t.label), _rc_walk))
        body, pred = _apply_guard(inner, t.constraint)
        return body if pred is None else canon(Constrained(body, pred))
    rebuilt = term_map(t, _rc_walk)
    return t if rebuilt is t else canon(rebuilt)


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
    items = pred.items if isinstance(pred, And) else (pred,)
    for k, item in enumerate(items):
        if isinstance(item, Binding) and isinstance(item.value, (int, Concrete, Var)):
            return (item.var.name, item.value), conj(*items[:k], *items[k + 1 :])
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
    return _equate(flatten(a), flatten(b))


# Leaves equal only when identical; an application is opaque until started.
_OPAQUE = (ZeroType, int, Concrete, DefRef, StartApp, InlineApp)


def _equate(a, b):
    """``equate`` on canonical terms."""
    if isinstance(a, Constrained):
        return conj(_equate(a.base, b), a.pred)
    if isinstance(b, Constrained):
        return conj(_equate(a, b.base), b.pred)
    if isinstance(a, Union):
        return disj(_equate(a.left, b), _equate(a.right, b))
    if isinstance(b, Union):
        return disj(_equate(a, b.left), _equate(a, b.right))
    if isinstance(a, Var) or isinstance(b, Var):
        v, other = (a, b) if isinstance(a, Var) else (b, a)
        if isinstance(other, Var):
            return TRUE if v.name == other.name else cmp(v, "=", other)
        if isinstance(other, (Concrete, int)):
            return cmp(v, "=", other)
        return FALSE  # a variable never equals a structured type or Zero
    if isinstance(a, Power) or isinstance(b, Power):
        return _equate_power(a, b)
    if isinstance(a, _OPAQUE) or isinstance(b, _OPAQUE):
        return TRUE if a == b else FALSE
    if isinstance(a, (Seq, Tup)) and type(a) is type(b):
        if len(a.items) != len(b.items):
            return FALSE
        return conj(*map(_equate, a.items, b.items))
    if isinstance(a, Directed) and isinstance(b, Directed):
        if a.direction != b.direction:
            return FALSE
        return _equate(a.payload, b.payload)
    if type(a) is type(b) and isinstance(a, (CorIns, CorDef)):
        if len(a.flow) != len(b.flow):
            return FALSE
        parts = list(map(_equate, a.flow, b.flow))
        for side in (a, b):
            if side.constraint is not None:
                parts.append(side.constraint)
        return conj(*parts)
    return FALSE


def _equate_power(a, b):
    if isinstance(a, Power) and isinstance(b, Power):
        return conj(_equate(a.base, b.base), cmp(a.count, "=", b.count))
    p, other = (a, b) if isinstance(a, Power) else (b, a)
    if isinstance(other, ZeroType):
        return cmp(p.count, "=", 0)
    if isinstance(other, Seq):
        parts = [_equate(p.base, item) for item in other.items]
        parts.append(cmp(p.count, "=", len(other.items)))
        return conj(*parts)
    return conj(_equate(p.base, other), cmp(p.count, "=", 1))


# ---------------------------------------------------------------------------
# satisfiability over the finite fragment

INT = "int"
SYM = "sym"


def _find(parent: dict, name):
    """The representative of ``name`` in the union-find ``parent``."""
    while parent.setdefault(name, name) != name:
        name = parent[name]
    return name


def _union(parent: dict, a, b):
    parent[_find(parent, b)] = _find(parent, a)


def _infer_domains(expr, universe: Universe):
    """Assign each variable an integer or symbol domain.  A variable
    compared with an integer or under an ordering is an integer, one
    equated with a symbol is a symbol, and variables compared with each
    other share one domain; an unconstrained variable takes the symbol
    domain when the universe has symbols.  A class that needs both
    domains, or a symbol under an ordering, raises DomainConflict."""
    parent: dict = {}
    needs = []  # (name, a domain one of its atoms requires)
    for atom in pred_atoms(expr):
        lhs, rhs = atom_terms(atom)
        op = atom.op if isinstance(atom, Cmp) else "="
        for side, other in ((lhs, rhs), (rhs, lhs)):
            if isinstance(side, Concrete) and op != "=":
                raise DomainConflict("symbol %s under ordering comparison" % side.name)
            if not isinstance(side, Var):
                continue
            if isinstance(other, Var):
                _union(parent, side.name, other.name)
            if op != "=" or isinstance(other, int):
                needs.append((side.name, INT))
            elif isinstance(other, Concrete):
                needs.append((side.name, SYM))
    domain: dict = {}  # representative -> its class's domain
    for name, need in needs:
        if domain.setdefault(_find(parent, name), need) != need:
            raise DomainConflict("%s used as %s and %s" % (name, INT, SYM))
    default = SYM if universe.symbols else INT
    return {name: domain.get(_find(parent, name), default) for name in pred_free_vars(expr)}


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
    parent: dict = {}
    parts = [(c, pred_free_vars(c)) for c in _conjuncts(expr)]
    for _, names in parts:
        for name in names:
            _union(parent, names[0], name)
    groups: dict = {}
    for c, names in parts:
        groups.setdefault(_find(parent, names[0]) if names else "", []).append((c, names))
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
            names, [grid if domains[n] == INT else sym_values for n in names], check, {}
        )
        if found is None:
            return None
        witness.update(found)
    return {name: witness[name] for name in sorted(witness)}


def _search(names, candidates, check, assignment, k=0):
    """The first assignment of ``names`` in candidate order under which
    ``check`` holds, or None, extending ``assignment`` of the names before
    the ``k``-th.  ``check`` is evaluated in three values after each name
    is assigned, and an assignment that already makes it false is never
    extended."""
    if pred_evaluate(check, assignment) is False:
        return None
    if k == len(names):
        return dict(assignment)
    for value in candidates[k]:
        assignment[names[k]] = value
        found = _search(names, candidates, check, assignment, k + 1)
        if found is not None:
            return found
    assignment.pop(names[k], None)
    return None


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
    if isinstance(p, (And, Or)):
        items = sorted((pred_canonical(i) for i in p.items), key=render_pred)
        return conj(*items) if isinstance(p, And) else disj(*items)
    if isinstance(p, Not):
        return neg(pred_canonical(p.item))
    return p


def match(pending, pattern, universe: Universe | None = None, *, scope=()):
    """Unify two (possibly constrained) types; commutative.

    Returns a ConditionSet on success and BOTTOM when no assignment over the
    universe makes the types equal, by default the symbols of the two types
    and of the terms in ``scope`` (a reduction passes its own), collected
    only when the query reaches ``solve``.  Two ground ``Concrete`` payloads,
    all a Go channel carries, are decided by equality alone, with no
    rewriting: the answer ``_equate`` gives for such leaves.
    """
    if isinstance(pending, Concrete) and isinstance(pattern, Concrete):
        return ConditionSet({}, TRUE) if pending == pattern else BOTTOM
    a, rho1 = _strip(reduce_constrained(pending))
    b, rho2 = _strip(reduce_constrained(pattern))
    expr = pred_simplify(conj(_equate(a, b), rho1, rho2))
    if not pred_free_vars(expr):
        return ConditionSet({}, TRUE) if pred_evaluate(expr, {}) else BOTTOM
    if universe is None:
        universe = universe_of(pending, pattern, *scope)
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


class Case(Record):
    """One analysis case: an assumption under which every branch predicate
    in the program has a fixed truth value, kept in ``valuation``."""

    __slots__ = ("assumption", "label", "valuation")
    _defaults = {"valuation": {}}  # read only, so one empty dict serves every case


def partition_cases(predicates) -> list[Case]:
    """Split the integer line so every given predicate is constant per case.

    Cells with identical predicate valuations merge into a single case, so
    e.g. two guard intervals over one variable yield at most four cases.
    Each case keeps its valuation, where the engine reads these guards; a
    guard over one variable is evaluated once per interval of it.
    Every variable is a Go ``int``: a comparison against anything but an
    integer constant raises ``ConstraintError``, and no case starts or ends
    outside [-2^63, 2^63 - 1], where no value lies.  The order of the
    predicates changes no case: cells go by the variables in sorted order,
    and a refusal names the first of them to meet a non-constant.
    """
    predicates = [pred_simplify(p) for p in predicates]
    names = sorted({n for p in predicates for n in pred_free_vars(p)})
    if not names:
        return [Case(TRUE, "")]

    # one sweep over the comparisons, each with a variable on the left: one
    # against a constant changes value only at its boundary points
    points = {n: set() for n in names}
    unsplittable = set()
    atoms = (a for p in predicates for a in pred_atoms(p))
    for q in (cmp(a.lhs, a.op, a.rhs) for a in atoms if isinstance(a, Cmp)):
        if not isinstance(q.rhs, int):
            unsplittable.update(t.name for t in (q.lhs, q.rhs) if isinstance(t, Var))
        elif isinstance(q.lhs, Var):
            if q.op in ("<", ">=", "="):
                points[q.lhs.name].add(q.rhs)
            if q.op in ("<=", ">", "="):  # equality flips entering and leaving
                points[q.lhs.name].add(q.rhs + 1)
    if unsplittable:
        raise ConstraintError(
            "cannot partition %s: comparison against a non-constant" % min(unsplittable)
        )

    def intervals(var):
        """``(interval predicate, sample point)`` for each interval, the
        sample its lower end, else its upper end."""
        v = Var(var)
        pts = sorted(p for p in points[var] if -(2**63) < p < 2**63)  # cells of Go ints
        if not pts:
            return [(TRUE, 0)]
        out = [(Cmp(v, "<=", pts[0] - 1), pts[0] - 1)]
        for lo, hi in zip(pts, [p - 1 for p in pts[1:]]):
            part = Cmp(v, "=", lo) if lo == hi else conj(Cmp(v, ">=", lo), Cmp(v, "<=", hi))
            out.append((part, lo))
        out.append((Cmp(v, ">=", pts[-1]), pts[-1]))
        return out

    axes = [intervals(n) for n in names]
    # a guard over one variable takes one value per interval of that variable
    columns = []  # per predicate: (axis, its value on each interval), or (None, it)
    for p in predicates:
        free = [names.index(n) for n in pred_free_vars(p)]
        if len(free) == 1:
            axis = free[0]
            columns.append((axis, [pred_evaluate(p, {names[axis]: s}) for _, s in axes[axis]]))
        else:
            columns.append((None, p))
    grouped: dict[tuple, list] = {}  # valuation -> its cells' predicates, first seen first
    for picks in product(*(range(len(axis)) for axis in axes)):
        cell = [axis[i] for axis, i in zip(axes, picks)]
        assignment = {n: sample for n, (_, sample) in zip(names, cell)}
        valuation = tuple(pred_evaluate(column, assignment) if axis is None
                          else column[picks[axis]] for axis, column in columns)
        grouped.setdefault(valuation, []).append(conj(*(part for part, _ in cell)))

    cases = []
    for valuation, parts in grouped.items():
        assumption = disj(*parts)
        label = "" if assumption == TRUE else render_pred(assumption)  # nothing split
        cases.append(Case(assumption, label, dict(zip(predicates, valuation))))
    return cases

