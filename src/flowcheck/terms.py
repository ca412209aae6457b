"""Behavioral type terms for coroutine flows.

A coroutine's protocol is a list of directed flow items (`!t` yields a value
of type t, `?t` receives one).  Definitions may branch on predicates via
union types; instances are branch-free.  All terms are immutable, and every
factory returns the canonical (flattened) form, so structural equality is
plain ``==``.

``term_map`` is the one traversal: it rebuilds one level of a term.
``canon`` is the one definition of the canonical form, applied to a node
whose subterms are canonical already; ``flatten`` is ``canon`` over
``term_map``, bottom-up, and hands a canonical term back unchanged.  A walk
that rebuilds canonical terms applies ``canon`` to the nodes it rebuilds.
"""

from __future__ import annotations

from operator import is_

from . import preds
from .record import Record

YIELD = "!"
RECEIVE = "?"


class CalculusError(Exception):
    pass


class IllegalBinding(CalculusError):
    """A variable may only be bound to a concrete symbol, an integer, or
    another variable -- never to a structured type or the empty behavior."""


class Term(Record):
    """Every term node shows itself in the notation of ``notation.render``.
    The ``label`` of a coroutine is a name for the reader: equality and
    hashing skip it."""

    __slots__ = ()
    _uncompared = ("label",)

    def __repr__(self):
        from .notation import render  # notation builds on this module

        return render(self)


class ZeroType(Term):
    """The empty behavior."""

    __slots__ = ()


ZERO = ZeroType()


class Concrete(Term):
    """An opaque simple type such as Int or StringBuilder."""

    __slots__ = ("name",)


class Var(Term):
    """A placeholder for a concrete type, an integer, or another variable."""

    __slots__ = ("name",)


class Seq(Term):
    """A flat, associative sequence of types."""

    __slots__ = ("items",)


class Tup(Term):
    """A product type; groups elements without the splicing of sequences."""

    __slots__ = ("items",)


class Union(Term):
    """Two alternative behaviors; allowed in definitions only."""

    __slots__ = ("left", "right")


class Constrained(Term):
    """A type guarded by a boolean predicate."""

    __slots__ = ("base", "pred")


class Power(Term):
    """A sequence of ``count`` copies of ``base`` with symbolic length.

    Concrete counts are expanded eagerly into a Seq by the factories; a
    Power node survives only while its count is a variable.
    """

    __slots__ = ("base", "count")


class Directed(Term):
    """One flow item: a direction applied to a payload type."""

    __slots__ = ("direction", "payload")


class CorDef(Term):
    """A coroutine definition; union branches may still be unresolved."""

    __slots__ = ("flow", "constraint", "label")
    _defaults = {"constraint": None, "label": None}


class CorIns(Term):
    """A running coroutine: an ordered, branch-free list of flow items."""

    __slots__ = ("flow", "constraint", "label")
    _defaults = {"constraint": None, "label": None}


class DefRef(Term):
    """A definition referenced by name, resolved through the definition
    environment when started or inlined.  This is how a recursive function
    can start itself without the term becoming cyclic."""

    __slots__ = ("name",)


class StartApp(Term):
    """Pending application of Start to a definition: spawns a new instance."""

    __slots__ = ("target", "bindings")
    _defaults = {"bindings": ()}


class InlineApp(Term):
    """Pending application of Inline: splices a definition into the caller."""

    __slots__ = ("target", "bindings")
    _defaults = {"bindings": ()}


# ---------------------------------------------------------------------------
# canonicalization


def canon(t):
    """The canonical form of a node whose direct subterms are canonical,
    and ``t`` itself when it is canonical already: the one definition of
    the canonical form.  Nested sequences merge, singleton sequences unwrap,
    empty ones become Zero, a power of Zero is Zero and a concrete power
    expands, stacked constraints merge into one, and a constraint around a
    coroutine folds into the coroutine's own.  In a flow, Zero vanishes, a
    sequence splices, and a directed sequence splits into one item each."""
    if not isinstance(t, (Seq, CorDef, CorIns, Power, Constrained)):
        return t  # every other node is canonical once its subterms are
    if isinstance(t, Seq):
        items = []
        for item in t.items:
            if isinstance(item, Seq):
                items.extend(item.items)
            elif not isinstance(item, ZeroType):
                items.append(item)
        if len(items) < 2:
            return items[0] if items else ZERO
        return t if _same(items, t.items) else Seq(tuple(items))
    if isinstance(t, (CorDef, CorIns)):
        flow = []
        for item in t.flow:
            for part in item.items if isinstance(item, Seq) else (item,):
                if isinstance(part, Directed) and isinstance(part.payload, Seq):
                    flow.extend(Directed(part.direction, p) for p in part.payload.items)
                elif not isinstance(part, ZeroType):
                    flow.append(part)
        return t if _same(flow, t.flow) else type(t)(tuple(flow), t.constraint, t.label)
    if isinstance(t, Power):
        if isinstance(t.base, ZeroType):
            return ZERO
        return canon(Seq((t.base,) * t.count)) if isinstance(t.count, int) else t
    base, pred = t.base, t.pred  # a constrained node
    if isinstance(base, Constrained):
        base, pred = base.base, preds.conj(base.pred, pred)
    if isinstance(base, ZeroType):
        return ZERO
    if isinstance(base, (CorIns, CorDef)):
        merged = pred if base.constraint is None else preds.conj(base.constraint, pred)
        return type(base)(base.flow, None if merged == preds.TRUE else merged, base.label)
    if pred == preds.TRUE:
        return base
    return t if base is t.base else Constrained(base, pred)


def flatten(t):
    """The canonical form of any term: ``canon`` applied bottom-up.  A
    canonical term comes back itself."""
    return canon(term_map(t, flatten))


# Factories: each builds one node from canonical parts and canonicalizes
# that node, so every term they build is canonical.  A term assembled from
# the classes directly is canonicalized by ``flatten``.


def seq(*items):
    return canon(Seq(items))


def tup(*items):
    return canon(Tup(items))


def union(left, right):
    return canon(Union(left, right))


def constrained(base, pred):
    return canon(Constrained(base, pred))


def power(base, count):
    return canon(Power(base, count))


def cor_def(*items, constraint=None, label=None):
    return canon(CorDef(items, constraint, label))


def cor_ins(*items, constraint=None, label=None):
    return canon(CorIns(items, constraint, label))


def yielded(payload):
    return canon(Directed(YIELD, payload))


def received(payload):
    return canon(Directed(RECEIVE, payload))


def start_app(target, bindings=()):
    if isinstance(bindings, dict):
        bindings = tuple(bindings.items())
    return canon(StartApp(target, bindings))


def inline_app(target, bindings=()):
    if isinstance(bindings, dict):
        bindings = tuple(bindings.items())
    return canon(InlineApp(target, bindings))


# ---------------------------------------------------------------------------
# structural helpers


def branches(t):
    """The (payload, guard) alternatives of a canonical union tree, left to
    right, each guard the conjunction of the constraints around its payload,
    innermost first; any other term is its own one alternative, under TRUE."""
    out, stack = [], [(t, preds.TRUE)]
    while stack:
        t, guard = stack.pop()
        if isinstance(t, Union):
            stack += [(t.right, guard), (t.left, guard)]
        elif isinstance(t, Constrained):
            stack.append((t.base, preds.conj(t.pred, guard)))
        else:
            out.append((t, guard))
    return out


def term_map(t, fn, pred_fn=None):
    """Rebuild one level of a term: ``fn`` on each direct subterm (items,
    union branches, a power's base and count, a payload, a flow, an
    application's target and binding values), ``pred_fn`` on its guard.  A
    leaf, and a term whose parts all come back as the same objects, is
    returned itself; nothing is re-canonicalized."""
    if isinstance(t, (ZeroType, Concrete, Var, DefRef, int)):
        return t
    if isinstance(t, (CorDef, CorIns)):
        flow = tuple(map(fn, t.flow))
        guard = t.constraint
        if guard is not None and pred_fn is not None:
            guard = pred_fn(guard)
        if guard is t.constraint and _same(flow, t.flow):
            return t
        return type(t)(flow, guard, t.label)
    if isinstance(t, Directed):
        payload = fn(t.payload)
        return t if payload is t.payload else Directed(t.direction, payload)
    if isinstance(t, (Seq, Tup)):
        items = tuple(map(fn, t.items))
        return t if _same(items, t.items) else type(t)(items)
    if isinstance(t, Union):
        left, right = fn(t.left), fn(t.right)
        return t if left is t.left and right is t.right else Union(left, right)
    if isinstance(t, Constrained):
        base = fn(t.base)
        guard = t.pred if pred_fn is None else pred_fn(t.pred)
        return t if base is t.base and guard is t.pred else Constrained(base, guard)
    if isinstance(t, Power):
        base, count = fn(t.base), fn(t.count)
        return t if base is t.base and count is t.count else Power(base, count)
    if isinstance(t, (StartApp, InlineApp)):
        target = fn(t.target)
        values = tuple(fn(v) for _, v in t.bindings)
        if target is t.target and _same(values, tuple(v for _, v in t.bindings)):
            return t
        names = (k for k, _ in t.bindings)
        return type(t)(target, tuple(zip(names, values)))
    raise TypeError("not a type term: %r" % (t,))


def _same(new, old) -> bool:
    """Whether two sequences hold the very same objects."""
    return len(new) == len(old) and all(map(is_, new, old))


LEGAL_BINDING_VALUES = (int, Concrete, Var)


def substitute(t, binding: dict):
    """Replace bound variables throughout a canonical term; the result is
    canonical, since each node the walk rebuilds goes through ``canon``.

    Binding values are restricted to concrete symbols, integers (lengths),
    and variables; anything structured raises IllegalBinding.
    """
    for name, value in binding.items():
        if not isinstance(value, LEGAL_BINDING_VALUES) or isinstance(value, bool):
            raise IllegalBinding("cannot bind %s to %r" % (name, value))
    return _substitute(t, binding) if binding else t


def _substitute(t, binding):
    """``substitute`` of a nonempty, checked ``binding``."""
    if isinstance(t, Var):
        return binding.get(t.name, t)
    rebuilt = term_map(t, lambda s: _substitute(s, binding),
                       lambda p: preds.pred_substitute(p, binding))
    return t if rebuilt is t else canon(rebuilt)
