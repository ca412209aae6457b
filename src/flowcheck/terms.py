"""Behavioral type terms for coroutine flows.

A coroutine's protocol is a list of directed flow items (`!t` yields a value
of type t, `?t` receives one).  Definitions may branch on predicates via
union types; instances are branch-free.  All terms are immutable, and every
factory returns the canonical (flattened) form, so structural equality is
plain ``==``.
"""

from __future__ import annotations

from .record import Record

YIELD = "!"
RECEIVE = "?"


class CalculusError(Exception):
    pass


class HeadOfDefinition(CalculusError):
    """Head/tail is only defined on coroutine instances, never definitions."""


class EmptyInstance(CalculusError):
    """Head/tail of an instance with no remaining flow items."""


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


def flatten(t):
    """Return the canonical form of a term; idempotent.

    Nested sequences merge left-to-right, singleton sequences unwrap, empty
    sequences become Zero, stacked constraints collapse into one predicate,
    concrete powers expand, and a constraint wrapped around a coroutine is
    folded into the coroutine's own constraint field.
    """
    if isinstance(t, (ZeroType, Concrete, Var, DefRef, int)):
        return t
    if isinstance(t, Seq):
        items = []
        for item in t.items:
            item = flatten(item)
            if isinstance(item, Seq):
                items.extend(item.items)
            elif isinstance(item, ZeroType):
                continue
            else:
                items.append(item)
        if not items:
            return ZERO
        if len(items) == 1:
            return items[0]
        return Seq(tuple(items))
    if isinstance(t, Tup):
        return Tup(tuple(flatten(i) for i in t.items))
    if isinstance(t, Union):
        return Union(flatten(t.left), flatten(t.right))
    if isinstance(t, Power):
        base = flatten(t.base)
        if isinstance(base, ZeroType):
            return ZERO
        if isinstance(t.count, int):
            return flatten(Seq((base,) * t.count))
        return Power(base, t.count)
    if isinstance(t, Constrained):
        from .preds import conj, TRUE  # leaf nodes live here; preds builds on them

        base = flatten(t.base)
        pred = t.pred
        while isinstance(base, Constrained):
            pred = conj(base.pred, pred)
            base = flatten(base.base)
        if isinstance(base, ZeroType):
            return ZERO
        if isinstance(base, (CorIns, CorDef)):
            merged = pred if base.constraint is None else conj(base.constraint, pred)
            if merged == TRUE:
                merged = None
            return type(base)(base.flow, merged, base.label)
        if pred == TRUE:
            return base
        return Constrained(base, pred)
    if isinstance(t, Directed):
        return Directed(t.direction, flatten(t.payload))
    if isinstance(t, (CorDef, CorIns)):
        items = []
        for item in t.flow:
            item = flatten(item)
            if isinstance(item, ZeroType):
                continue
            if isinstance(item, Seq):
                # a spliced sequence may hold directed sequences to distribute
                items.extend(flatten(CorIns(item.items)).flow)
            elif isinstance(item, Directed) and isinstance(item.payload, Seq):
                items.extend(distribute(item.direction, item.payload))
            else:
                items.append(item)
        return type(t)(tuple(items), t.constraint, t.label)
    if isinstance(t, StartApp):
        return StartApp(flatten(t.target), t.bindings)
    if isinstance(t, InlineApp):
        return InlineApp(flatten(t.target), t.bindings)
    raise TypeError("not a type term: %r" % (t,))


def distribute(direction, t):
    """Apply a direction to a type, splitting a sequence into one item each."""
    t = flatten(t)
    if isinstance(t, Seq):
        return [Directed(direction, item) for item in t.items]
    return [Directed(direction, t)]


# Factories; these keep every constructed term canonical.


def seq(*items):
    return flatten(Seq(tuple(items)))


def tup(*items):
    return flatten(Tup(tuple(items)))


def union(left, right):
    return flatten(Union(left, right))


def constrained(base, pred):
    return flatten(Constrained(base, pred))


def power(base, count):
    return flatten(Power(base, count))


def cor_def(*items, constraint=None, label=None):
    return flatten(CorDef(tuple(items), constraint, label))


def cor_ins(*items, constraint=None, label=None):
    return flatten(CorIns(tuple(items), constraint, label))


def yielded(payload):
    return Directed(YIELD, flatten(payload))


def received(payload):
    return Directed(RECEIVE, flatten(payload))


def start_app(target, bindings=()):
    if isinstance(bindings, dict):
        bindings = tuple(bindings.items())
    return StartApp(flatten(target), bindings)


def inline_app(target, bindings=()):
    if isinstance(bindings, dict):
        bindings = tuple(bindings.items())
    return InlineApp(flatten(target), bindings)


# ---------------------------------------------------------------------------
# structural helpers


def head(i):
    """First flow item of an instance."""
    if isinstance(i, CorDef):
        raise HeadOfDefinition("head of a definition: %r" % (i,))
    if not isinstance(i, CorIns):
        raise CalculusError("head expects a coroutine instance, got %r" % (i,))
    if not i.flow:
        raise EmptyInstance("head of an exhausted instance")
    return i.flow[0]


def tail(i):
    """The instance minus its first flow item; may be the empty instance."""
    if isinstance(i, CorDef):
        raise HeadOfDefinition("tail of a definition: %r" % (i,))
    if not isinstance(i, CorIns):
        raise CalculusError("tail expects a coroutine instance, got %r" % (i,))
    if not i.flow:
        raise EmptyInstance("tail of an exhausted instance")
    return CorIns(i.flow[1:], i.constraint, i.label)


def term_map(t, fn, pred_fn=None):
    """Rebuild one level of a term: ``fn`` on each direct subterm (items,
    union branches, a power's base and count, a payload, a flow, an
    application's target and binding values), ``pred_fn`` on its guard.  A
    leaf, and a term whose parts all come back as the same objects, is
    returned itself; nothing is re-canonicalized."""
    if isinstance(t, (ZeroType, Concrete, Var, DefRef, int)):
        return t
    if isinstance(t, (CorDef, CorIns)):
        flow = tuple(fn(i) for i in t.flow)
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
        items = tuple(fn(i) for i in t.items)
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
    """Whether two equally long tuples hold the very same objects."""
    return all(a is b for a, b in zip(new, old))


LEGAL_BINDING_VALUES = (int, Concrete, Var)


def substitute(t, binding: dict):
    """Replace bound variables throughout a term and re-canonicalize.

    Binding values are restricted to concrete symbols, integers (lengths),
    and variables; anything structured raises IllegalBinding.
    """
    for name, value in binding.items():
        if not isinstance(value, LEGAL_BINDING_VALUES) or isinstance(value, bool):
            raise IllegalBinding("cannot bind %s to %r" % (name, value))
    if not binding:
        return flatten(t)
    return flatten(_subst(t, binding))


def _subst(t, binding):
    from .preds import pred_substitute  # preds builds on the leaf nodes here

    def walk(s):
        if isinstance(s, Var):
            return binding.get(s.name, s)
        return term_map(s, walk, guard)

    def guard(p):
        return pred_substitute(p, binding)

    return walk(t)
