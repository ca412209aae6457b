"""The deterministic reduction machine over coroutine instances.

Starting a definition picks one branch per union: the first whose guard
the case's assumption and valuation make true.  A guard they leave open
raises ``AmbiguousCondition``; splitting such guards into cases is the job
of ``solver.partition_cases``, before reduction.  Each application starts
once per reduction: the assumption, valuation, definitions and scope are
fixed for it, so equal applications share one instance.  An analysis's
cases share what none changes: each instance whose start decided no guard
over a variable, each union's branches and each union-free subtree.

One value may be in flight at a time (the pending type); yielded values no
live coroutine can receive accumulate as external yields.  Rules fire in a
fixed priority order, so a given input always produces the same trace:

  1. splice an inline application sitting at the head of an instance
  2. drop a head item whose payload is the empty behavior
  3. with a pending value: resume the first matching receiver (preferring
     coroutines other than the one that just yielded, so a value reaches a
     waiting peer before self-delivery); if nobody matches but spawns are
     still waiting, evaluate one (it may introduce the missing receiver);
     only then move the value to the external yields
  4. hand a whole live coroutine to the first receiver expecting one
  5. main exit: the main coroutine is exhausted, nothing is in flight, and
     no coroutine still has a value to yield -- terminate
  6. yield: transfer the first yielding head into the pending slot
  7. spawn: evaluate a started definition at the head of an instance and
     number the new instance after every live one
  8. otherwise nothing can move: terminate with the leftover residual

Yields outrank spawns when nothing is in flight, and spawned instances come
after every live one, so a definition that keeps starting itself
cannot starve the coroutines that are ready to communicate.  Main exit
waits for in-flight and yieldable values to settle (a send blocks its
goroutine until paired, so an undeliverable value is a real block), but it
does fire while unstarted spawns remain, which is what terminates
self-starting recursion.  At main exit the residual holds undeliverable
external yields first; failing that, coroutines left waiting on a receive.
The base calculus rule that re-injects external yields is deliberately
absent; once a value is external, it stays external.

Each live coroutine is known by its creation number, which it keeps until
rule 4 removes it; numbers are never reused.  ``main`` is the number of the
first coroutine (``None`` in a state built without one), ``last_yielder``
the number of the one whose value is in flight.  A main that rule 4
removed never exits.  The step that ends a reduction sets its verdict:
``Deadlock`` when the residual has items, ``NoDeadlock`` when it is empty,
``Inconclusive`` once ``max_steps`` rules have fired.

A step costs what it changes, not how many coroutines are live or how long
their flows are.  The state is plain data: ``insts`` maps each number to
its cursor, in creation order, and ``kinds`` to the kind of its head, read
from the kinds of its flow's items, worked out once per instance.  A
cursor ``(inst, pos, below, constraint, label)`` is immutable: its head is
item ``pos`` of the shared ``inst.flow``, and once that flow ends it goes
on in the frame ``(inst, pos, below)`` of ``below``, so no step copies a
flow.  ``ReductionState.set`` is the one way a coroutine changes; it
refiles the number in the head index when its head kind changes: one heap
of numbers per kind, whose stale tops are dropped when a rule asks
``first`` for that kind, and the set of receivers, sorted when read.
Rules 1-7 pick their coroutine from the index; only rule 4's search for a
whole coroutine and rule 8's residual walk every coroutine.  An instance
is built from a cursor, through ``canon``, only where one is read.  A run
keeps only the names of the rules it fired.  The machine is deterministic,
so reading a state of the trace runs the reduction again from the same
inputs, once per trace, and keeps the state after each rule; a trace
nobody reads costs nothing.
"""

from __future__ import annotations

import heapq

from .notation import render
from .preds import TRUE, conj, neg, pred_evaluate, pred_free_vars, pred_simplify
from .record import Record
from .solver import BOTTOM, match, solve, universe_of
from .terms import (
    Constrained,
    CorDef,
    CorIns,
    DefRef,
    Directed,
    InlineApp,
    RECEIVE,
    Seq,
    StartApp,
    Union,
    ZERO,
    ZeroType,
    branches,
    canon,
    cor_ins,
    flatten,
    substitute,
    term_map,
    yielded,
)

DEFAULT_MAX_STEPS = 500


class EngineError(Exception):
    pass


class NoSatisfiableBranch(EngineError):
    """Every branch guard of a union is unsatisfiable."""


class AmbiguousCondition(EngineError):
    """A branch guard that the current assumption does not decide."""


# ---------------------------------------------------------------------------
# starting and inlining definitions


def _decide(guard, assumption, *terms):
    """True / False when the assumption settles ``guard``, a simplified
    guard over a variable, else None.  The solver decides it over the
    symbols of the guard, the assumption and ``terms``."""
    universe = universe_of(guard, assumption, *terms)
    if solve(conj(guard, assumption), universe) is None:
        return False
    if solve(conj(neg(guard), assumption), universe) is None:
        return True
    return None


def _resolve(t, decide, table):
    """The canonical ``t`` with every union replaced by its first branch
    whose guard ``decide`` holds.  Unions sit in flow items and in sequence
    or directed payloads; a yielded definition or a start application keeps
    its unions until it is started itself.  A node rebuilt around a chosen
    branch goes through ``canon``, so the result is canonical too.
    ``table`` keeps, by identity, each union's branches with simplified
    guards, and each subtree found to hold no union, so neither is walked
    twice; an entry keeps its term alive, so no id is reused."""
    if isinstance(t, Union):
        entry = table.get(id(t))
        if entry is None:
            entry = table[id(t)] = t, [(p, pred_simplify(g)) for p, g in branches(t)]
        for payload, guard in entry[1]:
            if decide(guard):
                return _resolve(payload, decide, table)
        raise NoSatisfiableBranch(render(t))
    if isinstance(t, (Seq, Directed)) and id(t) not in table:
        rebuilt = term_map(t, lambda s: _resolve(s, decide, table))
        if rebuilt is not t:
            return canon(rebuilt)
        table[id(t)] = t  # holds no union
    return t


def start(definition, bindings=None, assumption=TRUE, valuation=None, *, defs=None, scope=(),
          table=None):
    """Instantiate a canonical definition, or a reference into ``defs``:
    substitute the arguments and resolve each union to one branch.  Both
    keep the flow canonical, and the new flow is canonicalized one level,
    where a chosen branch may have put a sequence or Zero.

    A guard the case split partitioned on is read from the case's
    ``valuation``; only other guards over a variable reach the solver, over
    the symbols of the bound definition and of the terms in ``scope`` (a
    reduction passes its own).  One the assumption leaves open raises
    ``AmbiguousCondition``; the case split is what decides such guards.
    ``table``, shared by one analysis's reductions, holds ``_resolve``'s
    entries, each instance whose start decided no guard over a variable,
    and by id each union-free definition, whose start shares its flow unwalked.
    """
    key = definition, bindings
    if isinstance(definition, DefRef):
        resolved = (defs or {}).get(definition.name)
        if resolved is None:
            raise EngineError("reference to unknown definition %s" % definition.name)
        definition = resolved
    elif not isinstance(definition, CorDef):
        raise EngineError("expected a coroutine definition, got %s" % render(definition))
    bound = substitute(definition, dict(bindings)) if bindings else definition
    opened = []  # the guards decided over a variable: another case may decide them otherwise

    def decide(guard):
        verdict = valuation.get(guard) if valuation else None
        if verdict is None:
            if not pred_free_vars(guard):
                return pred_evaluate(guard, {})
            verdict = _decide(guard, assumption, bound, *scope)
            if verdict is None:
                raise AmbiguousCondition(
                    "unresolved branch conditions in %s" % (definition.label or render(definition))
                )
        opened.append(guard)
        return verdict

    shared = {} if table is None else table
    inst = CorIns(bound.flow, bound.constraint, definition.label)
    if shared.get(id(definition)) is not definition:  # one it holds has no union
        inst = canon(term_map(inst, lambda item: _resolve(item, decide, shared)))
    if table is not None and not opened:  # every case would start it the same
        table[key] = inst
    return inst


# ---------------------------------------------------------------------------
# reduction state


def _head_kind(inst, pos=0):
    """Which rule item ``pos`` of the flow of ``inst`` can start at its head:
    "inline", "void", "receive", "yield", "spawn", or None."""
    if pos == len(inst.flow):
        return None
    head = inst.flow[pos]
    if isinstance(head, InlineApp):
        return "inline"
    if isinstance(head, Directed):
        if isinstance(head.payload, ZeroType):
            return "void"
        if head.direction == RECEIVE:
            return "receive"
        if isinstance(head.payload, (CorIns, StartApp)):
            return "spawn"
        return None if isinstance(head.payload, CorDef) else "yield"
    if isinstance(head, (StartApp, CorIns)):
        return "spawn"
    return None


def _head(cursor):
    flow = cursor[0].flow
    return flow[cursor[1]] if cursor[1] < len(flow) else None


def _advance(cursor):
    """The cursor past its head, in the frame below once its flow ends."""
    inst, pos, below, constraint, label = cursor
    if pos + 1 == len(inst.flow) and below is not None:
        return (*below, constraint, label)
    return inst, pos + 1, below, constraint, label


def _instance(cursor):
    """The canonical instance ``cursor`` stands for: each frame's rest, top
    first; at the start of its one instance, that very instance."""
    inst, pos, below, constraint, label = cursor
    if not pos and below is None and constraint is inst.constraint and label == inst.label:
        return inst
    flow = list(inst.flow[pos:])
    while below is not None:
        inst, pos, below = below
        flow += inst.flow[pos:]
    return canon(CorIns(tuple(flow), constraint, label))


class TraceEntry:
    """The ``step``-th rule of a trace.  ``state`` is the terms ``(pending,
    externals, instances)`` after it; ``state_after`` renders them."""

    __slots__ = ("step", "rule", "_trace")

    def __init__(self, trace, index):
        self.step = index + 1
        self.rule = trace.rules[index]
        self._trace = trace

    @property
    def state(self) -> tuple:
        states, externals, made, _ = self._trace.states()  # made: id of a cursor -> instance
        pending, count, cursors = states[self.step - 1]
        insts = tuple(made.get(id(c)) or made.setdefault(id(c), _instance(c)) for c in cursors)
        return pending, tuple(externals[:count]), insts

    @property
    def state_after(self) -> str:
        pending, externals, instances = self.state
        shown = self._trace.states()[3]  # id of an instance -> its text
        ext = render(canon(Seq(externals))) if externals else "0"
        body = ", ".join([shown.get(id(i)) or shown.setdefault(id(i), render(i)) for i in instances])
        return "(%s, %s) ⊢ ⊚⟨%s⟩" % (render(pending), ext, body)

    def line(self) -> str:
        return "step %d [%s] %s" % (self.step, self.rule, self.state_after)


class Trace:
    """The rules a reduction fired, read as a sequence of ``TraceEntry``s,
    each built when read.  The first read of a state runs the reduction
    again from the same inputs and keeps the state after each rule: the
    pending value, how far the external yields had grown, the cursors."""

    __slots__ = ("rules", "_inputs", "_states")

    def __init__(self, rules, initial, settings):
        self.rules = rules
        self._inputs = initial, settings  # ``settings`` are ``ReductionState``'s keywords
        self._states = None

    def __len__(self):
        return len(self.rules)

    def __getitem__(self, index):
        indices = range(len(self.rules))[index]
        if isinstance(indices, range):
            return [TraceEntry(self, i) for i in indices]
        return TraceEntry(self, indices)

    def states(self):
        if self._states is None:
            initial, settings = self._inputs
            state, states = ReductionState(**settings), []
            for _ in _run(state, initial):
                if len(state.rules) > len(states):
                    cursors = tuple(state.insts.values())
                    states.append((state.pending, len(state.externals), cursors))
            self._states = states, state.externals, {}, {}  # instances, texts, by id
        return self._states


class Verdict(Record):
    # kind: "NoDeadlock" | "Deadlock" | "Inconclusive" | "Unsupported"
    __slots__ = ("kind", "residual", "externals", "reason")
    _defaults = {"residual": None, "externals": (), "reason": ""}

    def __repr__(self):
        if self.kind == "Deadlock":
            return "Deadlock(%s)" % render(self.residual)
        if self.kind == "Unsupported":
            return "Unsupported(%s)" % self.reason
        return self.kind


class ReductionState:
    __slots__ = (
        "insts", "kinds", "pending", "externals", "rules", "max_steps", "assumption",
        "valuation", "defs", "scope", "main", "last_yielder", "verdict", "heaps",
        "receivers", "created", "started", "kinds_of", "table", "__weakref__",
    )

    def __init__(self, *, pending=ZERO, max_steps=DEFAULT_MAX_STEPS, assumption=TRUE,
                 valuation=None, defs=None, scope=(), table=None):
        self.insts = {}  # number -> cursor of each live coroutine, in creation order
        self.kinds = {}  # number -> head kind of its cursor
        self.pending = pending
        self.externals = []
        self.rules = []  # the name of each rule fired
        self.max_steps = max_steps
        self.assumption = assumption
        self.valuation = {} if valuation is None else valuation
        self.defs = {} if defs is None else defs
        self.scope = scope  # terms whose symbols the solver's symbol variables range over
        self.main = None  # the number of the main coroutine
        self.last_yielder = None  # the number of the coroutine whose value is in flight
        self.verdict = None
        self.heaps = {}  # the head index: head kind -> heap of numbers,
        self.receivers = set()  # numbers whose head is a receive
        self.created = 0
        self.started = {}  # application -> the instance it started
        self.kinds_of = {}  # id of an instance -> (it, each item's head kind, then None)
        self.table = {} if table is None else table  # shared by an analysis's reductions

    def set(self, n, cursor):
        """Make ``cursor`` coroutine ``n``'s and refile ``n`` when its head kind
        changes.  Every change of a coroutine goes through here."""
        self.insts[n] = cursor
        inst, old = cursor[0], self.kinds.get(n)
        kinds = self.kinds_of.get(id(inst)) or self.kinds_of.setdefault(id(inst), (
            inst, tuple(map(_head_kind, [inst] * (len(inst.flow) + 1), range(len(inst.flow) + 1)))))
        self.kinds[n] = kind = kinds[1][cursor[1]]
        if kind == old:
            return
        if old == "receive":
            self.receivers.remove(n)
        if kind == "receive":
            self.receivers.add(n)
        elif kind is not None:
            heapq.heappush(self.heaps.setdefault(kind, []), n)

    def add(self, inst: CorIns) -> int:
        """Number a new coroutine after every earlier one and index its head."""
        n = self.created
        self.created += 1
        self.set(n, (inst, 0, None, inst.constraint, inst.label))
        return n

    def first(self, kind):
        """The earliest-created coroutine whose head is of ``kind`` (not a
        receive), or None, dropping the stale tops of its heap on the way."""
        heap = self.heaps.get(kind)
        while heap:
            if self.kinds.get(heap[0]) == kind:
                return heap[0]
            heapq.heappop(heap)
        return None

    def instantiate(self, app) -> CorIns:
        """The instance a start or inline application evaluates to, started
        once per reduction: everything else ``start`` reads is fixed for the
        reduction, so equal applications, and the cursors of their spawns and
        calls, share the one immutable instance.  One whose start decided no
        guard over a variable is the same in every case: it is kept in
        ``table``.  A start that raises is not kept."""
        inst = self.started.get(app)
        if inst is None:
            inst = self.started[app] = self.table.get((app.target, app.bindings)) or start(
                app.target, app.bindings, self.assumption, self.valuation,
                defs=self.defs, scope=self.scope, table=self.table)
        return inst


def _resume(state, n, conditions):
    """Move receiver ``n`` past its head under the outcome of a successful
    match.  Each frame's rest is canonical, so one that binds nothing only
    moves the cursor; one that binds variables substitutes into the rest."""
    constraint = None if conditions.residual == TRUE else conditions.residual
    cursor = (*_advance(state.insts[n])[:3], constraint, state.insts[n][4])
    if conditions.bindings:
        inst = term_map(_instance(cursor), lambda item: substitute(item, conditions.bindings))
        cursor = canon(inst), 0, None, constraint, inst.label
    state.set(n, cursor)


def _spawn(state, n):
    """Evaluate the yielded coroutine or start application at the head of
    coroutine ``n``, adding the new instance after every live one."""
    head = _head(state.insts[n])
    spawn = head.payload if isinstance(head, Directed) else head
    spawned = state.instantiate(spawn) if isinstance(spawn, StartApp) else spawn
    state.set(n, _advance(state.insts[n]))
    state.add(spawned)
    state.rules.append("YieldCo")
    return state


def _terminate(state, rule, items):
    """Record the last rule and stop: a residual with items is a deadlock."""
    state.rules.append(rule)
    if items:
        state.verdict = Verdict("Deadlock", cor_ins(*items), tuple(state.externals))
    else:
        state.verdict = Verdict("NoDeadlock", ZERO)
    return state


def reduce_step(state: ReductionState):
    """Fire exactly the first applicable rule and return the state.  The
    step that ends the reduction sets ``state.verdict``: ``Inconclusive``
    once ``max_steps`` rules have fired, otherwise from the residual."""
    if state.verdict is not None:
        return state
    if len(state.rules) >= state.max_steps:
        state.verdict = Verdict("Inconclusive", reason="step cap %d reached" % state.max_steps)
        return state
    insts = state.insts

    # 1. inline evaluation at a head
    n = state.first("inline")
    if n is not None:  # push the callee's instance over the rest, unless either is empty
        rest, callee = _advance(insts[n]), state.instantiate(_head(insts[n]))
        below = None if _head(rest) is None else rest[:3]
        state.set(n, (callee, 0, below, *rest[3:]) if callee.flow or below is None else rest)
        state.rules.append("InlineEval")
        return state

    # 2. drop a head item with no behavior
    n = state.first("void")
    if n is not None:
        state.set(n, _advance(insts[n]))
        state.rules.append("RemoveVoid")
        return state

    receivers = sorted(state.receivers)  # in creation order

    # 3. a value is in flight: resume a receiver or externalize it
    if not isinstance(state.pending, ZeroType):
        if state.last_yielder in state.receivers:  # the coroutine that just yielded comes last
            receivers.append(receivers.pop(receivers.index(state.last_yielder)))
        for n in receivers:
            pattern, constraint = _head(insts[n]).payload, insts[n][3]
            if constraint is not None:
                pattern = Constrained(pattern, constraint)
            conditions = match(state.pending, pattern, scope=state.scope)
            if conditions is not BOTTOM:
                _resume(state, n, conditions)
                rule = "Resume"
                break
        else:
            spawner = state.first("spawn")
            if spawner is not None:
                return _spawn(state, spawner)
            state.externals.append(state.pending)
            rule = "External"
        state.pending = ZERO
        state.last_yielder = None
        state.rules.append(rule)
        return state

    # 4. a receiver expecting a whole coroutine (only the first is tried)
    for receiver in receivers:
        pattern = _head(insts[receiver]).payload
        if not isinstance(pattern, (CorIns, CorDef)):
            continue
        for n, cursor in insts.items():
            if n == receiver or _head(cursor) is None:
                continue
            conditions = match(_instance(cursor), pattern, scope=state.scope)
            if conditions is not BOTTOM:
                _resume(state, receiver, conditions)
                del insts[n], state.kinds[n]  # drops n from the heaps when it reaches a top
                state.receivers.discard(n)
                state.rules.append("ResumeCo")
                return state
        break

    # 5. the main coroutine finished; all values have settled
    yielder = state.first("yield")
    main = insts.get(state.main)
    if main is not None and yielder is None and _head(main) is None:
        if state.externals:
            items = [yielded(e) for e in state.externals]
        else:
            items = [yielded(_instance(insts[n])) for n in receivers]
        return _terminate(state, "MainExit", items)

    # 6. transfer the first yielded value into the pending slot
    if yielder is not None:
        cursor = insts[yielder]
        state.pending = _head(cursor).payload
        if cursor[3] is not None:
            state.pending = canon(Constrained(state.pending, cursor[3]))
        state.last_yielder = yielder
        state.set(yielder, _advance(cursor))
        state.rules.append("Yield")
        return state

    # 7. spawn a yielded coroutine or started definition, breadth-first
    spawner = state.first("spawn")
    if spawner is not None:
        return _spawn(state, spawner)

    # 8. nothing can move
    items = [yielded(e) for e in state.externals]
    items += [yielded(_instance(c)) for c in insts.values() if _head(c) is not None]
    return _terminate(state, "CoToExt", items)


def _run(state, initial):
    """Add the initial terms, starting each application, then fire rules
    until one sets the verdict, yielding after each rule."""
    for item in initial:
        if len(state.rules) >= state.max_steps:
            break
        if not isinstance(item, (StartApp, CorIns)):
            raise EngineError("reduce expects instances or start applications, got %s"
                              % render(item))
        state.add(state.instantiate(item) if isinstance(item, StartApp) else item)
        if isinstance(item, StartApp):
            state.rules.append("StartEval")
            yield
    state.main = 0 if state.insts else None  # the first coroutine added
    while state.verdict is None:
        reduce_step(state)
        yield


def reduce(initial, max_steps=DEFAULT_MAX_STEPS, assumption=TRUE, defs=None,
           valuation=None, table=None):
    """Run the machine on a list of instances / start applications.

    The first element is the main coroutine; ``defs`` resolves named
    definition references to canonical definitions (as the factories,
    ``flatten`` and ``notation.parse`` build them), ``valuation``
    partitioned guards (see ``start``); the solver ranges over the symbols
    of the initial terms and ``defs``.  Reductions that differ only in
    ``assumption`` and ``valuation`` may share a ``table`` (see ``start``).
    Each start counts as a step.  Returns the verdict that ``reduce_step``
    sets, and the ``Trace``: the run keeps only the names of the rules it
    fired, and reading a state runs the reduction again.
    """
    initial = [flatten(t) for t in initial]
    settings = dict(
        max_steps=max_steps, assumption=assumption, valuation=valuation, defs=defs,
        scope=(*initial, *(defs or {}).values()), table=table,
    )
    state = ReductionState(**settings)
    for _ in _run(state, initial):
        pass
    return state.verdict, Trace(state.rules, initial, settings)
