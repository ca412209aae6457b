"""The deterministic reduction machine over coroutine instances.

Starting a definition picks one branch per union: the first whose guard
the case's assumption and valuation make true.  A guard they leave open
raises ``AmbiguousCondition``; splitting such guards into cases is the job
of ``solver.partition_cases``, before reduction.

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
     append the new instance at the end of the live list
  8. otherwise nothing can move: terminate with the leftover residual

Yields outrank spawns when nothing is in flight, and spawned instances are
appended at the end of the list, so a definition that keeps starting itself
cannot starve the coroutines that are ready to communicate.  Main exit
waits for in-flight and yieldable values to settle (a send blocks its
goroutine until paired, so an undeliverable value is a real block), but it
does fire while unstarted spawns remain, which is what terminates
self-starting recursion.  At main exit the residual holds undeliverable
external yields first; failing that, coroutines left waiting on a receive.
The base calculus rule that re-injects external yields is deliberately
absent; once a value is external, it stays external.

Coroutines are known by identity: ``main`` is the first live entry,
``last_yielder`` the one whose value is in flight.  The step that ends a
reduction sets its verdict: ``Deadlock`` when the residual has items,
``NoDeadlock`` when it is empty, ``Inconclusive`` once ``max_steps`` rules
have fired.

A step costs what it changes, not how many coroutines are live.  Entries
join the live list only through ``ReductionState.add``, which numbers them
in creation order; the list keeps that order, since only ``ResumeCo``
removes an entry.  A head index files each entry under its head kind
whenever the kind changes: one heap per kind, keyed by creation number,
whose stale tops are dropped when read, and the set of receivers, sorted
by creation number when read.  Rules 1-7 pick their entry from the index;
only rule 4's search for a whole coroutine and rule 8's residual walk the
list.  The trace is a chain of deltas: each entry keeps the pending value
and how far the append-only external yields and the log of instance
changes had grown.  Reading an entry's state replays the log forward from
the nearest entry already rebuilt and keeps the result, so reading a whole
trace costs what rendering it does; nothing is rendered until read.
"""

from __future__ import annotations

import heapq

from .notation import render
from .preds import TRUE, conj, neg, pred_evaluate, pred_free_vars, pred_simplify
from .solver import BOTTOM, Universe, match, solve
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
    tail,
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


def _decide(guard, assumption, universe, valuation=None):
    """True / False when the assumption settles the guard, else None.  A
    guard the case split partitioned on is read from the case's
    ``valuation``; only other guards reach the solver."""
    guard = pred_simplify(guard)
    if guard == TRUE:
        return True
    if valuation and guard in valuation:
        return valuation[guard]
    if not pred_free_vars(guard):
        return pred_evaluate(guard, {})
    if solve(conj(guard, assumption), universe) is None:
        return False
    if solve(conj(neg(guard), assumption), universe) is None:
        return True
    return None


def _resolve(t, decide):
    """The canonical ``t`` with every union replaced by its first branch
    whose guard ``decide`` holds.  Unions sit in flow items and in sequence
    or directed payloads; a yielded definition or a start application keeps
    its unions until it is started itself.  A node rebuilt around a chosen
    branch goes through ``canon``, so the result is canonical too."""
    if isinstance(t, Union):
        for payload, guard in branches(t):
            if decide(guard):
                return _resolve(payload, decide)
        raise NoSatisfiableBranch(render(t))
    if isinstance(t, (Seq, Directed)):
        rebuilt = term_map(t, lambda s: _resolve(s, decide))
        return t if rebuilt is t else canon(rebuilt)
    return t


def start(definition, bindings=None, universe=None, assumption=TRUE, valuation=None,
          *, defs=None):
    """Instantiate a canonical definition, or a reference into ``defs``:
    substitute the arguments and resolve each union to one branch.  Both
    keep the flow canonical, and the new flow is canonicalized one level,
    where a chosen branch may have put a sequence or Zero.

    A guard the assumption (or the case's ``valuation``) leaves open raises
    ``AmbiguousCondition``; the case split is what decides such guards.
    """
    if isinstance(definition, DefRef):
        resolved = (defs or {}).get(definition.name)
        if resolved is None:
            raise EngineError("reference to unknown definition %s" % definition.name)
        definition = resolved
    elif not isinstance(definition, CorDef):
        raise EngineError("expected a coroutine definition, got %s" % render(definition))
    if universe is None:
        universe = Universe.collect(definition)

    def decide(guard):
        verdict = _decide(guard, assumption, universe, valuation)
        if verdict is None:
            raise AmbiguousCondition(
                "unresolved branch conditions in %s" % (definition.label or render(definition))
            )
        return verdict

    bound = substitute(definition, dict(bindings)) if bindings else definition
    flow = tuple(_resolve(item, decide) for item in bound.flow)
    return canon(CorIns(flow, bound.constraint, definition.label))


# ---------------------------------------------------------------------------
# reduction state


def _head_kind(head):
    """Which rule a head item can start: "inline", "void", "receive",
    "yield", "spawn", or None."""
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


class _Live:
    """A live coroutine, known by its identity.  ``kind`` is the
    ``_head_kind`` of its head, recomputed whenever ``inst`` is assigned,
    so it never goes stale; an entry added to a ``ReductionState`` also
    logs each new instance there and refiles itself when its kind changes.
    ``order`` is its creation number, which orders the heaps."""

    __slots__ = ("_inst", "kind", "order", "state")

    def __init__(self, inst: CorIns, state=None, order=0):
        self.kind = None
        self.order = order
        self.state = state
        self.inst = inst

    @property
    def inst(self) -> CorIns:
        return self._inst

    @inst.setter
    def inst(self, inst: CorIns):
        self._inst = inst
        kind = _head_kind(inst.flow[0]) if inst.flow else None
        state = self.state
        if state is not None:
            state.log.append((self, inst))
            if kind != self.kind:
                state.refile(self, kind)
        self.kind = kind

    def head(self):
        return self._inst.flow[0] if self._inst.flow else None

    def __lt__(self, other):
        return self.order < other.order


class TraceEntry:
    """A fired rule and the state after it, kept as a delta on the entry
    before it: the pending value, and how far the append-only external
    yields and change log of the reduction reached.  The log holds a
    ``(live entry, instance)`` pair per change, an instance of ``None``
    being a removal.  ``state`` rebuilds the terms ``(pending, externals,
    instances)``; ``state_after`` renders them."""

    __slots__ = ("step", "rule", "pending", "_externals", "_external_count",
                 "_log", "_log_end", "_previous", "_live")

    def __init__(self, step, rule, pending, externals, log, previous):
        self.step = step
        self.rule = rule
        self.pending = pending
        self._externals = externals
        self._external_count = len(externals)
        self._log = log
        self._log_end = len(log)
        self._previous = previous
        self._live = None  # live entry -> instance, in live order, once rebuilt

    @property
    def state(self) -> tuple:
        if self._live is None:
            unbuilt = []
            entry = self
            while entry is not None and entry._live is None:
                unbuilt.append(entry)
                entry = entry._previous
            live, start = ({}, 0) if entry is None else (entry._live, entry._log_end)
            log = self._log
            for entry in reversed(unbuilt):
                live = dict(live)
                for item, inst in log[start:entry._log_end]:
                    if inst is None:
                        del live[item]
                    else:
                        live[item] = inst
                start = entry._log_end
                entry._live = live
        externals = tuple(self._externals[:self._external_count])
        return self.pending, externals, tuple(self._live.values())

    @property
    def state_after(self) -> str:
        pending, externals, instances = self.state
        ext = render(canon(Seq(externals))) if externals else "0"
        body = ", ".join(render(i) for i in instances)
        return "(%s, %s) ⊢ ⊚⟨%s⟩" % (render(pending), ext, body)

    def line(self) -> str:
        return "step %d [%s] %s" % (self.step, self.rule, self.state_after)


class Verdict:
    __slots__ = ("kind", "residual", "externals", "reason")

    def __init__(self, kind, residual=None, externals=(), reason=""):
        self.kind = kind  # "NoDeadlock" | "Deadlock" | "Inconclusive" | "Unsupported"
        self.residual = residual
        self.externals = externals
        self.reason = reason

    def __repr__(self):
        if self.kind == "Deadlock":
            return "Deadlock(%s)" % render(self.residual)
        if self.kind == "Unsupported":
            return "Unsupported(%s)" % self.reason
        return self.kind


class ReductionState:
    __slots__ = (
        "live", "pending", "externals", "steps", "max_steps", "trace", "universe",
        "assumption", "valuation", "defs", "main", "last_yielder", "verdict",
        "heaps", "receivers", "log", "created", "__weakref__",
    )

    def __init__(self, *, pending=ZERO, max_steps=DEFAULT_MAX_STEPS, universe=None,
                 assumption=TRUE, valuation=None, defs=None):
        self.live = []  # _Live entries in creation order
        self.pending = pending
        self.externals = []
        self.steps = 0
        self.max_steps = max_steps
        self.trace = []
        self.universe = universe
        self.assumption = assumption
        self.valuation = {} if valuation is None else valuation
        self.defs = {} if defs is None else defs
        self.main = None  # the _Live entry of the main coroutine
        self.last_yielder = None
        self.verdict = None
        # the head index, and the log of instance changes the trace replays
        self.heaps = {}  # head kind -> heap of entries
        self.receivers = set()
        self.log = []  # (live entry, new instance) pairs
        self.created = 0

    def add(self, inst: CorIns) -> _Live:
        """Append a new coroutine to the live list and index its head."""
        entry = _Live(inst, self, self.created)
        self.created += 1
        self.live.append(entry)
        return entry

    def remove(self, entry: _Live):
        self.live.remove(entry)
        self.receivers.discard(entry)
        entry.state = None  # drops it from the heaps when it reaches a top
        self.log.append((entry, None))

    def refile(self, entry: _Live, kind):
        """File ``entry`` under ``kind``, its head kind from now on."""
        if entry.kind == "receive":
            self.receivers.remove(entry)
        if kind == "receive":
            self.receivers.add(entry)
        elif kind is not None:
            heapq.heappush(self.heaps.setdefault(kind, []), entry)

    def heads(self) -> dict:
        """The earliest-created live entry of each head kind the heaps hold,
        dropping the stale tops on the way."""
        heads = {}
        for kind, heap in self.heaps.items():
            while heap:
                top = heap[0]
                if top.kind == kind and top.state is self:
                    heads[kind] = top
                    break
                heapq.heappop(heap)
        return heads

    def instantiate(self, app) -> CorIns:
        """The instance a start or inline application evaluates to."""
        return start(
            app.target, dict(app.bindings), self.universe, self.assumption,
            self.valuation, defs=self.defs,
        )


def _record(state, rule):
    state.steps += 1
    previous = state.trace[-1] if state.trace else None
    state.trace.append(TraceEntry(
        state.steps, rule, state.pending, state.externals, state.log, previous,
    ))


def _resume(entry, conditions):
    """Move a receiver past its head under the outcome of a successful match.

    Every live instance is canonical and so is its tail, so a match that
    binds nothing leaves the rest of the flow as it is."""
    rest = tail(entry.inst).flow
    constraint = None if conditions.residual == TRUE else conditions.residual
    if not conditions.bindings:
        entry.inst = CorIns(rest, constraint, entry.inst.label)
        return
    rest = tuple(substitute(i, conditions.bindings) for i in rest)
    entry.inst = canon(CorIns(rest, constraint, entry.inst.label))


def _spawn(state, entry):
    """Evaluate the yielded coroutine or start application at the head of
    ``entry``, appending the new instance at the end of the live list."""
    head = entry.head()
    spawn = head.payload if isinstance(head, Directed) else head
    inst = state.instantiate(spawn) if isinstance(spawn, StartApp) else spawn
    entry.inst = tail(entry.inst)
    state.add(inst)
    _record(state, "YieldCo")
    return state


def _terminate(state, rule, items):
    """Record the last rule and stop: a residual with items is a deadlock."""
    _record(state, rule)
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
    if state.steps >= state.max_steps:
        state.verdict = Verdict("Inconclusive", reason="step cap %d reached" % state.max_steps)
        return state

    heads = state.heads()

    # 1. inline evaluation at a head
    entry = heads.get("inline")
    if entry is not None:
        flow = state.instantiate(entry.head()).flow + tail(entry.inst).flow
        entry.inst = canon(CorIns(flow, entry.inst.constraint, entry.inst.label))
        _record(state, "InlineEval")
        return state

    # 2. drop a head item with no behavior
    entry = heads.get("void")
    if entry is not None:
        entry.inst = tail(entry.inst)
        _record(state, "RemoveVoid")
        return state

    receivers = sorted(state.receivers)  # in creation order

    # 3. a value is in flight: resume a receiver or externalize it
    if not isinstance(state.pending, ZeroType):
        # the coroutine that just yielded comes last
        for entry in sorted(receivers, key=lambda e: e is state.last_yielder):
            pattern = entry.head().payload
            if entry.inst.constraint is not None:
                pattern = Constrained(pattern, entry.inst.constraint)
            conditions = match(state.pending, pattern, state.universe)
            if conditions is not BOTTOM:
                _resume(entry, conditions)
                rule = "Resume"
                break
        else:
            spawner = heads.get("spawn")
            if spawner is not None:
                return _spawn(state, spawner)
            state.externals.append(state.pending)
            rule = "External"
        state.pending = ZERO
        state.last_yielder = None
        _record(state, rule)
        return state

    # 4. a receiver expecting a whole coroutine (only the first is tried)
    for receiver in receivers:
        pattern = receiver.head().payload
        if not isinstance(pattern, (CorIns, CorDef)):
            continue
        for other in state.live:
            if other is receiver or not other.inst.flow:
                continue
            conditions = match(other.inst, pattern, state.universe)
            if conditions is not BOTTOM:
                _resume(receiver, conditions)
                state.remove(other)
                _record(state, "ResumeCo")
                return state
        break

    # 5. the main coroutine finished; all values have settled
    yielder = heads.get("yield")
    if state.main is not None and not state.main.inst.flow and yielder is None:
        if state.externals:
            items = [yielded(e) for e in state.externals]
        else:
            items = [yielded(e.inst) for e in receivers]
        return _terminate(state, "MainExit", items)

    # 6. transfer the first yielded value into the pending slot
    if yielder is not None:
        state.pending = yielder.head().payload
        if yielder.inst.constraint is not None:
            state.pending = canon(Constrained(state.pending, yielder.inst.constraint))
        state.last_yielder = yielder
        yielder.inst = tail(yielder.inst)
        _record(state, "Yield")
        return state

    # 7. spawn a yielded coroutine or started definition, breadth-first
    spawner = heads.get("spawn")
    if spawner is not None:
        return _spawn(state, spawner)

    # 8. nothing can move
    items = [yielded(e) for e in state.externals]
    items += [yielded(e.inst) for e in state.live if e.inst.flow]
    return _terminate(state, "CoToExt", items)


def reduce(initial, max_steps=DEFAULT_MAX_STEPS, universe=None, assumption=TRUE,
           defs=None, valuation=None):
    """Run the machine on a list of instances / start applications.

    The first element is the main coroutine; ``defs`` resolves named
    definition references to canonical definitions (as the factories,
    ``flatten`` and ``notation.parse`` build them), ``valuation``
    partitioned guards (see ``_decide``).  Each start counts as a step.  Returns the verdict that
    ``reduce_step`` sets, and the trace.
    """
    initial = [flatten(t) for t in initial]
    if universe is None:
        universe = Universe.collect(*initial, *(defs or {}).values())
    state = ReductionState(
        max_steps=max_steps, universe=universe, assumption=assumption,
        valuation=dict(valuation or {}), defs=dict(defs or {}),
    )
    for item in initial:
        if state.steps >= state.max_steps:
            break
        if not isinstance(item, (StartApp, CorIns)):
            raise EngineError(
                "reduce expects instances or start applications, got %s" % render(item)
            )
        inst = state.instantiate(item) if isinstance(item, StartApp) else item
        state.add(inst)
        if isinstance(item, StartApp):
            _record(state, "StartEval")
    state.main = state.live[0] if state.live else None
    while state.verdict is None:
        reduce_step(state)
    for entry in state.live:
        entry.state = None  # no cycle keeps the finished state alive
    return state.verdict, state.trace
