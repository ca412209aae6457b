"""The deterministic reduction machine over coroutine instances.

A start only binds a definition's arguments, so the instance it begins is
the same in every case, and an analysis binds each application once.  A
union is resolved when it reaches the head of a coroutine, before the next
rule: the first branch whose guard the case's valuation (failing that, its
assumption) makes true is pushed as a frame, as an inline call pushes its
callee.  A guard the case leaves open raises ``AmbiguousCondition``;
splitting such guards into cases is the job of ``solver.partition_cases``,
before reduction.  ``reduce_cases`` reduces all the cases of an analysis in
one run: where its cases choose different branches, the state forks once
per side, so the steps before a fork fire once for every case that shares
them.  ``reduce`` is that run for one case.

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
``first`` for that kind, one more of the receivers that expect a whole
coroutine, and the set of receivers, sorted only when a value is in flight
and at main exit.  Rules 1-7 pick their coroutine from the index; only
rule 4's search for a whole coroutine and rule 8's residual walk every
coroutine.  An instance is built from a cursor, through ``canon``, only
where one is read, with the unions left in it resolved for the run's
cases.  A run keeps only the names of the rules it fired.  The machine is
deterministic, so reading a state of the trace runs that case again alone
from the same inputs, once per trace, and keeps the state after each rule;
a trace nobody reads costs nothing.  A state shows a rest whose union its
case leaves open as written: no rule reached that union.
"""

from __future__ import annotations

import heapq

from .notation import render
from .preds import TRUE, conj, neg, pred_evaluate, pred_free_vars, pred_simplify
from .record import Record
from .solver import BOTTOM, Case, match, solve, universe_of
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


class _Split(Exception):
    """The cases of a run give a guard different verdicts, one per case."""

    def __init__(self, verdicts):
        super().__init__()
        self.verdicts = verdicts


# ---------------------------------------------------------------------------
# starting definitions and resolving unions


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


def _branches(t, table):
    """The ``(payload, guard, flow)`` of each branch of the union ``t``: its
    guard simplified, or its value once simplifying leaves no variable, and
    the flow it splices in, worked out once per ``table`` and kept by
    identity; an entry keeps its term alive, so no id is reused."""
    entry = table.get(id(t))
    if entry is None:
        guards = [(p, pred_simplify(g)) for p, g in branches(t)]
        entry = table[id(t)] = t, [
            (p, g if pred_free_vars(g) else pred_evaluate(g, {}), canon(CorIns((p,))))
            for p, g in guards]
    return entry[1]


def _choose(t, decide, table):
    """The ``(payload, flow)`` of the first branch of the union ``t`` whose
    guard is True or, over a variable, ``decide`` holds."""
    for payload, guard, flow in _branches(t, table):
        if guard is True or guard is not False and decide(guard):
            return payload, flow
    raise NoSatisfiableBranch(render(t))


def _resolve(t, decide, table):
    """The canonical ``t`` with every union replaced by its first branch
    (see ``_choose``).  Unions sit in flow items and in sequence or directed
    payloads; a yielded definition or a start application keeps
    its unions until it is started itself.  A node rebuilt around a chosen
    branch goes through ``canon``, so the result is canonical too.
    ``table`` keeps each union's branches (see ``_branches``) and, by
    identity, each subtree found to hold no union, so neither is walked
    twice."""
    if isinstance(t, Union):
        return _resolve(_choose(t, decide, table)[0], decide, table)
    if isinstance(t, (Seq, Directed)) and id(t) not in table:
        rebuilt = term_map(t, lambda s: _resolve(s, decide, table))
        if rebuilt is not t:
            return canon(rebuilt)
        table[id(t)] = t  # holds no union
    return t


def _holds_union(t) -> bool:
    """Whether ``_resolve`` would replace a union in ``t``."""
    if isinstance(t, Seq):
        return any(map(_holds_union, t.items))
    if isinstance(t, Directed):
        return _holds_union(t.payload)
    return isinstance(t, Union)


def _bind(definition, bindings, defs):
    """The instance a start or inline application of a canonical definition,
    or of a reference into ``defs``, begins as: its flow with the arguments
    substituted, each union still in it."""
    if isinstance(definition, DefRef):
        resolved = (defs or {}).get(definition.name)
        if resolved is None:
            raise EngineError("reference to unknown definition %s" % definition.name)
        definition = resolved
    elif not isinstance(definition, CorDef):
        raise EngineError("expected a coroutine definition, got %s" % render(definition))
    bound = substitute(definition, dict(bindings)) if bindings else definition
    return CorIns(bound.flow, bound.constraint, definition.label)


def start(definition, bindings=None, assumption=TRUE, valuation=None, *, defs=None, scope=()):
    """Instantiate a canonical definition, or a reference into ``defs``:
    substitute the arguments and resolve each union to one branch.  Both
    keep the flow canonical, and the new flow is canonicalized one level,
    where a chosen branch may have put a sequence or Zero.

    A guard the case split partitioned on is read from the case's
    ``valuation``; only other guards over a variable reach the solver, over
    the symbols of the bound definition and of the terms in ``scope``.  One
    the assumption leaves open raises ``AmbiguousCondition``; the case split
    is what decides such guards.  The engine itself binds at a start and
    resolves each union when it reaches a head; this is the calculus's Start.
    """
    inst = _bind(definition, bindings, defs)
    state = ReductionState(cases=(Case(assumption, "", valuation or {}),), scope=scope)
    cursor = inst, 0, None, inst.constraint, inst.label
    return _instance(cursor, state.resolver(cursor))


# ---------------------------------------------------------------------------
# reduction state


def _head_kind(inst, pos=0):
    """Which rule item ``pos`` of the flow of ``inst`` can start at its head:
    "inline", "void", "receive", "yield", "spawn", or None; "union" when a
    union in it is to be resolved first."""
    if pos == len(inst.flow):
        return None
    head = inst.flow[pos]
    if isinstance(head, InlineApp):
        return "inline"
    if isinstance(head, Directed):
        if isinstance(head.payload, (Seq, Union, Directed)) and _holds_union(head.payload):
            return "union"
        if isinstance(head.payload, ZeroType):
            return "void"
        if head.direction == RECEIVE:
            return "receive"
        if isinstance(head.payload, (CorIns, StartApp)):
            return "spawn"
        return None if isinstance(head.payload, CorDef) else "yield"
    if isinstance(head, (StartApp, CorIns)):
        return "spawn"
    return "union" if isinstance(head, Union) else None


def _head(cursor):
    flow = cursor[0].flow
    return flow[cursor[1]] if cursor[1] < len(flow) else None


def _advance(cursor):
    """The cursor past its head, in the frame below once its flow ends."""
    inst, pos, below, constraint, label = cursor
    if pos + 1 == len(inst.flow) and below is not None:
        return (*below, constraint, label)
    return inst, pos + 1, below, constraint, label


def _instance(cursor, resolve=None):
    """The canonical instance ``cursor`` stands for: each frame's rest, top
    first; at the start of its one instance, that very instance.  With
    ``resolve`` (see ``ReductionState.resolver``), each union left in the
    rest is replaced by the branch its run chooses."""
    inst, pos, below, constraint, label = cursor
    if not pos and below is None and constraint is inst.constraint and label == inst.label:
        if resolve is None:
            return inst
        resolved = term_map(inst, resolve)
        return inst if resolved is inst else canon(resolved)
    flow = list(inst.flow[pos:])
    while below is not None:
        inst, pos, below = below
        flow += inst.flow[pos:]
    if resolve is not None:
        flow = map(resolve, flow)
    return canon(CorIns(tuple(flow), constraint, label))


def _shown(cursor, state):
    """``cursor``'s instance, its unions resolved for the case of ``state``
    or, where the case leaves a guard open, as written: no rule read it."""
    try:
        return _instance(cursor, state.resolver(cursor))
    except AmbiguousCondition:
        return _instance(cursor)


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
        states, last, made, _ = self._trace.states()  # made: id of a cursor -> instance
        pending, count, cursors = states[self.step - 1]
        insts = tuple(made.get(id(c)) or made.setdefault(id(c), _shown(c, last)) for c in cursors)
        return pending, tuple(last.externals[:count]), insts

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
    """The rules a reduction fired for one case, read as a sequence of
    ``TraceEntry``s, each built when read.  The first read of a state runs
    that case again alone from the same inputs and keeps the state after
    each rule: the pending value, how far the external yields had grown,
    the cursors."""

    __slots__ = ("rules", "_inputs", "_states")

    def __init__(self, rules, initial, settings, case):
        self.rules = rules
        self._inputs = initial, settings, case  # ``settings`` are ``ReductionState``'s keywords
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
            initial, settings, case = self._inputs
            state, states = ReductionState(cases=(case,), **settings), []
            for _ in _run(state, initial):
                if len(state.rules) > len(states):
                    cursors = tuple(state.insts.values())
                    states.append((state.pending, len(state.externals), cursors))
            self._states = states, state, {}, {}  # instances, texts, by id
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


# what a fork takes over from its parent as it is; it copies the other fields
_SHARED = ("pending", "max_steps", "defs", "scope", "main", "last_yielder", "verdict", "created",
           "started", "kinds_of", "table", "forks")


class ReductionState:
    __slots__ = _SHARED + (
        "insts", "kinds", "externals", "rules", "cases", "heaps", "receivers", "__weakref__",
    )

    def __init__(self, *, pending=ZERO, max_steps=DEFAULT_MAX_STEPS, cases=(Case(TRUE, ""),),
                 defs=None, scope=()):
        self.insts = {}  # number -> cursor of each live coroutine, in creation order
        self.kinds = {}  # number -> head kind of its cursor
        self.pending = pending
        self.externals = []
        self.rules = []  # the name of each rule fired
        self.max_steps = max_steps
        self.cases = cases  # the cases this run reduces: each has an assumption and a valuation
        self.defs = {} if defs is None else defs
        self.scope = scope  # terms whose symbols the solver's symbol variables range over
        self.main = None  # the number of the main coroutine
        self.last_yielder = None  # the number of the coroutine whose value is in flight
        self.verdict = None
        self.heaps = {}  # the head index: head kind -> heap of numbers,
        self.receivers = set()  # numbers whose head is a receive
        self.created = 0
        # what no case changes, shared by every fork
        self.started = {}  # application -> the instance it started
        self.kinds_of = {}  # id of an instance -> (it, each item's head kind, then None)
        self.table = {}  # what ``_resolve`` keeps
        self.forks = []  # the forks of this run that are still to reduce

    def set(self, n, cursor):
        """Make ``cursor`` coroutine ``n``'s and refile ``n`` when its head kind
        changes.  Every change of a coroutine goes through here."""
        self.insts[n] = cursor
        inst, pos = cursor[0], cursor[1]
        old = self.kinds.get(n)
        kinds = self.kinds_of.get(id(inst)) or self.kinds_of.setdefault(id(inst), (
            inst, tuple(map(_head_kind, [inst] * (len(inst.flow) + 1), range(len(inst.flow) + 1)))))
        self.kinds[n] = kind = kinds[1][pos]
        if kind == "receive" and isinstance(inst.flow[pos].payload, (CorIns, CorDef)):
            heapq.heappush(self.heaps.setdefault("whole", []), n)
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

    def first_whole(self):
        """The earliest-created receiver that expects a whole coroutine, or
        None, dropping the stale tops of its heap on the way."""
        heap = self.heaps.get("whole")
        while heap:
            n = heap[0]
            if self.kinds.get(n) == "receive" and isinstance(
                    _head(self.insts[n]).payload, (CorIns, CorDef)):
                return n
            heapq.heappop(heap)
        return None

    def instantiate(self, app) -> CorIns:
        """The instance a start or inline application evaluates to, bound
        once per run: it is the same in every case, so equal applications,
        and the cursors of their spawns and calls, share the one immutable
        instance."""
        inst = self.started.get(app)
        if inst is None:
            inst = self.started[app] = _bind(app.target, app.bindings, self.defs)
        return inst

    def decider(self, cursor):
        """``decide`` for a union in the rest of ``cursor``: the verdict that
        every case of this run gives a guard.  A guard partitioned on is
        read from each case's valuation; any other reaches the solver over
        the symbols of the top frame's instance, of ``scope`` and of the
        case's assumption.  Raises ``AmbiguousCondition`` when a case leaves
        the guard open, and ``_Split`` when the cases give it different
        verdicts."""
        def decide(guard):
            verdicts = [case.valuation.get(guard) for case in self.cases]
            if None in verdicts:
                verdicts = [_decide(guard, case.assumption, cursor[0], *self.scope)
                            if verdict is None else verdict
                            for case, verdict in zip(self.cases, verdicts)]
                if None in verdicts:
                    raise AmbiguousCondition(
                        "unresolved branch conditions in %s" % (cursor[4] or render(cursor[0])))
            if verdicts.count(verdicts[0]) < len(verdicts):
                raise _Split(verdicts)
            return verdicts[0]

        return decide

    def resolver(self, cursor):
        """A function that resolves each union in an item of the rest of
        ``cursor`` for this run's cases (see ``_resolve``)."""
        decide = self.decider(cursor)
        return lambda item: _resolve(item, decide, self.table)

    def fork(self, verdicts):
        """Split the run by each case's verdict on a guard: this state goes on
        for the cases that gave True, and a copy for the others.  The copy
        shares the cursors, the instances and what no case changes, and
        copies what a rule changes."""
        other = object.__new__(ReductionState)
        for name in _SHARED:
            setattr(other, name, getattr(self, name))
        other.insts, other.kinds = dict(self.insts), dict(self.kinds)
        other.heaps = {kind: list(heap) for kind, heap in self.heaps.items()}
        other.receivers, other.externals = set(self.receivers), list(self.externals)
        other.rules = list(self.rules)
        other.cases = [case for case, verdict in zip(self.cases, verdicts) if not verdict]
        self.cases = [case for case, verdict in zip(self.cases, verdicts) if verdict]
        return other


def _push(state, n, callee):
    """Put the flow of ``callee`` in place of coroutine ``n``'s head: a frame
    over the rest, unless either is empty."""
    rest = _advance(state.insts[n])
    below = None if _head(rest) is None else rest[:3]
    state.set(n, (callee, 0, below, *rest[3:]) if callee.flow or below is None else rest)


def _open_unions(state):
    """Resolve the union at each head, pushing the flow of the branch that
    the run's cases choose; a union a chosen flow starts with is next.
    Where the cases part on a guard, the cases on one side go on in a fork,
    which joins ``forks`` with its unions still to resolve."""
    n = state.first("union")
    while n is not None:
        cursor = state.insts[n]
        head, decide = _head(cursor), state.decider(cursor)
        try:
            if isinstance(head, Union):
                flow = _choose(head, decide, state.table)[1]
            else:  # a directed item whose payload holds a union
                flow = canon(CorIns((_resolve(head, decide, state.table),)))
        except _Split as split:
            state.forks.append(state.fork(split.verdicts))
            continue
        _push(state, n, flow)
        n = state.first("union")


def _resume(state, n, conditions):
    """Move receiver ``n`` past its head under the outcome of a successful
    match.  Each frame's rest is canonical, so one that binds nothing only
    moves the cursor; one that binds variables substitutes into the rest."""
    constraint = None if conditions.residual == TRUE else conditions.residual
    cursor = (*_advance(state.insts[n])[:3], constraint, state.insts[n][4])
    if conditions.bindings:
        rest = _instance(cursor, state.resolver(cursor))
        inst = term_map(rest, lambda item: substitute(item, conditions.bindings))
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


def _residual(state, numbers):
    """The instances of coroutines ``numbers``, each yielded, their unions
    resolved."""
    return [yielded(_instance(c, state.resolver(c))) for c in map(state.insts.get, numbers)]


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
    once ``max_steps`` rules have fired, otherwise from the residual.  A
    rule that reads a rest whose unions the run's cases resolve differently
    raises ``_Split`` before it changes the state."""
    if state.verdict is not None:
        return state
    if len(state.rules) >= state.max_steps:
        state.verdict = Verdict("Inconclusive", reason="step cap %d reached" % state.max_steps)
        return state
    if state.heaps.get("union"):
        _open_unions(state)
    insts = state.insts

    # 1. inline evaluation at a head: push the callee's instance over the rest
    n = state.first("inline")
    if n is not None:
        _push(state, n, state.instantiate(_head(insts[n])))
        state.rules.append("InlineEval")
        return state

    # 2. drop a head item with no behavior
    n = state.first("void")
    if n is not None:
        state.set(n, _advance(insts[n]))
        state.rules.append("RemoveVoid")
        return state

    # 3. a value is in flight: resume a receiver or externalize it
    if not isinstance(state.pending, ZeroType):
        receivers = sorted(state.receivers)  # in creation order
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

    # 4. the first receiver expecting a whole coroutine takes the first that matches
    receiver = state.first_whole()
    if receiver is not None:
        pattern = _head(insts[receiver]).payload
        for n, cursor in insts.items():
            if n == receiver or _head(cursor) is None:
                continue
            whole = _instance(cursor, state.resolver(cursor))
            conditions = match(whole, pattern, scope=state.scope)
            if conditions is not BOTTOM:
                _resume(state, receiver, conditions)
                del insts[n], state.kinds[n]  # drops n from the heaps when it reaches a top
                state.receivers.discard(n)
                state.rules.append("ResumeCo")
                return state

    # 5. the main coroutine finished; all values have settled
    yielder = state.first("yield")
    main = insts.get(state.main)
    if main is not None and yielder is None and _head(main) is None:
        if state.externals:
            items = [yielded(e) for e in state.externals]
        else:
            items = _residual(state, sorted(state.receivers))
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
    items += _residual(state, [n for n, c in insts.items() if _head(c) is not None])
    return _terminate(state, "CoToExt", items)


def _run(state, initial):
    """Add the initial terms, starting each application, then fire rules
    until every fork has set its verdict, yielding the state after each
    rule.  Where a rule reads a rest whose unions the cases of a state
    resolve differently, the step fires again in a fork for each side."""
    for item in initial:
        if len(state.rules) >= state.max_steps:
            break
        if not isinstance(item, (StartApp, CorIns)):
            raise EngineError("reduce expects instances or start applications, got %s"
                              % render(item))
        state.add(state.instantiate(item) if isinstance(item, StartApp) else item)
        if isinstance(item, StartApp):
            state.rules.append("StartEval")
            yield state
    state.main = 0 if state.insts else None  # the first coroutine added
    forks = state.forks
    forks.append(state)
    while forks:
        state = forks.pop()
        while state.verdict is None:
            try:
                reduce_step(state)
            except _Split as split:
                forks += state, state.fork(split.verdicts)
                break
            yield state


def _reduce(initial, cases, max_steps, defs):
    """Run the machine once for ``cases``; see ``reduce_cases``."""
    initial = [flatten(t) for t in initial]
    settings = dict(max_steps=max_steps, defs=defs, scope=(*initial, *(defs or {}).values()))
    leaves = {}  # id of a case -> the verdict and the rules of its fork
    for state in _run(ReductionState(cases=cases, **settings), initial):
        if state.verdict is not None:
            leaves.update(dict.fromkeys(map(id, state.cases), (state.verdict, state.rules)))
    return [(verdict, Trace(rules, initial, settings, case))
            for case, (verdict, rules) in zip(cases, map(leaves.get, map(id, cases)))]


def reduce_cases(initial, cases, max_steps=DEFAULT_MAX_STEPS, defs=None):
    """Run the machine on a list of instances / start applications once for
    all of ``cases`` (each has an ``assumption`` and a ``valuation``, as
    ``solver.partition_cases`` makes them), forking where their branches
    part.  Returns each case's verdict and ``Trace``, in order.  One case
    goes through ``reduce``, the one-case call of the same run."""
    if len(cases) == 1:
        return [reduce(initial, max_steps, cases[0].assumption, defs, cases[0].valuation)]
    return _reduce(initial, list(cases), max_steps, defs)


def reduce(initial, max_steps=DEFAULT_MAX_STEPS, assumption=TRUE, defs=None, valuation=None):
    """Run the machine on a list of instances / start applications.

    The first element is the main coroutine; ``defs`` resolves named
    definition references to canonical definitions (as the factories,
    ``flatten`` and ``notation.parse`` build them), ``valuation``
    partitioned guards (see ``start``); the solver ranges over the symbols
    of the initial terms and ``defs``.  Each start counts as a step.
    Returns the verdict that ``reduce_step`` sets, and the ``Trace``: the
    run keeps only the names of the rules it fired, and reading a state
    runs the reduction again.
    """
    return _reduce(initial, [Case(assumption, "", valuation or {})], max_steps, defs)[0]
