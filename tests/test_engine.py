"""The reduction machine: rule behavior, traces, verdicts, determinism."""

import contextlib

import pytest

from flowcheck.engine import (
    AmbiguousCondition,
    NoSatisfiableBranch,
    ReductionState,
    _instance,
    reduce,
    reduce_step,
    start,
)
from flowcheck.notation import render
from flowcheck.preds import Cmp, conj, disj, neg
from flowcheck.terms import (
    Concrete,
    CorIns,
    DefRef,
    Var,
    ZERO,
    cor_def,
    cor_ins,
    constrained,
    inline_app,
    received,
    seq,
    start_app,
    union,
    yielded,
)
from test_gofront import independent_guards

Int, Str, Bool, Err = (
    Concrete("Int"),
    Concrete("String"),
    Concrete("Bool"),
    Concrete("Error"),
)
A = Concrete("A")


def moby_defs():
    anon = cor_def(yielded(Err), label="anon")
    run = cor_def(start_app(anon), label="run")
    main = cor_def(inline_app(run), received(Err), label="main")
    return main


class TestStart:
    def branchy(self):
        v = Var("v")
        return cor_def(
            yielded(
                union(
                    constrained(Int, Cmp(v, "<", 10)),
                    constrained(Bool, neg(Cmp(v, "<", 10))),
                )
            ),
            label="s",
        )

    def test_small_argument_picks_first_branch(self):
        assert start(self.branchy(), {"v": 2}) == cor_ins(yielded(Int))

    def test_large_argument_picks_second_branch(self):
        assert start(self.branchy(), {"v": 20}) == cor_ins(yielded(Bool))

    def test_no_unions_no_variables(self):
        d = cor_def(received(A), yielded(Concrete("B")))
        assert start(d, {}) == cor_ins(received(A), yielded(Concrete("B")))

    def test_symbolic_argument_needs_a_deciding_assumption(self):
        with pytest.raises(AmbiguousCondition, match="unresolved branch conditions in s$"):
            start(self.branchy(), {})
        small, large = Cmp(Var("v"), "<", 5), Cmp(Var("v"), ">=", 10)
        assert start(self.branchy(), {}, assumption=small) == cor_ins(yielded(Int))
        assert start(self.branchy(), {}, assumption=large) == cor_ins(yielded(Bool))

    def test_every_branch_unsatisfiable(self):
        v = Var("v")
        d = cor_def(
            yielded(
                union(
                    constrained(Int, conj(Cmp(v, "<", 0), Cmp(v, ">", 0))),
                    constrained(Bool, conj(Cmp(v, "<", 5), Cmp(v, ">", 5))),
                )
            )
        )
        with pytest.raises(NoSatisfiableBranch):
            start(d, {})


class TestUnionResolution:
    """Unions sitting directly in a flow, and unions inside a sequence
    payload, resolve like the payload-level ones above."""

    v_small = Cmp(Var("v"), "<", 10)
    w_small = Cmp(Var("w"), "<", 3)

    def item_union(self):
        p = self.v_small
        return cor_def(
            union(
                constrained(seq(yielded(Int), received(Bool)), p),
                constrained(received(Str), neg(p)),
            ),
            label="s",
        )

    def test_undecided_item_union_is_ambiguous(self):
        with pytest.raises(AmbiguousCondition, match="unresolved branch conditions in s$"):
            start(self.item_union(), {})
        result = start(self.item_union(), {}, assumption=neg(self.v_small))
        assert result == cor_ins(received(Str))

    def test_decided_item_union_splices_its_sequence(self):
        assumption = Cmp(Var("v"), "<", 5)
        result = start(self.item_union(), {}, assumption=assumption)
        assert result == cor_ins(yielded(Int), received(Bool))

    def test_every_item_branch_unsatisfiable(self):
        v = Var("v")
        d = cor_def(
            union(
                constrained(received(Int), conj(Cmp(v, "<", 0), Cmp(v, ">", 0))),
                constrained(received(Bool), conj(Cmp(v, "<", 5), Cmp(v, ">", 5))),
            )
        )
        with pytest.raises(NoSatisfiableBranch):
            start(d, {})

    def test_empty_branch_keeps_its_guard(self):
        # constrained(ZERO, p) flattens to an unguarded 0, so it is chosen
        # only once the guard of the branch before it is decided false
        x = Var("x")
        d = cor_def(
            union(
                constrained(received(Int), Cmp(x, "<=", 0)),
                constrained(ZERO, Cmp(x, ">", 0)),
            )
        )
        with pytest.raises(AmbiguousCondition):
            start(d, {})
        assert start(d, {}, assumption=Cmp(x, ">", 0)) == cor_ins()
        assert start(d, {}, assumption=Cmp(x, "<=", 0)) == cor_ins(received(Int))

    def test_chosen_sequence_branch_distributes_its_directed_sequences(self):
        p = self.v_small
        d = cor_def(
            union(
                constrained(seq(yielded(Int), yielded(seq(Bool, Str))), p),
                constrained(received(Str), neg(p)),
            )
        )
        result = start(d, {}, assumption=Cmp(Var("v"), "<", 5))
        assert result == cor_ins(yielded(Int), yielded(Bool), yielded(Str))

    def test_unions_in_a_yielded_or_started_definition_wait_for_its_start(self):
        v = Var("v")
        inner = cor_def(
            yielded(
                union(
                    constrained(Int, Cmp(v, "<", 10)),
                    constrained(Bool, Cmp(v, ">=", 10)),
                )
            ),
            label="inner",
        )
        d = cor_def(yielded(inner), start_app(inner))
        assert start(d, {}) == cor_ins(yielded(inner), start_app(inner))

    def nested_payload(self):
        p, q = self.v_small, self.w_small
        inner = union(constrained(Bool, q), constrained(Str, neg(q)))
        return cor_def(
            yielded(union(constrained(seq(Int, inner), p), constrained(Err, neg(p))))
        )

    def test_union_inside_a_sequence_payload(self):
        # the outer guard is decided, the inner one is not
        v_below_5 = Cmp(Var("v"), "<", 5)
        with pytest.raises(AmbiguousCondition, match="unresolved branch conditions"):
            start(self.nested_payload(), {}, assumption=v_below_5)
        # the inner union sits in the branch not chosen, so nothing asks for w
        result = start(self.nested_payload(), {}, assumption=neg(self.v_small))
        assert result == cor_ins(yielded(Err))

    def test_an_undecided_union_the_reduction_never_reaches_raises_nothing(self):
        # s waits on ?B for good, and main's external value is the residual:
        # the union after ?B never reaches a head, and no rest holding it is read
        p = self.v_small
        main = cor_def(yielded(A), label="main")
        s = cor_def(received(Concrete("B")),
                    union(constrained(yielded(A), p), constrained(received(A), neg(p))), label="s")
        with pytest.raises(AmbiguousCondition, match="unresolved branch conditions in s$"):
            start(s, {})
        verdict, trace = reduce([start_app(main), start_app(s)])
        assert repr(verdict) == "Deadlock([!A])"
        assert [entry.rule for entry in trace] == [
            "StartEval", "StartEval", "Yield", "External", "MainExit"]

    def test_decided_union_inside_a_sequence_payload(self):
        assumption = conj(Cmp(Var("v"), "<", 5), Cmp(Var("w"), ">=", 3))
        result = start(self.nested_payload(), {}, assumption=assumption)
        assert result == cor_ins(yielded(Int), yielded(Str))


class TestReduceStep:
    def _state(self, live, pending=ZERO):
        state = ReductionState(pending=pending)
        for inst in live:
            state.add(inst)
        state.main = 0 if live else None
        return state

    def test_resume_consumes_pending(self):
        state = self._state([cor_ins(received(Err))], pending=Err)
        reduce_step(state)
        assert state.rules[-1] == "Resume"
        assert _instance(state.insts[0]) == CorIns(())
        assert state.pending == ZERO

    def test_external_when_no_receiver_matches(self):
        state = self._state([cor_ins(received(Int), received(Str))], pending=Str)
        reduce_step(state)
        assert state.rules[-1] == "External"
        assert state.externals == [Str]
        assert state.pending == ZERO

    def test_empty_input_terminates_clean(self):
        state = self._state([])
        reduce_step(state)
        assert state.rules[-1] == "CoToExt"
        assert state.verdict.kind == "NoDeadlock"

    def test_step_cap_sets_inconclusive(self):
        state = self._state([cor_ins(yielded(Int))])
        state.max_steps = 0
        reduce_step(state)
        assert state.verdict.kind == "Inconclusive"
        assert state.verdict.reason == "step cap 0 reached"
        assert state.rules == []
        # a finished reduction stays finished
        verdict = state.verdict
        reduce_step(state)
        assert state.verdict is verdict and state.rules == []


class TestReduce:
    def test_moby_trace(self):
        verdict, trace = reduce([start_app(moby_defs())])
        assert verdict.kind == "NoDeadlock"
        rules = [t.rule for t in trace]
        assert rules == [
            "StartEval",
            "InlineEval",
            "YieldCo",
            "Yield",
            "Resume",
            "MainExit",
        ]

    def test_out_of_order_residual(self):
        work = cor_def(received(Int), received(Str), label="work")
        main = cor_def(start_app(work), yielded(Str), yielded(Int), label="main")
        verdict, _ = reduce([start_app(main)])
        assert verdict.kind == "Deadlock"
        assert render(verdict.residual) == "[!String]"

    def test_empty_input(self):
        verdict, _ = reduce([])
        assert verdict.kind == "NoDeadlock"

    def test_self_cancel_is_permitted(self):
        verdict, _ = reduce(
            [cor_ins(yielded(A), received(A)), cor_ins(received(A), yielded(A))]
        )
        assert verdict.kind == "NoDeadlock"

    def test_single_instance_self_cancel(self):
        verdict, _ = reduce([cor_ins(yielded(A), received(A))])
        assert verdict.kind == "NoDeadlock"

    def test_determinism_byte_identical(self):
        work = cor_def(received(Int), received(Str), label="work")
        main = cor_def(start_app(work), yielded(Str), yielded(Int), label="main")
        runs = []
        for _ in range(2):
            verdict, trace = reduce([start_app(main)])
            runs.append((verdict.kind, "\n".join(t.line() for t in trace)))
        assert runs[0] == runs[1]

    def test_self_start_hits_the_cap(self):
        defs = {
            "loop": cor_def(start_app(DefRef("loop")), received(Concrete("Never")),
                            label="loop")
        }
        verdict, trace = reduce([start_app(DefRef("loop"))], defs=defs)
        assert verdict.kind == "Inconclusive"
        assert len(trace) == 500

    def test_breadth_first_lets_others_progress(self):
        # a self-starting definition is appended at the end, so the pair
        # below still cancels before the cap
        defs = {
            "loop": cor_def(start_app(DefRef("loop")), label="loop"),
        }
        main = cor_def(
            start_app(DefRef("loop")), yielded(A), received(A), label="main"
        )
        verdict, trace = reduce([start_app(main)], defs=defs, max_steps=50)
        rules = [t.rule for t in trace]
        assert "Yield" in rules and "Resume" in rules

    def test_same_label_peer_gets_the_value_before_self_delivery(self):
        # two instances of f share a label; the one that just yielded must
        # still come last among the receivers
        f = cor_def(received(Int), yielded(Int), received(Int), label="f")
        main = cor_def(start_app(f), start_app(f), yielded(Int), label="main")
        verdict, trace = reduce([start_app(main)])
        assert trace[6].line() == "step 7 [Resume] (0, 0) ⊢ ⊚⟨[], [?Int], [!Int; ?Int]⟩"
        assert repr(verdict) == "Deadlock([![?Int]])"

    def test_recursive_start_exits_with_main(self):
        defs = {"main": cor_def(start_app(DefRef("main")), label="main")}
        verdict, _ = reduce([start_app(DefRef("main"))], defs=defs)
        assert verdict.kind == "NoDeadlock"

    def test_receive_of_coroutine_pattern(self):
        # calculus-level coroutine cancelation: a receiver takes a whole
        # live coroutine out of the list
        pattern = cor_ins(yielded(A))
        receiver = cor_ins(received(pattern), yielded(Int))
        victim = cor_ins(yielded(A))
        sink = cor_ins(received(Int))
        verdict, trace = reduce([receiver, victim, sink])
        rules = [t.rule for t in trace]
        assert "ResumeCo" in rules
        assert verdict.kind == "NoDeadlock"

    def test_main_handed_to_a_receiver_never_exits(self):
        # rule 4 takes main itself out of the list; rule 5 must not fire
        # afterwards, so the machine runs on until nothing can move
        main = cor_ins(yielded(A))
        receiver = cor_ins(received(cor_ins(yielded(A))), yielded(Int))
        verdict, trace = reduce([main, receiver, cor_ins(received(Int))])
        assert verdict.kind == "NoDeadlock"
        assert [t.line() for t in trace] == [
            "step 1 [ResumeCo] (0, 0) ⊢ ⊚⟨[!Int], [?Int]⟩",
            "step 2 [Yield] (Int, 0) ⊢ ⊚⟨[], [?Int]⟩",
            "step 3 [Resume] (0, 0) ⊢ ⊚⟨[], []⟩",
            "step 4 [CoToExt] (0, 0) ⊢ ⊚⟨[], []⟩",
        ]


def fan_in_source(n):
    """``main`` starts n receivers on one channel, then sends n times."""
    lines = ["package main", "", "func recv(ch chan int) {", "\t<-ch", "}", "",
             "func main() {", "\tch := make(chan int)"]
    lines += ["\tgo recv(ch)"] * n + ["\tch <- 1"] * n
    return "\n".join(lines + ["}"]) + "\n"


def fanout_source(n):
    """``main`` starts n senders on one channel, then receives n times."""
    lines = ["package main", "", "func send(ch chan int) {", "\tch <- 1", "}", "",
             "func main() {", "\tch := make(chan int)"]
    lines += ["\tgo send(ch)"] * n + ["\t<-ch"] * n
    return "\n".join(lines + ["}"]) + "\n"


@contextlib.contextmanager
def rule_snapshots():
    """The terms ``(pending, externals, instances)`` after each rule that
    ``reduce_step`` fires inside the block, and only there, each cursor made
    an instance at once: a trace read after the block runs its reduction
    again unobserved."""
    import flowcheck.engine as engine

    real, snapshots = engine.reduce_step, []

    def snapshot(state):
        count = len(state.rules)
        real(state)
        if len(state.rules) > count:
            instances = tuple(map(_instance, state.insts.values()))
            snapshots.append((state.pending, tuple(state.externals), instances))
        return state

    engine.reduce_step = snapshot
    try:
        yield snapshots
    finally:
        engine.reduce_step = real


def assert_states_read_both_ways(trace, snapshots):
    """Each entry's state equals its snapshot, read from the last entry
    back and then from the first on."""
    assert len(trace) == len(snapshots)
    pairs = list(zip(trace, snapshots))
    for entry, snapshot in reversed(pairs):
        assert entry.state == snapshot
    for entry, snapshot in pairs:
        assert entry.state == snapshot


class TestTraceState:
    def test_early_entry_keeps_the_state_of_its_step(self):
        # an entry must hold a copy of the state, not the instances that
        # later steps go on changing
        with rule_snapshots() as snapshots:
            _, trace = reduce([cor_ins(yielded(Int), received(Str)),
                               cor_ins(received(Int), yielded(Str))])
        assert [t.rule for t in trace] == [
            "Yield", "Resume", "Yield", "Resume", "MainExit"
        ]
        first = trace[0].state_after
        assert first == "(Int, 0) ⊢ ⊚⟨[?String], [?Int; !String]⟩"
        assert trace[-1].state_after == "(0, 0) ⊢ ⊚⟨[], []⟩"
        assert trace[0].state_after == first
        assert_states_read_both_ways(trace, snapshots)

    def test_untraced_analysis_renders_nothing(self, monkeypatch):
        import flowcheck.engine as engine
        from flowcheck.gofront import analyze_source

        calls = []
        real = engine.render
        monkeypatch.setattr(engine, "render", lambda t: calls.append(t) or real(t))
        analysis = analyze_source(fanout_source(8))
        assert analysis.worst() == "NoDeadlock"
        assert len(analysis.cases[0].trace) > 8
        assert calls == []
        # reading an entry renders its state through the same function
        assert analysis.cases[0].trace[-1].line().endswith("⊢ ⊚⟨%s⟩" % ", ".join(["[]"] * 9))
        assert calls

    def test_only_a_state_read_runs_the_reduction_again(self, monkeypatch):
        import flowcheck.engine as engine
        from flowcheck.gofront import analyze_source

        real, calls = engine.reduce_step, []
        monkeypatch.setattr(engine, "reduce_step", lambda state: calls.append(1) or real(state))
        trace = analyze_source(fanout_source(8)).cases[0].trace
        ran = len(calls)
        assert ran > 8
        # the step count and the rule names are what the run kept
        assert len(trace) == ran + 1  # the start of main
        assert [entry.rule for entry in trace][:2] == ["StartEval", "YieldCo"]
        assert [entry.rule for entry in trace[-2:]] == ["Resume", "MainExit"]
        assert len(calls) == ran
        last = trace[-1].line()
        assert len(calls) == 2 * ran
        assert [entry.line() for entry in trace][-1] == last
        assert len(calls) == 2 * ran

    def test_finished_reduction_is_freed_without_the_cycle_collector(self, monkeypatch):
        # nothing the trace keeps may point back at the state: a cycle would
        # hold every state and its heaps until the collector ran
        import gc
        import weakref

        import flowcheck.engine as engine

        states = []

        def tracked(**kwargs):
            state = ReductionState(**kwargs)
            states.append(weakref.ref(state))
            return state

        monkeypatch.setattr(engine, "ReductionState", tracked)
        enabled = gc.isenabled()
        gc.disable()
        try:
            verdict, trace = reduce([start_app(moby_defs())])
            assert verdict.kind == "NoDeadlock" and len(trace) == 6
            assert [ref() for ref in states] == [None]
        finally:
            if enabled:
                gc.enable()

    def test_a_state_shows_a_union_its_case_leaves_open_as_written(self):
        # the run never reaches s's union, so reading a state must not
        # raise where the reduction did not
        v_small = Cmp(Var("v"), "<", 10)
        defs = {
            "main": cor_def(yielded(A), label="main"),
            "s": cor_def(received(Str), union(constrained(yielded(A), v_small),
                                              constrained(received(A), neg(v_small))),
                         label="s"),
        }
        verdict, trace = reduce([start_app(DefRef("main")), start_app(DefRef("s"))], defs=defs)
        assert render(verdict.residual) == "[!A]" and len(trace) == 5
        s = "[?String; (!A / v < 10 | ?A / v ≥ 10)]"
        assert [entry.line() for entry in trace] == [
            "step 1 [StartEval] (0, 0) ⊢ ⊚⟨[!A]⟩",
            "step 2 [StartEval] (0, 0) ⊢ ⊚⟨[!A], %s⟩" % s,
            "step 3 [Yield] (A, 0) ⊢ ⊚⟨[], %s⟩" % s,
            "step 4 [External] (0, A) ⊢ ⊚⟨[], %s⟩" % s,
            "step 5 [MainExit] (0, A) ⊢ ⊚⟨[], %s⟩" % s,
        ]


def unreachable_after(run):
    """The number of unreachable objects that ``run()`` leaves for the
    cyclic collector, which is paused while it runs; the caller's collector
    state is restored.  Reference counting frees everything else."""
    import gc

    run()  # a first call may fill caches, which stay reachable
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def read_every_trace(analysis):
    for case in analysis.cases:
        for entry in case.trace:
            entry.line()


class TestNoCycles:
    """An analysis, its traces read, leaves no reference cycle: once the
    caller drops it, reference counting frees all of it.  The calculus
    cases reach the solver's walkers, which the Go path never calls."""

    def test_an_analysis_and_its_traces(self):
        from flowcheck.gofront import analyze_source
        from paths import corpus_source

        for source in (independent_guards(8), corpus_source("nodeadlock/p01_basic.go")):
            assert unreachable_after(lambda: read_every_trace(analyze_source(source))) == 0

    def test_a_match_against_a_power(self):
        from flowcheck.solver import match
        from flowcheck.terms import power

        def run():
            assert match(seq(*(Int,) * 5), power(Int, Var("n"))).bindings == {"n": 5}

        assert unreachable_after(run) == 0

    def test_a_guard_that_only_the_assumption_decides(self):
        v_small = Cmp(Var("v"), "<", 10)
        defs = {
            "main": cor_def(start_app(DefRef("s")), received(A), label="main"),
            "s": cor_def(union(constrained(yielded(A), v_small),
                               constrained(received(A), neg(v_small))), label="s"),
        }

        def run():
            verdict, trace = reduce([start_app(DefRef("main"))], defs=defs,
                                    assumption=Cmp(Var("v"), "<", 5))
            assert verdict.kind == "NoDeadlock"
            for entry in trace:
                entry.line()

        assert unreachable_after(run) == 0


def mixed_fanout_source(rng, n, variant):
    """``main`` starts n senders on an int and a string channel, then
    receives n times: in spawn order, reordered, or with a sender missing."""
    kinds = [rng.choice(("int", "string")) for _ in range(n)]
    senders, receives = list(kinds), list(kinds)
    if variant == "reordered":
        rng.shuffle(receives)
    elif variant == "missing":
        del senders[rng.randrange(n)]
    lines = ["package main", ""]
    for kind, value in (("int", "1"), ("string", '"x"')):
        lines += ["func send_%s(c chan %s) {" % (kind, kind), "\tc <- %s" % value, "}", ""]
    lines += ["func main() {", "\tci := make(chan int)", "\tcs := make(chan string)"]
    lines += ["\tgo send_%s(c%s)" % (k, k[0]) for k in senders]
    lines += ["\t<-c%s" % k[0] for k in receives]
    return "\n".join(lines + ["}"]) + "\n"


GUARDS_K2 = """package main

func main() {
\tvar v0 int
\tvar v1 int
\tch := make(chan int)
\tif v0 <= 3 {
\t\tgo func() {
\t\t\tch <- 1
\t\t}()
\t\t<-ch
\t}
\tif v1 > 3 {
\t\t<-ch
\t}
}
"""


def one_variable_chain(n):
    """``main`` with n sequential ``if x > I`` blocks on one unknown ``x``,
    each holding a balanced ``go send; receive`` pair."""
    lines = ["package main", "", "func main() {", "\tvar x int", "\tch := make(chan int)"]
    for i in range(n):
        lines += ["\tif x > %d {" % i, "\t\tgo func() {", "\t\t\tch <- 1", "\t\t}()", "\t\t<-ch",
                  "\t}"]
    return "\n".join(lines + ["}"]) + "\n"


def guards_block(seed):
    """The sources of the first block of the ``guards`` benchmark workload;
    the caller puts ``bench`` on the import path."""
    import workloads
    from paths import ROOT

    return [program.source for program in workloads.build("guards", seed, ROOT).blocks[0]]


# send decides its guard on n, which main binds to the guard variable v
GUARDED_SENDER = """package main

func send(ch chan int, n int) {
\tif n > 3 {
\t\tch <- 1
\t}
}

func main() {
\tvar v int
\tch := make(chan int)
\tgo send(ch, v)
\tif v > 3 {
\t\t<-ch
\t}
}
"""


class TestLiveInvariants:
    """Every cursor's frames hold positions inside their flows, and only the
    bottom frame may be at its end; the instance a cursor stands for stays
    canonical, and the head kind kept for each coroutine is always the kind
    of its current head."""

    def check(self, state):
        from flowcheck.engine import _head_kind
        from flowcheck.terms import flatten

        for n, cursor in state.insts.items():
            inst, pos, below = cursor[:3]
            assert 0 <= pos <= len(inst.flow)
            while below is not None:
                assert pos < len(inst.flow)  # a frame above another is not at its end
                inst, pos, below = below
                assert 0 <= pos <= len(inst.flow)
            materialized = _instance(cursor)
            assert materialized == flatten(materialized)
            assert state.kinds[n] == _head_kind(materialized)

    def sources(self):
        import random

        from paths import corpus_files

        for path in corpus_files():
            yield path.name, path.read_text()
        for variant in ("spawn_order", "reordered", "missing"):
            yield variant, mixed_fanout_source(random.Random(24), 24, variant)
        yield "guards k=2", GUARDS_K2

    def test_after_every_step(self, monkeypatch):
        import flowcheck.engine as engine
        from flowcheck.gofront import analyze_source

        real = engine.reduce_step
        steps = []

        def checked(state):
            self.check(state)
            real(state)
            self.check(state)
            steps.append(len(state.rules))
            return state

        monkeypatch.setattr(engine, "reduce_step", checked)
        verdicts = {}
        for name, source in self.sources():
            verdicts[name] = analyze_source(source).worst()
        # the reordered variant is not pinned: receives across two channel
        # types out of spawn order still read Deadlock (a known defect)
        assert verdicts["spawn_order"] == "NoDeadlock"
        assert verdicts["missing"] == "Deadlock"
        assert verdicts["guards k=2"] == "Deadlock"
        assert len(steps) > 3 * 24 * 3

    def test_reassigned_instance_updates_the_kind(self):
        from flowcheck.engine import _advance, _head

        state = ReductionState()
        n = state.add(cor_ins(received(Int), yielded(Str), start_app(DefRef("f"))))
        assert state.kinds[n] == "receive"
        kinds = []
        while _head(state.insts[n]) is not None:
            state.set(n, _advance(state.insts[n]))
            kinds.append(state.kinds[n])
        assert kinds == ["yield", "spawn", None]
        state.set(n, (cor_ins(inline_app(DefRef("f"))), 0, None, None, None))
        assert state.kinds[n] == "inline"

    def test_a_frame_at_its_end_goes_before_the_next_pushes(self):
        # a chain of calls in tail position keeps one frame; a call with
        # items after it keeps its caller's frame below the callee's
        defs = {
            "f0": cor_def(yielded(Int), inline_app(DefRef("f1")), label="f0"),
            "f1": cor_def(yielded(Int), inline_app(DefRef("f2")), label="f1"),
            "f2": cor_def(yielded(Int), label="f2"),
        }
        state = ReductionState(defs=defs)
        state.main = n = state.add(cor_ins(inline_app(DefRef("f0")), yielded(Str)))
        state.add(cor_ins(received(Int), received(Int), received(Int), received(Str)))
        depths = []
        while state.verdict is None:
            reduce_step(state)
            depth, frame = 0, state.insts[n]
            while frame is not None:
                depth, frame = depth + 1, frame[2]
            depths.append(depth)
        assert state.verdict.kind == "NoDeadlock"
        assert max(depths) == 2 and depths[-1] == 1


class TestResume:
    def _step(self, inst, pending):
        state = ReductionState(pending=pending)
        state.main = state.add(inst)
        reduce_step(state)
        assert state.rules[-1] == "Resume"
        return state.insts[state.main]

    def test_binding_free_resume_keeps_the_rest_of_the_flow(self):
        inst = cor_ins(received(Int), yielded(Str), received(cor_ins(yielded(A))))
        cursor = self._step(inst, Int)
        assert cursor[0] is inst and cursor[1] == 1  # the cursor moved; nothing was copied
        after = _instance(cursor)
        assert len(after.flow) == 2
        assert all(a is b for a, b in zip(after.flow, inst.flow[1:]))

    def test_binding_resume_substitutes_the_rest(self):
        x = Var("x")
        after = _instance(self._step(cor_ins(received(x), yielded(x)), Int))
        assert after == cor_ins(yielded(Int))


class TestClassify:
    """The step that ends a reduction classifies its residual into
    ``state.verdict``."""

    def _run(self, live):
        state = ReductionState()
        for inst in live:
            state.add(inst)
        while state.verdict is None:
            reduce_step(state)
        return state

    def test_zero_residual(self):
        # no main: the machine runs until nothing can move
        state = self._run([cor_ins(yielded(Int)), cor_ins(received(Int))])
        assert state.rules[-1] == "CoToExt"
        assert state.verdict.kind == "NoDeadlock" and state.verdict.residual == ZERO

    def test_nonzero_residual(self):
        state = self._run([cor_ins(yielded(Str))])
        assert state.rules == ["Yield", "External", "CoToExt"]
        assert state.verdict.kind == "Deadlock"
        assert render(state.verdict.residual) == "[!String]"
        assert state.verdict.externals == (Str,)

    def test_step_cap(self):
        verdict, trace = reduce([cor_ins(yielded(Int), received(Int))], max_steps=1)
        assert [t.rule for t in trace] == ["Yield"]
        assert verdict.kind == "Inconclusive"
        assert verdict.reason == "step cap 1 reached"

    def test_deadlock_always_carries_nonzero_residual(self):
        verdict, trace = reduce([cor_ins(yielded(Int))])
        assert trace[-1].rule == "MainExit"
        assert verdict.kind == "Deadlock" and verdict.residual != ZERO
        assert verdict.externals == (Int,)


def random_flows(rng, symbols, count, length):
    """One to ``count`` instances of up to ``length`` directed items each."""
    from flowcheck.terms import Directed, RECEIVE, YIELD

    return [
        CorIns(tuple(
            Directed(rng.choice((YIELD, RECEIVE)), Concrete(rng.choice(symbols)))
            for _ in range(rng.randint(0, length))
        ))
        for _ in range(rng.randint(1, count))
    ]


class TestConservation:
    def test_items_only_leave_through_sanctioned_rules(self):
        # multiset of directed items across live + pending + externals:
        # Yield and External preserve it, Resume removes a matched pair,
        # RemoveVoid removes one void item, terminals stop the machine
        import random
        from collections import Counter

        from flowcheck.engine import ReductionState, reduce_step
        from flowcheck.terms import ZeroType

        rng = random.Random(7)
        symbols = ("A", "B", "C")
        for _ in range(300):
            live = random_flows(rng, symbols, 4, 3)
            state = ReductionState()
            for inst in live:
                state.add(inst)
            state.main = 0

            def census():
                counts = Counter()
                for cursor in state.insts.values():
                    for item in _instance(cursor).flow:
                        counts[item] += 1
                if not isinstance(state.pending, ZeroType):
                    counts[("pending", state.pending)] += 1
                for e in state.externals:
                    counts[("external", e)] += 1
                return counts

            while state.verdict is None:
                before = sum(census().values())
                rule_count = len(state.rules)
                reduce_step(state)
                after = sum(census().values())
                rule = state.rules[-1] if len(state.rules) > rule_count else None
                if rule == "Resume":
                    assert after == before - 2
                elif rule == "RemoveVoid":
                    assert after == before - 1
                elif rule in ("Yield", "External"):
                    assert after == before
                elif rule in ("MainExit", "CoToExt"):
                    break


class TestRulePriorityTotality:
    def test_every_state_advances_or_terminates(self):
        # the machine never gets stuck: each step fires a rule or produces
        # a terminal, within the cap
        import random

        from flowcheck.engine import ReductionState, reduce_step

        rng = random.Random(11)
        for _ in range(200):
            state = ReductionState(max_steps=100)
            for inst in random_flows(rng, ("A", "B"), 3, 3):
                state.add(inst)
            state.main = 0
            while state.verdict is None:
                steps_before = len(state.rules)
                reduce_step(state)
                assert len(state.rules) == steps_before + 1


def random_calculus_states(seed, count):
    """Hand-built states: the instances ``TestConservation`` draws, with
    extra items spliced in: self-starting and plain starts, an inline
    application, a void head, a yielded instance and a receive of a whole
    coroutine, which fires ``ResumeCo``."""
    import random

    from flowcheck.engine import ReductionState
    from flowcheck.terms import Directed, YIELD

    C = Concrete("C")
    defs = {
        "loop": cor_def(yielded(A), start_app(DefRef("loop")), label="loop"),
        "echo": cor_def(received(Concrete("B")), yielded(C), label="echo"),
        "call": cor_def(yielded(C), Directed(YIELD, ZERO), label="call"),
    }
    extras = (
        start_app(DefRef("loop")), start_app(DefRef("echo")), inline_app(DefRef("call")),
        Directed(YIELD, ZERO), yielded(cor_ins(received(C))), received(cor_ins(yielded(A))),
    )
    symbols = ("A", "B", "C")
    rng = random.Random(seed)
    for _ in range(count):
        state = ReductionState(defs=defs, max_steps=60)
        for inst in random_flows(rng, symbols, 4, 3):
            items = list(inst.flow)
            for _ in range(rng.choice((0, 0, 1, 2))):
                items.insert(rng.randint(0, len(items)), rng.choice(extras))
            state.add(CorIns(tuple(items)))
        state.main = 0
        yield state


class TestHeadIndex:
    """The head index picks the coroutine a linear walk of the instances
    would, and the trace of a reduction of the same instances reads the
    state a full copy would have kept."""

    @staticmethod
    def predictions(state):
        """For each rule, the coroutine it would act on now, found by walking
        ``state.insts``: the first of the rule's head kind, or for a resume
        the first receiver, the one that just yielded last, that matches."""
        from flowcheck.engine import _head_kind
        from flowcheck.solver import BOTTOM, match
        from flowcheck.terms import Constrained, CorDef, ZeroType

        insts = {n: _instance(cursor) for n, cursor in state.insts.items()}

        def first(kind):
            return next((n for n, inst in insts.items() if _head_kind(inst) == kind), None)

        receivers = [n for n, inst in insts.items() if _head_kind(inst) == "receive"]
        predicted = {
            "InlineEval": first("inline"), "RemoveVoid": first("void"),
            "Yield": first("yield"), "YieldCo": first("spawn"),
            "ResumeCo": next((n for n in receivers
                              if isinstance(insts[n].flow[0].payload, (CorIns, CorDef))),
                             None),
            "Resume": None,
        }
        if not isinstance(state.pending, ZeroType):
            for n in sorted(receivers, key=lambda n: n == state.last_yielder):
                pattern = insts[n].flow[0].payload
                if insts[n].constraint is not None:
                    pattern = Constrained(pattern, insts[n].constraint)
                if match(state.pending, pattern) is not BOTTOM:
                    predicted["Resume"] = n
                    break
        return predicted

    def test_fired_rule_acts_on_the_entry_a_walk_predicts(self):
        from collections import Counter

        fired = Counter()
        for state in random_calculus_states(3, 300):
            while state.verdict is None:
                predicted = self.predictions(state)
                before = dict(state.insts)
                count = len(state.rules)
                reduce_step(state)
                if len(state.rules) == count:
                    break  # the step cap
                rule = state.rules[-1]
                fired[rule] += 1
                # a coroutine that ResumeCo removed was not acted on
                acted = [n for n, inst in before.items()
                         if state.insts.get(n, inst) is not inst]
                expected = predicted.get(rule)
                assert acted == ([] if expected is None else [expected]), rule
        assert set(fired) == {
            "InlineEval", "RemoveVoid", "Resume", "YieldCo", "External",
            "ResumeCo", "MainExit", "Yield", "CoToExt",
        }

    def test_delta_trace_equals_full_snapshots(self):
        for state in random_calculus_states(5, 300):
            with rule_snapshots() as snapshots:
                _, trace = reduce(list(map(_instance, state.insts.values())),
                                  max_steps=state.max_steps, defs=state.defs)
            assert_states_read_both_ways(trace, snapshots)


class TestRecursiveInline:
    def test_self_inlining_definition_hits_the_cap(self):
        # a function that calls itself re-splices forever; the cap catches it
        defs = {
            "f": cor_def(inline_app(DefRef("f")), label="f"),
            "main": cor_def(
                inline_app(DefRef("f")), received(Concrete("X")), label="main"
            ),
        }
        verdict, trace = reduce([start_app(DefRef("main"))], defs=defs)
        assert verdict.kind == "Inconclusive"
        assert len(trace) == 500


class TestStartMemo:
    """Each application is bound once per analysis: a start only binds the
    arguments, so its instance is the same in every case, and the cases and
    forks of one run share it.  Main's instance is its definition's own
    flow, unions and all; each case's trace still shows the branches that
    case takes, since a trace runs its case again alone."""

    @staticmethod
    def counted_binds(monkeypatch):
        import flowcheck.engine as engine

        calls = []
        real = engine._bind

        def counted(definition, bindings, defs):
            inst = real(definition, bindings, defs)
            calls.append((definition, inst))
            return inst

        monkeypatch.setattr(engine, "_bind", counted)
        return calls

    def test_fanout_starts_main_and_the_sender_once(self, monkeypatch):
        from flowcheck.gofront import analyze_source

        calls = self.counted_binds(monkeypatch)
        analysis = analyze_source(fanout_source(50))
        assert analysis.worst() == "NoDeadlock"
        assert [definition for definition, _ in calls] == [DefRef("main"), DefRef("send")]
        assert [e.rule for e in analysis.cases[0].trace].count("YieldCo") == 50

    def test_different_bindings_start_distinct_instances(self, monkeypatch):
        calls = self.counted_binds(monkeypatch)
        defs = {"f": cor_def(yielded(Var("x")), label="f")}
        main = cor_def(
            start_app(DefRef("f"), {"x": Int}), start_app(DefRef("f"), {"x": Str}),
            received(Int), received(Str), label="main",
        )
        verdict, trace = reduce([start_app(main)], defs=defs)
        assert verdict.kind == "NoDeadlock"
        assert [render(inst) for _, inst in calls] == [
            "[Start(f, x ↦ Int); Start(f, x ↦ String); ?Int; ?String]", "[!Int]", "[!String]",
        ]
        assert [e.rule for e in trace[:3]] == ["StartEval", "YieldCo", "Yield"]
        assert [render(i) for i in trace[1].state[2]] == [
            "[Start(f, x ↦ String); ?Int; ?String]", "[!Int]",
        ]

    def test_each_case_starts_main_with_its_own_branch(self, monkeypatch):
        from flowcheck.gofront import analyze_source

        calls = self.counted_binds(monkeypatch)
        analysis = analyze_source(GUARDS_K2)
        assert len(analysis.cases) == 4
        mains = [inst for definition, inst in calls if definition == DefRef("main")]
        assert [render(inst) for inst in mains] == [
            "[(<Start(anon@8), ?Int> / v0 ≤ 3 | 0); (?Int / v1 > 3 | 0)]"]
        # each case's first state resolves main's unions its own way
        assert [render(case.trace[0].state[2][0]) for case in analysis.cases] == [
            "[Start(anon@8); ?Int]", "[Start(anon@8); ?Int; ?Int]", "[]", "[?Int]"]

    def test_a_guard_free_sender_starts_once_per_analysis(self, monkeypatch):
        from flowcheck.gofront import analyze_source

        calls = self.counted_binds(monkeypatch)
        analysis = analyze_source(GUARDS_K2)
        senders = [(d, inst) for d, inst in calls if d != DefRef("main")]
        assert [(d, render(inst)) for d, inst in senders] == [(DefRef("anon@8"), "[!Int]")]
        # both cases whose branch starts the sender spawn that instance; each
        # trace runs its case again alone, so it shows an equal one
        spawned = [e.state[2][-1] for c in analysis.cases for e in c.trace if e.rule == "YieldCo"]
        assert len(spawned) == 2
        assert all(inst == senders[0][1] for inst in spawned)

    def test_a_start_that_decides_a_guard_starts_in_each_case(self, monkeypatch):
        from flowcheck.gofront import analyze_source

        calls = self.counted_binds(monkeypatch)
        analysis = analyze_source(GUARDED_SENDER)
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [
            ("v ≤ 3", "NoDeadlock"), ("v ≥ 4", "NoDeadlock")]
        # send(ch, v) is bound once; each case resolves its union on v > 3
        assert [(d.name, render(inst)) for d, inst in calls] == [
            ("main", "[Start(send, n ↦ v); (?Int / v > 3 | 0)]"),
            ("send", "[(!Int / v > 3 | 0)]"),
        ]
        assert [[render(i) for i in c.trace[1].state[2]] for c in analysis.cases] == [
            ["[]", "[]"], ["[?Int]", "[!Int]"]]

    def test_a_start_whose_bindings_close_its_guards_starts_once(self, monkeypatch):
        from flowcheck.gofront import analyze_source

        calls = self.counted_binds(monkeypatch)
        analysis = analyze_source(GUARDED_SENDER.replace(
            "\tgo send(ch, v)\n\tif v > 3 {\n\t\t<-ch\n\t}\n",
            "\tgo send(ch, v)\n\tgo send(ch, 7)\n\t<-ch\n"))
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [
            ("v ≤ 3", "NoDeadlock"), ("v ≥ 4", "Deadlock")]
        # main, send(ch, v) and send(ch, 7) are each bound once, whatever
        # their guards; 7 > 3 is closed, v > 3 is read from each case
        assert [(d.name, render(inst)) for d, inst in calls] == [
            ("main", "[Start(send, n ↦ v); Start(send, n ↦ 7); ?Int]"),
            ("send", "[(!Int / v > 3 | 0)]"), ("send", "[(!Int | 0)]"),
        ]

    def test_a_union_free_definition_starts_as_its_own_flow(self, monkeypatch):
        # a start binds no variable of a definition called without arguments,
        # or whose arguments it does not read: its instance shares the
        # definition's flow, unions and all, unwalked
        import flowcheck.engine as engine
        from flowcheck.gofront import analyze_source

        real, shared = engine._bind, []

        def bind(definition, bindings, defs):
            inst = real(definition, bindings, defs)
            shared.append((definition.name, inst.flow is defs[definition.name].flow))
            return inst

        monkeypatch.setattr(engine, "_bind", bind)
        assert analyze_source(fanout_source(8)).worst() == "NoDeadlock"
        assert shared == [("main", True), ("send", True)]
        shared.clear()
        analyze_source(GUARDS_K2)  # main holds the unions, the sender none
        assert shared == [("main", True), ("anon@8", True)]

    FORKED = {  # each name's sources, made when its test runs
        "k=2": lambda: [GUARDS_K2],
        "guarded sender": lambda: [GUARDED_SENDER],
        "guards seed 1": lambda: guards_block(1),
        "guards seed 90210": lambda: guards_block(90210),
        "independent k=6": lambda: [independent_guards(6)],
        "chain of 12": lambda: [one_variable_chain(12)],
    }

    @pytest.mark.parametrize("name", list(FORKED))
    def test_a_shared_table_leaves_each_case_trace_as_reduced_alone(self, name, monkeypatch):
        # each case of the one forked run against a reduction of that case alone
        from flowcheck.gofront import analyze_source
        from flowcheck.gofront.parser import parse
        from flowcheck.gofront.translate import compute_m, unresolved_condition_preds
        from flowcheck.solver import partition_cases
        from paths import ROOT

        def outcome(verdict):
            residual = None if verdict.residual is None else render(verdict.residual)
            return verdict.kind, residual, [render(e) for e in verdict.externals], verdict.reason

        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        compared = 0
        for source in self.FORKED[name]():
            analysis = analyze_source(source)  # every case has run before a trace is read
            defs = compute_m(parse(source)).cordefs
            cases = partition_cases(unresolved_condition_preds(defs))
            assert len(cases) == len(analysis.cases) > 1
            for result, case in zip(analysis.cases, cases):
                verdict, alone = reduce([start_app(DefRef("main"))], defs=defs,
                                        assumption=case.assumption, valuation=case.valuation)
                assert result.label == case.label
                assert outcome(result.verdict) == outcome(verdict)
                assert [entry.line() for entry in result.trace] == [entry.line() for entry in alone]
            compared += len(cases)
        assert compared >= 2

    def test_a_forked_analysis_fires_fewer_steps_than_its_cases(self, monkeypatch):
        # the steps before a fork fire once for every case that shares them
        import flowcheck.engine as engine
        from flowcheck.gofront import analyze_source

        real, calls = engine.reduce_step, []
        monkeypatch.setattr(engine, "reduce_step", lambda state: calls.append(1) or real(state))
        analysis = analyze_source(independent_guards(8))
        assert len(analysis.cases) == 256 and analysis.worst() == "NoDeadlock"
        alone = sum(len(case.trace) for case in analysis.cases)
        assert (len(calls), alone) == (1021, 3584)

    def test_shared_instances_trace_full_snapshots(self):
        from flowcheck.gofront import analyze_source

        with rule_snapshots() as snapshots:
            analysis = analyze_source(fanout_source(12))
        trace = analysis.cases[0].trace
        assert any(len(set(map(id, instances))) < len(instances) for _, _, instances in snapshots)
        assert len(trace) == len(snapshots) + 1  # the start of main
        for entry, expected in reversed(list(zip(trace[1:], snapshots))):
            assert entry.state == expected


def test_the_engine_takes_no_symbol_universe():
    # the solver collects one from the terms a query reaches it with
    import inspect

    import flowcheck.engine as engine

    for entry in (engine.reduce, engine.start, engine.ReductionState):
        assert "universe" not in inspect.signature(entry).parameters, entry.__name__
    assert "universe" not in engine.ReductionState.__slots__
    assert not hasattr(engine, "Universe")


class TestReductionSymbols:
    """A query that reaches the solver inside ``reduce`` ranges over every
    symbol of the reduction, also one that its own terms do not name."""

    def test_a_match_ranges_over_a_symbol_the_two_types_do_not_name(self):
        # x = y ∧ ¬(y = A) pins both to B, which only later items carry
        x, y, B = Var("x"), Var("y"), Concrete("B")
        verdict, trace = reduce([
            cor_ins(yielded(x), yielded(B)),
            cor_ins(received(y), received(B), constraint=neg(Cmp(y, "=", A))),
        ])
        assert verdict.kind == "NoDeadlock"
        assert [e.rule for e in trace[:2]] == ["Yield", "Resume"]
        assert trace[1].line() == "step 2 [Resume] (0, 0) ⊢ ⊚⟨[!B], [?B]⟩"

    def test_a_guard_ranges_over_a_symbol_its_definition_does_not_name(self):
        # over the definition's symbols alone, {A}, the guard would hold
        guard = Cmp(Var("y"), "=", A)
        d = cor_def(
            union(constrained(yielded(A), guard), constrained(received(A), neg(guard))),
            label="s",
        )
        assert start(d, {}) == cor_ins(yielded(A))
        with pytest.raises(AmbiguousCondition, match="unresolved branch conditions in s$"):
            reduce([start_app(d), cor_ins(yielded(Concrete("B")))])

    def test_a_guard_ranges_over_the_symbols_of_its_assumption(self):
        from flowcheck.engine import _decide

        x, B = Var("x"), Concrete("B")
        guard = Cmp(x, "=", A)
        assert _decide(guard, disj(Cmp(x, "=", B), guard)) is None
        assert _decide(guard, Cmp(x, "=", B)) is False


def straight_line_main(n):
    """``main`` runs n pairs of ``go func() { ch <- 1 }()`` and ``<-ch``."""
    lines = ["package main", "", "func main() {", "\tch := make(chan int)"]
    lines += ["\tgo func() {", "\t\tch <- 1", "\t}()", "\t<-ch"] * n
    return "\n".join(lines + ["}"]) + "\n"


def test_a_doubled_straight_line_main_at_most_2_5_times_the_memory():
    # a run that kept every version of main's shrinking flow would need
    # memory quadratic in n, about 3.3 times as much per doubling
    import tracemalloc

    from flowcheck.gofront import analyze_source

    peaks = []
    for n in (300, 600):
        source = straight_line_main(n)
        tracemalloc.start()
        try:
            analysis = analyze_source(source, max_steps=10**6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert analysis.worst() == "NoDeadlock" and analysis.steps == 3 * n + 2
    assert peaks[1] <= 2.5 * peaks[0], peaks


def straight_line_defs(n):
    """The straight-line ``main`` as terms: n pairs of a start of ``send``,
    which sends once, and a receive."""
    return {
        "send": cor_def(yielded(Int), label="send"),
        "main": cor_def(*[start_app(DefRef("send")), received(Int)] * n, label="main"),
    }


def send_chain_defs(n):
    """``main`` starts ``f0`` and receives n times; each ``fI`` sends and
    then calls ``fI+1`` inline, and the last one only sends."""
    defs = {"f%d" % i: cor_def(yielded(Int), inline_app(DefRef("f%d" % (i + 1))), label="f%d" % i)
            for i in range(n - 1)}
    defs["f%d" % (n - 1)] = cor_def(yielded(Int), label="f%d" % (n - 1))
    defs["main"] = cor_def(start_app(DefRef("f0")), *[received(Int)] * n, label="main")
    return defs


def reduce_seconds(defs):
    """The processor time ``reduce`` takes to run ``main`` of ``defs`` to
    ``NoDeadlock``, with the cyclic collector paused: its full collections
    fall at heap size thresholds, so they would blur a doubling."""
    import gc
    import time

    gc.disable()
    try:
        began = time.process_time()
        verdict, _ = reduce([start_app(DefRef("main"))], max_steps=10**7, defs=defs)
        took = time.process_time() - began
    finally:
        gc.enable()
    assert verdict.kind == "NoDeadlock"
    return took


class TestEngineScales:
    """A step costs the same however long the flow: for each family, the
    best of three reductions at 2n costs at most 2.5 times the best at n,
    where linear growth reads about 2 and quadratic about 4.  A step that
    copied the rest of a flow is quadratic in both families: in ``main``'s
    long flow, and in the send chain's ``main`` and its inline calls.  Runs
    at n and 2n alternate, so a slow spell of the machine falls on both."""

    @pytest.mark.parametrize("family, n", [(straight_line_defs, 4000), (send_chain_defs, 8000)],
                             ids=["straight-line main", "send chain"])
    def test_a_doubling_costs_at_most_2_5_times(self, family, n):
        defs = family(n), family(2 * n)
        best = [min(times) for times in zip(*(
            [reduce_seconds(d) for d in defs] for _ in range(3)))]
        assert best[1] <= 2.5 * best[0], best


def test_a_fan_in_reads_about_one_head_per_rule(monkeypatch):
    # a step that sorted every receiver, or read each receiver's head to
    # find one expecting a whole coroutine, would read about n heads per rule
    import flowcheck.engine as engine
    from flowcheck.gofront import analyze_source

    real, reads = engine._head, []
    monkeypatch.setattr(engine, "_head", lambda cursor: reads.append(1) or real(cursor))
    analysis = analyze_source(fan_in_source(500), max_steps=10**6)
    assert analysis.worst() == "NoDeadlock" and analysis.steps == 3 * 500 + 2
    assert len(reads) < 1.5 * analysis.steps, (len(reads), analysis.steps)
