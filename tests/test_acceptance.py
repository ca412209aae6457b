"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failure reads as the criterion's FAIL line in the pytest
report.
"""

import random
import time

from flowcheck import notation
from flowcheck.engine import reduce
from flowcheck.gofront import analyze_file, analyze_source
from flowcheck.preds import Binding, Cmp, FALSE, TRUE, conj, pred_evaluate
from flowcheck.solver import Universe, match, reduce_constrained
from flowcheck.terms import (
    Concrete,
    Constrained,
    DefRef,
    Var,
    ZERO,
    cor_def,
    constrained,
    power,
    received,
    seq,
    start_app,
    tup,
)

from paths import CORPUS, corpus_files
from test_oracle import run_comparison


PATTERNS = {
    "nodeadlock/p01_basic.go": "NoDeadlock",
    "nodeadlock/p02_basic_receive_in_function.go": "NoDeadlock",
    "nodeadlock/p03_defer2.go": "NoDeadlock",
    "nodeadlock/p04_inline_func.go": "NoDeadlock",
    "nodeadlock/p05_inline_func_var_outside.go": "NoDeadlock",
    "nodeadlock/p06_main_exit.go": "NoDeadlock",
    "nodeadlock/p07_rec_main.go": "NoDeadlock",
    "nodeadlock/p08_sleeping_receiver.go": "NoDeadlock",
    "nodeadlock/p09_sleeping_sender.go": "NoDeadlock",
    "nodeadlock/p10_wait30.go": "NoDeadlock",
    "deadlock/p11_basic_receive_in_function_extra.go": "Deadlock",
    "deadlock/p12_basic3receive.go": "Deadlock",
    "deadlock/p13_no_sender.go": "Deadlock",
    "deadlock/p14_no_receiver.go": "Deadlock",
    "deadlock/p15_no_live_goroutines.go": "Deadlock",
    "deadlock/p16_out_of_order.go": "Deadlock",
    "deadlock/p17_return_channel.go": "Deadlock",
}

REAL_WORLD = {
    "deadlock/cockroachdb25456.go": "Deadlock",
    "deadlock/grpcgo1424.go": "Deadlock",
    "deadlock/moby33293.go": "Deadlock",
    "deadlock/moby4395.go": "Deadlock",
}

CONDITIONAL = '''package main

import "fmt"

func main() {
	var weekday int

	ch := make(chan int)
	if 1 <= weekday && weekday <= 3 {
		go func() {
			ch <- 1
		}()
	}

	if 3 <= weekday && weekday <= 5 {
		go func() {
			fmt.Println(<-ch)
		}()
	}
}
'''


def _report(number, text):
    print("criterion %d: PASS - %s" % (number, text))


def test_criterion_1_corpus_verdicts():
    started_total = time.monotonic()
    pattern_hits = 0
    for rel, expected in PATTERNS.items():
        started = time.monotonic()
        analysis = analyze_file(CORPUS / rel)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, "%s took %.2fs" % (rel, elapsed)
        assert analysis.worst() == expected, "%s: got %s" % (rel, analysis.worst())
        pattern_hits += 1
    assert pattern_hits == 17

    fixed = analyze_file(CORPUS / "nodeadlock" / "moby4395_fixed.go")
    assert fixed.worst() == "NoDeadlock"

    table_hits = pattern_hits
    for rel, expected in REAL_WORLD.items():
        if analyze_file(CORPUS / rel).worst() == expected:
            table_hits += 1
    assert table_hits >= 20, "only %d/21 table rows reproduced" % table_hits

    total = time.monotonic() - started_total
    assert total < 10.0
    _report(
        1,
        "17/17 patterns, %d/21 table rows, fixed variant clean, %.2fs total"
        % (table_hits, total),
    )


def test_criterion_2_trace_fidelity():
    analysis = analyze_file(CORPUS / "nodeadlock" / "moby4395_fixed.go")
    assert [c.verdict.kind for c in analysis.cases] == ["NoDeadlock"]
    rules = [entry.rule for entry in analysis.cases[0].trace]
    # StartEval and MainExit are machine plumbing around the figure's firings
    assert rules == ["StartEval", "InlineEval", "YieldCo", "Yield", "Resume", "MainExit"]
    final_state = analysis.cases[0].trace[-1].state_after
    assert final_state.startswith("(0, 0)")
    _report(2, "reduction fires InlineEval, YieldCo, Yield, Resume into a clean exit")


def test_criterion_3_out_of_order_residual():
    analysis = analyze_file(CORPUS / "deadlock" / "p16_out_of_order.go")
    verdict = analysis.cases[0].verdict
    assert verdict.kind == "Deadlock"
    assert notation.render(verdict.residual) == "[!String]"
    _report(3, "out-of-order reduces to exactly [!String]")


def test_criterion_4_conditional_partitioning():
    analysis = analyze_source(CONDITIONAL)
    assert len(analysis.cases) == 4, "expected 4 cases, got %d" % len(analysis.cases)

    def verdict_for(value):
        hits = [
            case.verdict.kind
            for case in analysis.cases
            if pred_evaluate(notation.parse_pred(case.label), {"weekday": value})
        ]
        assert len(hits) == 1, "weekday=%d covered by %d cases" % (value, len(hits))
        return hits[0]

    expected = {1: "Deadlock", 2: "Deadlock", 3: "NoDeadlock",
                4: "Deadlock", 5: "Deadlock", 6: "NoDeadlock", 7: "NoDeadlock"}
    for value, kind in expected.items():
        assert verdict_for(value) == kind, "weekday=%d" % value
    _report(4, "4 cases: {1,2} and {4,5} deadlock, {3} and {6,7} clean")


def _random_ground_type(rng, depth=0):
    names = ("Int", "String", "Bool")
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return Concrete(rng.choice(names))
    if roll < 0.75:
        return seq(*[_random_ground_type(rng, depth + 1) for _ in range(rng.randint(2, 3))])
    return tup(*[_random_ground_type(rng, depth + 1) for _ in range(rng.randint(2, 3))])


def test_criterion_5_match_units():
    Int = Concrete("Int")
    universe = Universe(["Int", "String", "Bool", "X", "Y"])

    result = match(seq(*(Int,) * 5), power(Int, Var("n")), universe)
    assert result.bindings == {"n": 5} and result.residual == TRUE

    X, Y = Concrete("X"), Concrete("Y")
    pending = constrained(tup(X, power(Y, Var("j"))), Cmp(Var("j"), "<", 5))
    pattern = constrained(
        tup(power(X, Var("i")), power(Y, Var("j"))), Cmp(Var("j"), ">", 0)
    )
    out = match(pending, pattern, universe)
    assert out.bindings == {"i": 1}
    assert "j" not in out.bindings
    window = conj(Cmp(Var("j"), ">", 0), Cmp(Var("j"), "<", 5))
    for j in range(-4, 10):
        assert pred_evaluate(out.residual, {"j": j}) == pred_evaluate(window, {"j": j})

    rng = random.Random(5)
    for _ in range(1000):
        a = _random_ground_type(rng)
        b = _random_ground_type(rng)
        u = Universe.collect(a, b)
        assert match(a, b, u) == match(b, a, u)
    _report(5, "power binding, uniqueness filtering, 1000 commutative ground pairs")


def test_criterion_6_constraint_rewrites():
    Int = Concrete("Int")
    # the four rewrite rules
    assert reduce_constrained(constrained(Int, FALSE)) == ZERO
    assert reduce_constrained(constrained(Int, TRUE)) == Int
    stacked = Constrained(
        Constrained(Int, Cmp(Var("v"), "<", 9)), Cmp(Var("v"), ">", 2)
    )
    assert reduce_constrained(stacked) == constrained(
        Int, conj(Cmp(Var("v"), "<", 9), Cmp(Var("v"), ">", 2))
    )
    bound = constrained(
        power(Int, Var("n")), conj(Binding(Var("n"), 3), Cmp(Var("n"), ">", 0))
    )
    assert reduce_constrained(bound) == seq(Int, Int, Int)

    rng = random.Random(6)
    ops = ("<", "<=", "=", ">=", ">")
    for _ in range(300):
        t = _random_ground_type(rng)
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if kind < 0.25:
                guard = TRUE if rng.random() < 0.5 else FALSE
            elif kind < 0.5:
                guard = Binding(Var(rng.choice("xyz")), rng.randint(-4, 4))
            else:
                guard = Cmp(Var(rng.choice("xyz")), rng.choice(ops), rng.randint(-4, 4))
            t = Constrained(t, guard)
        out = reduce_constrained(t)
        assert reduce_constrained(out) == out  # a true fixpoint
    _report(6, "four rewrite rules hold; 300 random stacks of depth <= 8 reach fixpoints")


def test_criterion_7_oracle_equivalence():
    determinate, ambiguous, mismatches = run_comparison(5000)
    assert determinate >= 5000
    assert not mismatches
    _report(
        7,
        "5000 determinate random instances match the exhaustive oracle "
        "(%d schedule-dependent instances bounded by reachable verdicts)" % ambiguous,
    )


def test_criterion_8_determinism_and_cap():
    files = corpus_files()
    for path in files:
        first = analyze_file(path)
        second = analyze_file(path)
        render_traces = lambda a: "\n".join(
            entry.line() for case in a.cases for entry in case.trace
        )
        assert render_traces(first) == render_traces(second), path
        assert [c.verdict.kind for c in first.cases] == [
            c.verdict.kind for c in second.cases
        ]

    defs = {
        "main": cor_def(
            start_app(DefRef("main")), received(Concrete("Never")), label="main"
        )
    }
    started = time.monotonic()
    verdict, trace = reduce([start_app(DefRef("main"))], defs=defs)
    assert verdict.kind == "Inconclusive"
    assert len(trace) == 500
    assert time.monotonic() - started < 5.0
    _report(8, "byte-identical reruns on %d files; self-start stops at the cap" % len(files))


def test_criterion_9_unsupported_gating():
    import io

    from flowcheck.cli import EXIT_UNSUPPORTED, run_analyze

    expectations = {
        "buffered.go": "buffered channel",
        "select_stmt.go": "select statement",
        "close_chan.go": "close",
    }
    for name, feature in expectations.items():
        out = io.StringIO()
        code = run_analyze(CORPUS / "unsupported" / name, out=out)
        assert code == EXIT_UNSUPPORTED, name
        assert feature in out.getvalue(), name
        assert "Deadlock" not in out.getvalue().replace("NoDeadlock", "")
    _report(9, "buffered/select/close exit 2 with the feature named, no verdict")
