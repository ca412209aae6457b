"""Frontend: parsing, the coroutine map, constant propagation, analysis."""

import pytest

from flowcheck import notation
from flowcheck.cli import main
from flowcheck.gofront import (
    GoSyntaxError,
    Unsupported,
    analyze_source,
    compute_m,
    parse,
)
from flowcheck.gofront.goast import (
    ChanType,
    DeferStmt,
    GoStmt,
    MakeExpr,
    NamedType,
    ShortVarDecl,
)

from paths import corpus_files, corpus_source

ALL_FEATURES = '''package main

import "fmt"

func main() {
	channel := make(chan int)

	defer func() { fmt.Print(<-channel) }()
	go func() {
		if true {
			channel <- 20
		}
	}()
}
'''

MOBY_FIXED = corpus_source("nodeadlock/moby4395_fixed.go")
OUT_OF_ORDER = corpus_source("deadlock/p16_out_of_order.go")

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


class TestParse:
    def test_all_features_shape(self):
        prog = parse(ALL_FEATURES)
        main = prog.functions["main"]
        decl, deferred, started = main.body
        assert isinstance(decl, ShortVarDecl)
        assert decl.expr == MakeExpr(ChanType(NamedType("int")), None)
        assert isinstance(deferred, DeferStmt)
        assert isinstance(started, GoStmt)
        assert any(name.startswith("anon@") for name in prog.functions)

    def test_empty_main(self):
        prog = parse("package main\n\nfunc main() {\n}\n")
        assert prog.functions["main"].body == ()

    def test_buffered_channel_rejected(self):
        with pytest.raises(Unsupported) as e:
            parse("package main\nfunc main() { ch := make(chan int, 3); ch <- 1 }")
        assert e.value.feature == "buffered channel"

    def test_explicit_zero_capacity_accepted(self):
        parse("package main\nfunc main() { ch := make(chan int, 0); ch <- 1 }")

    def test_select_rejected(self):
        with pytest.raises(Unsupported) as e:
            parse("package main\nfunc main() { select {} }")
        assert e.value.feature == "select statement"

    def test_close_rejected(self):
        with pytest.raises(Unsupported) as e:
            parse("package main\nfunc main() { ch := make(chan int); close(ch) }")
        assert e.value.feature == "close"

    def test_directional_channel_rejected(self):
        with pytest.raises(Unsupported):
            parse("package main\nfunc f(ch chan<- int) {}\nfunc main() {}")

    def test_for_rejected(self):
        with pytest.raises(Unsupported) as e:
            parse("package main\nfunc main() { for {} }")
        assert e.value.feature == "for loop"

    def test_sync_rejected(self):
        with pytest.raises(Unsupported) as e:
            parse(
                'package main\nimport "sync"\nfunc main() { var wg sync.WaitGroup\n'
                "\twg.Wait() }"
            )
        assert e.value.feature in ("sync primitives", "non-struct type declaration")

    def test_syntax_error_carries_line(self):
        with pytest.raises(GoSyntaxError) as e:
            parse("package main\nfunc main() { ch := }\n")
        assert e.value.line == 2

    def test_grouped_parameters(self):
        prog = parse("package main\nfunc sum(x, y int, ch chan int) {}\nfunc main() {}")
        params = prog.functions["sum"].params
        assert params == (
            ("x", NamedType("int")),
            ("y", NamedType("int")),
            ("ch", ChanType(NamedType("int"))),
        )


class TestCoroutineMap:
    def test_moby(self):
        tr = compute_m(parse(MOBY_FIXED))
        rendered = {n: notation.render(d) for n, d in tr.cordefs.items()}
        assert rendered["main"] == "corDef[Inline(run); ?Error]"
        assert rendered["run"].startswith("corDef[Start(anon@")
        anon = next(n for n in rendered if n.startswith("anon@"))
        assert rendered[anon] == "corDef[!Error]"

    def test_out_of_order(self):
        tr = compute_m(parse(OUT_OF_ORDER))
        rendered = {n: notation.render(d) for n, d in tr.cordefs.items()}
        assert rendered["work"] == "corDef[?Int; ?String]"
        assert rendered["main"] == "corDef[Start(work); !String; !Int]"

    def test_print_only_function_is_absent(self):
        source = '''package main

import "fmt"

func report() {
	fmt.Println("hello")
}

func main() {
	ch := make(chan int)
	go report()
	ch <- 1
}
'''
        tr = compute_m(parse(source))
        assert "report" not in tr.cordefs
        assert "main" in tr.cordefs

    def test_membership_is_a_fixed_point(self):
        # calling a coroutine transitively makes the caller one
        source = '''package main

func leaf(ch chan int) {
	ch <- 1
}

func middle(ch chan int) {
	leaf(ch)
}

func main() {
	ch := make(chan int)
	go middle(ch)
	<-ch
}
'''
        tr = compute_m(parse(source))
        assert set(tr.cordefs) == {"leaf", "middle", "main"}
        assert notation.render(tr.cordefs["middle"]) == "corDef[Inline(leaf)]"

    def test_statement_typing(self):
        source = '''package main

import "fmt"

func main() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	fmt.Println("no channel interaction here")
	fmt.Println(<-ch)
}
'''
        tr = compute_m(parse(source))
        main = notation.render(tr.cordefs["main"])
        assert main.startswith("corDef[Start(anon@")
        assert main.endswith("?Int]")

    def test_conditional_guard_typing(self):
        tr = compute_m(parse(CONDITIONAL))
        main = notation.render(tr.cordefs["main"])
        assert "1 ≤ weekday ∧ weekday ≤ 3" in main
        assert "(Start(anon@" in main

    def test_statically_true_condition_prunes(self):
        tr = compute_m(parse(ALL_FEATURES))
        anon_go = max(n for n in tr.cordefs if n.startswith("anon@"))
        assert notation.render(tr.cordefs[anon_go]) == "corDef[!Int]"


class TestFlowAnalysis:
    def test_literal_argument(self):
        source = '''package main

var ch chan int = make(chan int)

func s(v int) {
	if v < 10 {
		ch <- v
	}
}

func main() {
	go s(2)
	<-ch
}
'''
        tr = compute_m(parse(source))
        assert "Start(s, v ↦ 2)" in notation.render(tr.cordefs["main"])

    def test_propagated_local_constant(self):
        source = '''package main

var ch chan int = make(chan int)

func s(v int) {
	if v < 10 {
		ch <- v
	}
}

func main() {
	x := 5
	go s(x)
	<-ch
}
'''
        tr = compute_m(parse(source))
        assert "Start(s, v ↦ 5)" in notation.render(tr.cordefs["main"])

    def test_unknown_value_stays_symbolic(self):
        source = '''package main

var ch chan int = make(chan int)

func s(v int) {
	if v < 10 {
		ch <- v
	}
}

func readInt() int {
	return 7
}

func main() {
	go s(readInt())
	<-ch
}
'''
        tr = compute_m(parse(source))
        main = notation.render(tr.cordefs["main"])
        assert "Start(s, v ↦ arg@" in main


def with_sender(main_body):
    """A program whose ``s(v)`` sends on the global ``ch`` when ``v < 10``,
    with a ``readInt`` that no constant propagation sees through."""
    return (
        "package main\n\nvar ch chan int = make(chan int)\n\n"
        "func s(v int) {\n\tif v < 10 {\n\t\tch <- v\n\t}\n}\n\n"
        "func readInt() int {\n\treturn 7\n}\n\n"
        "func main() {\n%s}\n" % main_body
    )


class TestGoAndDefer:
    def test_go_receives_its_argument_before_the_start(self):
        main = notation.render(compute_m(parse(with_sender("\tgo s(<-ch)\n"))).cordefs["main"])
        assert main.startswith("corDef[?Int; Start(s, v ↦ ")

    def test_defer_receives_its_argument_now_and_inlines_last(self):
        source = with_sender("\tdefer s(<-ch)\n\tch <- 1\n")
        main = notation.render(compute_m(parse(source)).cordefs["main"])
        assert main.startswith("corDef[?Int; !Int; Inline(s, v ↦ ")
        assert main.endswith(")]")

    @pytest.mark.parametrize(
        "branch, feature, line",
        # main's "if y > 0 {" is line 17: a defer reports its own line, a
        # return the line of its if
        [("\t\tdefer s(1)\n", "defer inside a conditional", 18),
         ("\t\t<-ch\n\t\treturn\n", "return inside an undecided conditional", 17)],
        ids=["defer", "return"],
    )
    def test_undecided_conditional_rejects(self, branch, feature, line):
        source = with_sender("\tvar y int\n\tif y > 0 {\n%s\t}\n" % branch)
        assert source.splitlines()[16] == "\tif y > 0 {"
        with pytest.raises(Unsupported) as raised:
            compute_m(parse(source))
        assert (raised.value.feature, raised.value.line) == (feature, line)

    @pytest.mark.parametrize(
        "assignment",
        ["\tvar y int\n\tif y > 0 {\n\t\tx = 6\n\t}\n", "\tx = readInt()\n"],
        ids=["undecided branch", "call result"],
    )
    def test_constant_overwritten_with_an_unknown_reaches_the_callee_by_name(self, assignment):
        source = with_sender("\tx := 5\n%s\tgo s(x)\n\t<-ch\n" % assignment)
        assert "Start(s, v ↦ x)" in notation.render(compute_m(parse(source)).cordefs["main"])


def independent_guards(k):
    """``main`` with k integer variables, each guarding its own balanced
    ``go send; receive`` pair under ``vI <= 3``."""
    lines = ["package main", "", "func main() {"]
    lines += ["\tvar v%d int" % i for i in range(k)]
    lines.append("\tch := make(chan int)")
    for i in range(k):
        lines += ["\tif v%d <= 3 {" % i, "\t\tgo func() {", "\t\t\tch <- 1",
                  "\t\t}()", "\t\t<-ch", "\t}"]
    return "\n".join(lines + ["}"]) + "\n"


def nested_guards(depth):
    """``main`` with ``depth`` nested ``if x > i`` blocks on one unknown
    ``x``, each holding a balanced ``go send; receive`` pair."""
    lines = ["package main", "", "func main() {", "\tvar x int", "\tch := make(chan int)"]
    for i in range(depth):
        indent = "\t" * (i + 2)
        lines += [indent[1:] + "if x > %d {" % i, indent + "go func() { ch <- 1 }()",
                  indent + "<-ch"]
    lines += ["\t" * (i + 1) + "}" for i in reversed(range(depth))]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.fixture
def engine_calls(monkeypatch):
    """``engine_calls(name)`` wraps the engine's ``name`` and returns the
    list that collects the arguments of every call."""
    import flowcheck.engine as engine

    def wrap(name):
        calls = []
        real = getattr(engine, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine, name, counting)
        return calls

    return wrap


@pytest.fixture
def solve_calls(engine_calls):
    """The arguments of every ``solve`` call the engine makes."""
    return engine_calls("solve")


class TestPartitionedGuardsSkipTheSolver:
    """Each case carries the truth value of every guard the case split
    partitioned on, so whole-file analysis never proves one again (see
    also ``TestAnalyze.test_six_independent_guards``)."""

    def test_nested_guards_make_no_solve_call(self, solve_calls):
        analysis = analyze_source(nested_guards(16))
        assert len(analysis.cases) == 17
        assert {c.verdict.kind for c in analysis.cases} == {"NoDeadlock"}
        assert solve_calls == []

    def test_a_guard_in_no_valuation_still_reaches_the_solver(self, solve_calls):
        from flowcheck.engine import start
        from flowcheck.preds import Cmp
        from flowcheck.solver import Universe
        from flowcheck.terms import (
            Concrete, Var, constrained, cor_def, received, union, yielded,
        )

        x = Var("x")
        guard = Cmp(x, "<=", 3)
        definition = cor_def(union(
            constrained(received(Concrete("Int")), guard),
            constrained(yielded(Concrete("Int")), Cmp(x, ">", 3)),
        ))
        universe = Universe.collect(definition)
        assumption = Cmp(x, "<=", 0)
        other = {Cmp(Var("y"), "<=", 3): True}
        chosen = start(definition, {}, universe, assumption, other)
        assert chosen.flow == (received(Concrete("Int")),)
        assert solve_calls
        solve_calls.clear()
        assert start(definition, {}, universe, assumption, {guard: True}) == chosen
        assert solve_calls == []


class TestAnalyze:
    def test_six_independent_guards(self, solve_calls, engine_calls):
        # one case per guard valuation; each case reads its guards from
        # its valuation, so this makes no solve call, and a start without
        # bindings uses the canonical definition as it is
        substitute_calls = engine_calls("substitute")
        analysis = analyze_source(independent_guards(6))
        assert len(analysis.cases) == 64
        assert {c.verdict.kind for c in analysis.cases} == {"NoDeadlock"}
        assert solve_calls == []
        assert substitute_calls == []

    def test_conditional_partitions_into_four_cases(self):
        analysis = analyze_source(CONDITIONAL)
        assert len(analysis.cases) == 4
        by_verdict = {}
        for case in analysis.cases:
            by_verdict[case.label] = case.verdict.kind
        import re

        def verdict_for(value):
            from flowcheck.notation import parse_pred
            from flowcheck.preds import pred_evaluate

            for case in analysis.cases:
                if pred_evaluate(parse_pred(case.label), {"weekday": value}):
                    return case.verdict.kind
            raise AssertionError("no case covers weekday=%d" % value)

        assert verdict_for(1) == "Deadlock"
        assert verdict_for(2) == "Deadlock"
        assert verdict_for(3) == "NoDeadlock"
        assert verdict_for(4) == "Deadlock"
        assert verdict_for(5) == "Deadlock"
        assert verdict_for(6) == "NoDeadlock"
        assert verdict_for(7) == "NoDeadlock"

    def test_moby_single_case_clean(self):
        analysis = analyze_source(MOBY_FIXED)
        assert [c.verdict.kind for c in analysis.cases] == ["NoDeadlock"]

    def test_no_sender_pattern_deadlocks(self):
        source = corpus_source("deadlock/p13_no_sender.go")
        analysis = analyze_source(source)
        assert analysis.worst() == "Deadlock"

    def test_no_main_function(self):
        analysis = analyze_source("package main\nfunc helper() {}\n")
        assert analysis.worst() == "Unsupported"
        assert "main" in analysis.cases[0].verdict.reason

    def test_main_without_channels_is_clean(self):
        analysis = analyze_source('package main\nfunc main() {\n}\n')
        assert analysis.worst() == "NoDeadlock"

    def test_same_typed_channels_warn_and_slip_through(self):
        # two int channels used out of order: the known blind spot --
        # identity is untracked, so the verdict is clean but a warning fires
        source = '''package main

import "fmt"

func work(cInt chan int, cStr chan int) {
	fmt.Println(<-cInt)
	fmt.Println(<-cStr)
}

func main() {
	cInt := make(chan int)
	cStr := make(chan int)
	go work(cInt, cStr)

	cStr <- 2
	cInt <- 1
}
'''
        analysis = analyze_source(source)
        assert analysis.worst() == "NoDeadlock"
        assert any("identity" in w for w in analysis.warnings)

    def test_struct_declarations_are_checked_and_dropped(self):
        source = '''package main

type User struct {
	name string
}

type Faculty struct {
	User
}

func main() {
	ch := make(chan int)
	ch <- 1
}
'''
        assert analyze_source(source).worst() == "Deadlock"
        with pytest.raises(Unsupported) as e:
            parse(source.replace("name string", "ages map[string]int"))
        assert e.value.feature == "map type"
        assert e.value.line == 4

    def test_time_after_completes_by_itself(self):
        analysis = analyze_source(corpus_source("nodeadlock/p10_wait30.go"))
        assert analysis.worst() == "NoDeadlock"


class TestMembershipScan:
    """Channel use and member calls are found wherever a body holds them."""

    def test_channel_use_and_member_call_only_in_else_branches(self):
        source = '''package main

import "fmt"

var x int

func sender(ch chan int) {
	if x > 0 {
		fmt.Println(x)
	} else if x < -5 {
		fmt.Println(x)
	} else {
		ch <- 1
	}
}

func relay(ch chan int) {
	if x > 0 {
		fmt.Println(x)
	} else if x < -5 {
		fmt.Println(x)
	} else {
		sender(ch)
	}
}

func quiet() {
	if x > 0 {
		fmt.Println(x)
	} else {
		fmt.Println(x)
	}
}

func main() {
	ch := make(chan int)
	go relay(ch)
	quiet()
}
'''
        tr = compute_m(parse(source))
        assert set(tr.cordefs) == {"sender", "relay", "main"}
        assert "Inline(sender)" in notation.render(tr.cordefs["relay"])

    def test_receive_and_member_call_inside_operators(self):
        source = '''package main

import "fmt"

func negated(ch chan int) int {
	return -(<-ch)
}

func plusOne(ch chan int) int {
	return 1 + <-ch
}

func twice(ch chan int) {
	y := -negated(ch)
	fmt.Println(y)
}

func main() {
	ch := make(chan int)
	go func() {
		ch <- 1
		ch <- 2
	}()
	twice(ch)
	fmt.Println(plusOne(ch))
}
'''
        tr = compute_m(parse(source))
        assert {"negated", "plusOne", "twice", "main"} <= set(tr.cordefs)
        assert notation.render(tr.cordefs["negated"]) == "corDef[?Int]"
        assert "Inline(negated)" in notation.render(tr.cordefs["twice"])
        assert analyze_source(source).worst() == "NoDeadlock"


class TestNestingLimit:
    """Past ``MAX_NESTING`` levels the parser refuses the file; below it the
    parser and the later tree walks run without exhausting the stack.  Call
    depth has no limit: the call graph is walked with worklists."""

    @staticmethod
    def program(expr):
        return (
            "package main\n\nvar v int\n\nfunc main() {\n\tch := make(chan int)\n"
            "\tgo func() {\n\t\tch <- 1\n\t}()\n\tif %s {\n\t\t<-ch\n\t} else {\n"
            "\t\t<-ch\n\t}\n}\n" % expr
        )

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "%sv > 0%s" % ("(" * n, ")" * n),
            lambda n: "%s(v > 0)" % ("!" * n),
            lambda n: " || ".join("v > %d" % k for k in range(n)),
        ],
        ids=["parentheses", "prefix operators", "operator chain"],
    )
    def test_deep_expressions(self, shape):
        from flowcheck.gofront.parser import MAX_NESTING

        shallow = analyze_source(self.program(shape(MAX_NESTING - 10)))
        assert shallow.worst() == "NoDeadlock"
        deep = analyze_source(self.program(shape(1000)))
        assert deep.worst() == "Unsupported"
        assert deep.cases[0].verdict.reason == "nesting too deep (line 10)"

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "chan " * n + "int",
            lambda n: "[]" * n + "int",
            lambda n: "func(" * n + "int" + ")" * n,
        ],
        ids=["chan", "slice", "func"],
    )
    def test_deep_types(self, shape):
        from flowcheck.gofront.parser import MAX_NESTING

        def program(gotype):
            return "package main\n\nvar x %s\n\nfunc main() {\n}\n" % gotype

        shallow = analyze_source(program(shape(MAX_NESTING - 10)))
        assert shallow.worst() == "NoDeadlock"
        deep = analyze_source(program(shape(3000)))
        assert deep.worst() == "Unsupported"
        assert deep.cases[0].verdict.reason == "nesting too deep (line 3)"

    def test_deep_function_literals(self):
        depth = 300
        source = (
            "package main\n\nfunc main() {\n\tch := make(chan int)\n"
            + "\tgo func() {\n" * depth + "\tch <- 1\n" + "\t}()\n" * depth
            + "\t<-ch\n}\n"
        )
        with pytest.raises(Unsupported, match="nesting too deep"):
            parse(source)

    @staticmethod
    def call_graph(shape, depth):
        """``main`` starts ``f0``; each ``fI`` calls, starts, or sends and
        then calls ``fI+1``, and the last one sends."""
        step = {"call": "\tf%d(ch)\n", "go": "\tgo f%d(ch)\n", "send": "\tch <- 1\n\tf%d(ch)\n"}
        receives = depth if shape == "send" else 1
        source = "package main\n\nfunc main() {\n\tch := make(chan int)\n\tgo f0(ch)\n"
        source += "\t<-ch\n" * receives + "}\n"
        for i in range(depth):
            body = step[shape] % (i + 1) if i < depth - 1 else "\tch <- 1\n"
            source += "\nfunc f%d(ch chan int) {\n%s}\n" % (i, body)
        return source

    @pytest.mark.parametrize("shape", ["call", "go", "send"])
    def test_deep_call_graphs(self, shape, tmp_path, capsys):
        source = self.call_graph(shape, 1000)
        assert analyze_source(source, max_steps=20000).worst() == "NoDeadlock"
        path = tmp_path / "chain.go"
        path.write_text(source, encoding="utf-8")
        assert main(["analyze", str(path), "--max-steps", "20000"]) == 0
        assert capsys.readouterr().out.endswith(": NoDeadlock\n")


class TestDeclarationOrder:
    """Each named function translates once, in declaration order, whatever
    calls it first."""

    def test_arg_variables_are_numbered_in_declaration_order(self):
        source = '''package main

func main() {
	ch := make(chan int)
	var x int
	go f(ch, x+1)
	<-ch
}

func f(ch chan int, y int) {
	g(ch, y*2)
}

func g(ch chan int, z int) {
	if z > 0 {
		ch <- 1
	} else {
		ch <- 2
	}
}
'''
        analysis = analyze_source(source)
        assert [c.label for c in analysis.cases] == ["arg@2 ≤ 0", "arg@2 ≥ 1"]
        first = analysis.cases[0].trace[0].state_after
        assert "Start(f, y ↦ arg@1)" in first

    def test_the_first_error_in_declaration_order_is_reported(self):
        source = '''package main

func main() {
	ch := make(chan int)
	go f(ch)
	<-other
}

func f(ch chan int) {
	<-nowhere
}
'''
        analysis = analyze_source(source)
        assert analysis.worst() == "Unsupported"
        assert analysis.cases[0].verdict.reason == "cannot resolve channel 'other' (line 6)"


class TestRegressions:
    def test_empty_then_branch_keeps_the_else_behavior(self):
        source = '''package main

import "fmt"

var x int

func main() {
	ch := make(chan int)
	if x > 0 {
		fmt.Println(x)
	} else {
		<-ch
	}
}
'''
        analysis = analyze_source(source)
        verdicts = {case.label: case.verdict.kind for case in analysis.cases}
        assert verdicts == {"x ≤ 0": "Deadlock", "x ≥ 1": "NoDeadlock"}

    def test_argument_named_like_its_parameter_keeps_its_constant(self):
        source = '''package main

func worker(ch chan int, n int) {
	if n > 0 {
		ch <- 1
	}
}

func relay(ch chan int, n int) {
	worker(ch, n)
}

func main() {
	ch := make(chan int)
	go relay(ch, 1)
	<-ch
}
'''
        tr = compute_m(parse(source))
        assert "Inline(worker, n ↦ n)" in notation.render(tr.cordefs["relay"])
        analysis = analyze_source(source)
        assert [case.verdict.kind for case in analysis.cases] == ["NoDeadlock"]

    def test_constant_arithmetic_decides_the_guard(self):
        source = (
            "package main\n\nfunc main() {\n\tch := make(chan int)\n"
            "\tgo func() { ch <- 1 }()\n\tx := 1 + 1\n\tif x > 0 {\n\t\t<-ch\n\t}\n}\n"
        )
        analysis = analyze_source(source)
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [("", "NoDeadlock")]

    @pytest.mark.parametrize(
        "expr, value",
        [("1 + 2 * 3", 7), ("2 - 3 - 4", -5), ("-(1 + 2) * 3", -9), ("k * 2 - -k", 12),
         ("9223372036854775807 + k", -9223372036854775805)],
    )
    def test_constant_folding_follows_go_precedence_and_wraps(self, expr, value):
        # k is the constant 4; an int wraps at 64 bits
        source = (
            "package main\n\nvar ch chan int = make(chan int)\n\n"
            "func s(v int) {\n\tif v < 10 {\n\t\tch <- v\n\t}\n}\n\n"
            "func main() {\n\tk := 4\n\tgo s(%s)\n\t<-ch\n}\n" % expr
        )
        tr = compute_m(parse(source))
        assert "Start(s, v ↦ %d)" % value in notation.render(tr.cordefs["main"])

    def test_unsupported_condition_reports_the_line_of_its_if(self):
        # expression nodes carry no line of their own
        source = (
            "package main\n\n"
            "func f(ch chan int) {\n\tif <-ch > 0 {\n\t}\n}\n\n"
            "func main() {\n\tch := make(chan int)\n\tgo f(ch)\n\tch <- 1\n}\n"
        )
        analysis = analyze_source(source)
        assert analysis.worst() == "Unsupported"
        assert analysis.cases[0].verdict.reason == (
            "condition beyond integer/boolean comparisons (line 4)"
        )


    def test_unknown_arguments_are_distinct_variables(self):
        # s sends iff its argument is below 10 and t receives iff its own is,
        # so the two mixed cases deadlock, whether the unknown values are
        # passed directly or through locals
        helpers = (
            "func t(w int) {\n\tif w < 10 {\n\t\t<-ch\n\t}\n}\n\n"
            "func readOther() int {\n\treturn 12\n}\n\n"
        )
        for body in ("\tgo s(readInt())\n\tt(readOther())\n",
                     "\ta := readInt()\n\tb := readOther()\n\tgo s(a)\n\tt(b)\n"):
            source = with_sender(body).replace("func main()", helpers + "func main()")
            verdicts = [case.verdict.kind for case in analyze_source(source).cases]
            assert verdicts == ["NoDeadlock", "Deadlock", "Deadlock", "NoDeadlock"], body

    def test_unknown_channel_in_a_receive_reports_its_line(self):
        source = (
            'package main\n\nimport "fmt"\n\nfunc main() {\n\tch := make(chan int)\n'
            "\tgo func() { ch <- 1 }()\n\t<-ch\n\tfmt.Println(<-other)\n}\n"
        )
        assert source.splitlines()[8] == "\tfmt.Println(<-other)"
        analysis = analyze_source(source)
        assert analysis.cases[0].verdict.reason == "cannot resolve channel 'other' (line 9)"

    @pytest.mark.parametrize("decided_if", [False, True], ids=["directly", "under if true"])
    def test_defer_inside_an_undecided_conditional_is_rejected(self, decided_if):
        defer = "defer func() { <-ch }()"
        if decided_if:
            defer = "if true {\n\t\t\t%s\n\t\t}" % defer
        source = (
            "package main\n\nvar ch chan int = make(chan int)\n\nfunc main() {\n"
            "\tvar y int\n\tif y > 0 {\n\t\tgo func() { ch <- 1 }()\n\t\t%s\n\t}\n}\n" % defer
        )
        line = next(n for n, text in enumerate(source.splitlines(), 1) if "defer" in text)
        analysis = analyze_source(source)
        assert [case.verdict.reason for case in analysis.cases] == [
            "defer inside a conditional (line %d)" % line
        ]

    def test_guard_comparing_two_int_variables_names_the_comparison(self):
        # both sides are ints; what the case split cannot do is cut the
        # integer line at a point that is not a constant
        source = (
            "package main\n\nvar x int\nvar y int\n\nfunc main() {\n"
            "\tch := make(chan int)\n\tif x == y {\n\t\t<-ch\n\t}\n}\n"
        )
        analysis = analyze_source(source)
        assert [case.verdict.reason for case in analysis.cases] == [
            "unresolved condition: cannot partition x: comparison against a non-constant"
        ]


class TestCorDefPayloadDiscipline:
    def test_translated_flows_never_hold_go_ast(self):
        # every coroutine definition in the corpus holds only type terms:
        # directed items over concretes/variables, start/inline applications,
        # and predicate-guarded unions of those
        from flowcheck.terms import (
            Concrete,
            Constrained,
            CorDef,
            DefRef,
            Directed,
            InlineApp,
            Seq,
            StartApp,
            Union,
            Var,
            ZeroType,
        )

        allowed_payloads = (Concrete, Var, ZeroType, Union, Constrained, Seq)

        def check_item(item):
            if isinstance(item, Directed):
                assert isinstance(item.payload, allowed_payloads), item
            elif isinstance(item, (StartApp, InlineApp)):
                assert isinstance(item.target, (DefRef, CorDef)), item
            elif isinstance(item, Union):
                for side in (item.left, item.right):
                    check_item(side)
            elif isinstance(item, Constrained):
                check_item(item.base)
            elif isinstance(item, Seq):
                for inner in item.items:
                    check_item(inner)
            else:
                assert isinstance(item, ZeroType), item

        for path in corpus_files():
            if path.parent.name == "unsupported":
                continue
            tr = compute_m(parse(path.read_text()))
            for definition in tr.cordefs.values():
                for item in definition.flow:
                    check_item(item)


class TestRecursion:
    def test_recursive_call_is_inconclusive_not_hanging(self):
        source = '''package main

func f(ch chan int) {
	ch <- 1
	f(ch)
}

func main() {
	ch := make(chan int)
	go f(ch)
	<-ch
}
'''
        analysis = analyze_source(source)
        assert analysis.worst() == "Inconclusive"

    def test_recursive_start_is_cut_off_by_main_exit(self):
        analysis = analyze_source(corpus_source("nodeadlock/p07_rec_main.go"))
        assert analysis.worst() == "NoDeadlock"
