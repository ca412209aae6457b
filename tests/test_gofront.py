"""Frontend: parsing, the coroutine map, constant propagation, analysis."""

import ast
import gc
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcheck import notation
from flowcheck.cli import main
from flowcheck.gofront import (
    GoSyntaxError,
    Unsupported,
    analyze_source,
    compute_m,
    parse,
    unresolved_condition_preds,
)
from flowcheck.gofront import goast
from flowcheck.gofront.goast import (
    ChanType,
    DeferStmt,
    GoStmt,
    MakeExpr,
    NamedType,
    VarDecl,
)

from flowcheck.preds import pred_free_vars
from flowcheck.terms import (
    DefRef,
    InlineApp,
    StartApp,
    Union,
    branches,
    substitute,
    term_map,
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


def count_nodes(tree) -> int:
    """The syntax nodes in ``tree``, a node or a tuple, down every field."""
    if isinstance(tree, tuple):
        return sum(count_nodes(t) for t in tree)
    if not isinstance(tree, goast.Node):
        return 0
    return 1 + sum(count_nodes(getattr(tree, f)) for f in tree.__slots__)


class TestParse:
    def test_all_features_shape(self):
        prog = parse(ALL_FEATURES)
        main = prog.functions["main"]
        decl, deferred, started = main.body
        assert isinstance(decl, VarDecl) and decl.gotype is None
        assert decl.expr == MakeExpr(ChanType(NamedType("int")), None)
        assert isinstance(deferred, DeferStmt)
        assert isinstance(started, GoStmt)
        assert started.fn.name.startswith("anon@") and started.args == ()
        assert list(prog.functions) == ["main"]  # a literal lives only where it is written

    def test_one_node_per_construct(self):
        """A ``go`` or ``defer`` holds its call's fields, an expression
        statement is its expression and a function literal its ``Func``:
        no wrapper node between them."""
        prog = parse("package main\nfunc main() { go f(c); defer g(c); <-c; func() {}() }")
        started, deferred, received, called = prog.functions["main"].body
        assert started == GoStmt(goast.Ident("f"), (goast.Ident("c"),))
        assert deferred == DeferStmt(goast.Ident("g"), (goast.Ident("c"),))
        assert received == goast.Recv(goast.Ident("c"))
        assert isinstance(called, goast.Call) and isinstance(called.fn, goast.Func)
        # GoStmt, Ident, Ident; DeferStmt, Ident, Ident; Recv, Ident; Call, Func
        assert count_nodes(prog.functions["main"].body) == 10

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
        prog = parse("package main\nfunc sum(x, y int, ch chan int, d time.Duration) {}\n"
                     "func main() {}")
        params = prog.functions["sum"].params
        assert params == (
            ("x", NamedType("int")),
            ("y", NamedType("int")),
            ("ch", ChanType(NamedType("int"))),
            ("d", NamedType("time.Duration")),  # a qualified type keeps its package
        )


class TestNamedRefusals:
    """Go forms outside the subset are refused with the construct named,
    not as a syntax error, forms Go refuses too with a syntax error at
    their line, and ``flowcheck analyze`` exits 2 on them."""

    @staticmethod
    def program(top, body):
        return "package main\n\n%sfunc main() {\n\tch := make(chan int)\n%s\t<-ch\n}\n" % (top, body)

    @pytest.mark.parametrize(
        "top, body, reason",
        [
            ("", "\tv, ok := <-ch\n", "declaration of several variables (line 5)"),
            ("", "\tvar a, b int\n", "declaration of several variables (line 5)"),
            ("var a, b = 1, 2\n\n", "", "declaration of several variables (line 3)"),
            ("", "\tvar a int\n\tvar b int\n\ta, b = b, a\n",
             "assignment to several variables (line 7)"),
            ("type S struct{}\n\nfunc (s S) f() {}\n\n", "", "method declaration (line 5)"),
            ("", "L:\n", "labeled statement (line 5)"),
            # the decrement used to join the receive below it: x - -(<-ch)
            ("", "\tgo func() { ch <- 1 }()\n\tx := 5\n\tx--\n",
             "decrement statement (line 7)"),
            ("", "\tx := 0\n\tx++\n", "increment statement (line 6)"),
            ("var (\n\ta int\n)\n\n", "", "grouped declaration (line 3)"),
            ("", "\treturn 1, 2\n", "return of several values (line 5)"),
            ("", "\tx := 0\n\tx += 1\n", "compound assignment (line 6)"),
            ("", "\tx := 1 << 3\n", "shift operator << (line 5)"),
            ("", "\tx := 8 >> 1\n", "shift operator >> (line 5)"),
            ("", "\tx := 6 & 3\n", "bitwise operator & (line 5)"),
            ("", "\tx := 6 | 3\n", "bitwise operator | (line 5)"),
            ("", "\tx := 6 ^ 3\n", "bitwise operator ^ (line 5)"),
            ("", "\tx := 6 &^ 3\n", "bitwise operator &^ (line 5)"),
            ("", "\tx := ^6\n", "bitwise complement (line 5)"),
            ("", "\tx := 0\n\tx ^= 1\n", "compound assignment (line 6)"),
            ("", "\tx := 0\n\tx &^= 1\n", "compound assignment (line 6)"),
            ("", "\tx := 0\n\tx <<= 1\n", "compound assignment (line 6)"),
            ("type S struct {\n\tn int\n}\n\n", "\tvar s S\n\ts.n = 1\n",
             "assignment to a field (line 10)"),
            ("type S struct {\n\tn int\n}\n\n", "\tvar s S\n\ts.n += 1\n",
             "assignment to a field (line 10)"),
            ("", "\tif x := 1; x > 0 {\n\t}\n", "if with init statement (line 5)"),
            # Go allows only a call or a receive as an expression statement
            ("", "\tgo func() { ch <- 1 }()\n\tx := 1; x\n",
             "syntax error: line 6: expression is not used"),
            ("", "\tgo func() { ch <- 1 }()\n\t1 + 2\n",
             "syntax error: line 6: expression is not used"),
            ("", "\tgo func() { ch <- 1 }()\n\tfunc() {}\n",
             "syntax error: line 6: expression is not used"),
            ("", "\tgo func() { ch <- 1 }()\n\tmake(chan int)\n",
             "syntax error: line 6: expression is not used"),
            # nor a conversion or a builtin that only gives a value
            ("", "\tgo func() { ch <- 1 }()\n\tint(3)\n",
             "syntax error: line 6: expression is not used"),
            ("", '\tgo func() { ch <- 1 }()\n\tstring("a")\n',
             "syntax error: line 6: expression is not used"),
            ("", '\tgo func() { ch <- 1 }()\n\tlen("abc")\n',
             "syntax error: line 6: expression is not used"),
            # another function's parameter is out of scope in main
            ("func f(len int) {}\n\n", '\tgo func() { ch <- 1 }()\n\tlen("abc")\n',
             "syntax error: line 8: expression is not used"),
            # Go refuses a parenthesized call after go or defer
            ("", "\tgo (func() { ch <- 1 }())\n", "syntax error: line 5: go requires a function call"),
            ("", "\tgo func() { ch <- 1 }()\n\tdefer (func() {}())\n",
             "syntax error: line 6: defer requires a function call"),
            ("", "\tif a, b := 1, 2; a > b {\n\t}\n", "if with init statement (line 5)"),
            ("func f() {}\n\nfunc f() {}\n\n", "", "syntax error: line 5: duplicate function f"),
            ("func f(a) {}\n\n", "", "syntax error: line 3: parameters missing a type"),
            ("type T int\n\n", "", "non-struct type declaration (line 3)"),
            ("type M map[int]int\n\n", "", "map type (line 3)"),
            ("func f(c <-chan int) {}\n\n", "", "directional channel type (line 3)"),
            ('import "sync"\n\n', "\tvar mu sync.Mutex\n", "sync primitives (line 7)"),
            ('import "sync"\n\n', "\tsync.NewCond(nil)\n", "sync primitives (line 7)"),
            ("", "\tx := for\n", "for loop (line 5)"),
            ("func f() bool { return true }\n\n", "\tif f() {\n\t}\n",
             "condition beyond integer/boolean comparisons (line 7)"),
        ],
        ids=["short declaration", "local var", "package var", "assignment", "method", "label",
             "decrement", "increment", "grouped var", "return", "compound", "shift left",
             "shift right", "and", "or", "xor", "and not", "complement", "xor assign",
             "and-not assign", "shift assign", "field", "field compound", "if init",
             "unused name", "unused sum", "unused literal", "unused make", "unused conversion",
             "unused string conversion", "unused len", "unused len, a parameter elsewhere",
             "parenthesized go", "parenthesized defer", "if init of two names", "duplicate function",
             "untyped parameter", "non-struct type", "map type", "directional parameter",
             "sync type", "sync call", "for operand", "call condition"],
    )
    def test_reason_and_exit_code(self, top, body, reason, tmp_path, capsys):
        source = self.program(top, body)
        assert [str(c.verdict) for c in analyze_source(source).cases] == [
            "Unsupported(%s)" % reason
        ]
        path = tmp_path / "refused.go"
        path.write_text(source)
        assert main(["analyze", str(path)]) == 2
        assert reason in capsys.readouterr().out

    @pytest.mark.parametrize("source, reason", [
        ("package main\n\nfunc f(ch chan int) {\n\tch <- 1\n}\n\nfunc main() {\n\th := f\n"
         "\tch := make(chan int)\n\tgo h(ch)\n\t<-ch\n}\n\nvar g = f\n",
         "channel-using function f used as a value (line 8)"),
        ("package main\n\nfunc get(c chan int) int {\n\treturn <-c\n}\n\n"
         "var ch = make(chan int)\nvar x = get(ch)\nvar y = <-ch\n\nfunc main() {\n}\n",
         "channel operation in a package-level initializer (line 8)"),
    ], ids=["function value", "package initializer"])
    def test_the_earliest_line_is_named(self, source, reason):
        """Whatever the order of the parser's events: a later global's
        use does not hide an earlier one in a body, nor a later receive a
        member call."""
        assert [str(c.verdict) for c in analyze_source(source).cases] == [
            "Unsupported(%s)" % reason]

    @pytest.mark.parametrize("top, body", [
        ("func len(s string) int {\n\treturn 0\n}\n\n", '\tlen("abc")\n'),
        ("var len = func(s string) int { return 0 }\n\n", '\tlen("abc")\n'),
        ("func f(len func()) {\n\tlen()\n}\n\n", "\tf(func() {})\n"),
        ("", "\tint := func() {}\n\tint()\n"),
    ], ids=["function", "global", "parameter", "local"])
    def test_a_declared_name_shadows_the_builtin(self, top, body):
        source = self.program(top, "\tgo func() { ch <- 1 }()\n" + body)
        assert analyze_source(source).worst() == "NoDeadlock"

    @pytest.mark.parametrize("body", ["\ta, b\n", "\tf(a), b = 1, 2\n", "\tch <- 1, 2\n"])
    def test_other_lists_stay_syntax_errors(self, body):
        with pytest.raises(GoSyntaxError, match="missing ';' before ','"):
            parse(self.program("", body))


class TestPackageNames:
    """A name no enclosing body declares is the package's: a function
    declared anywhere in the file, or a global.  A global's initializer
    sees only the globals before it."""

    SEND = "func send(c chan string) {\n\tc <- \"x\"\n}\n"

    @pytest.mark.parametrize("source", [
        "package main\n\nfunc main() {\n\tc := mk()\n\tgo send(c)\n\t<-c\n}\n\n"
        "func mk() chan string {\n\treturn make(chan string)\n}\n\n" + SEND,
        "package main\n\nfunc f(ch chan int) {\n\tif n > 4 {\n\t\tch <- 1\n\t}\n}\n\n"
        "var n = 5\n\nfunc main() {\n\tch := make(chan int)\n\tgo f(ch)\n\t<-ch\n}\n",
        "package main\n\nfunc g(ch chan int) {\n\tch <- 1\n}\n\nfunc main() {\n"
        "\tch := make(chan int)\n\tgo g(ch)\n\tg := 1\n\t_ = g\n\t<-ch\n}\n",
        # a callee in parentheses is called, not used as a value
        "package main\n\n" + SEND + "\nfunc main() {\n\tc := make(chan string)\n"
        "\tgo (send)(c)\n\t<-c\n}\n",
    ], ids=["function declared after its call", "global declared after its reader",
            "local declared after the call it shadows", "parenthesized callee"])
    def test_reads_no_deadlock(self, source):
        analysis = analyze_source(source)
        assert [str(c.verdict) for c in analysis.cases] == ["NoDeadlock"]

    @pytest.mark.parametrize("globals_, labels", [
        ("var a = b\nvar b = 5\n", ["a ≤ 3", "a ≥ 4"]),  # a reads no value of b
        ("var b = 5\nvar a = b\n", [""]),
    ], ids=["later global", "earlier global"])
    def test_an_initializer_sees_only_earlier_globals(self, globals_, labels):
        source = ("package main\n\n%s\nfunc main() {\n\tch := make(chan int)\n"
                  "\tgo func() { ch <- 1 }()\n\tif a > 3 {\n\t\t<-ch\n\t}\n}\n" % globals_)
        assert [c.label for c in analyze_source(source).cases] == labels


GUARDED_SENDER = '''package main

func main() {
	ch := make(chan int)
	%s
	if %s > 3 {
		go func() { ch <- 1 }()
	}
	<-ch
}
'''


class TestNumberLiterals:
    """Go reads each of these guards as true, so the program is clean; the
    analysis must never read one as two statements and answer Deadlock."""

    @pytest.mark.parametrize(
        "decl, feature",
        [("x := 0x10", "non-decimal integer literal"),
         ("x := 0b101", "non-decimal integer literal"),
         ("n := 1_000", "non-decimal integer literal"),
         ("x := 010", "non-decimal integer literal"),  # octal: Go reads 8
         ("x := 7e2", "floating point literal"),
         ("x := 4i", "imaginary literal")],
    )
    def test_other_forms_are_refused(self, decl, feature):
        analysis = analyze_source(GUARDED_SENDER % (decl, decl.split()[0]))
        assert [str(c.verdict) for c in analysis.cases] == ["Unsupported(%s (line 5))" % feature]

    @pytest.mark.parametrize("value, verdict", [("16", "NoDeadlock"), ("0", "Deadlock")])
    def test_plain_decimals_are_read(self, value, verdict):
        assert analyze_source(GUARDED_SENDER % ("x := " + value, "x")).worst() == verdict


INT_GUARD = '''package main

func f(n int, ch chan int) {
	if %s {
		ch <- 1
	}
}

func main() {
	var v int
	ch := make(chan int)
	go f(v, ch)
	<-ch
}
'''


class TestIntRange:
    """Go's ``int`` has 64 bits: no case may hold only values past its
    ends, and a literal past them is refused."""

    @pytest.mark.parametrize(
        "guard", ["n <= 9223372036854775807", "n >= -9223372036854775808",
                  "n <= 9223372036854775807 && n >= -9223372036854775808"],
    )
    def test_a_guard_every_int_meets_splits_nothing(self, guard):
        analysis = analyze_source(INT_GUARD % guard)
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [("", "NoDeadlock")]

    def test_a_guard_the_largest_int_breaks_still_splits(self):
        analysis = analyze_source(INT_GUARD % "n < 9223372036854775807")
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [
            ("v ≤ 9223372036854775806", "NoDeadlock"),
            ("v ≥ 9223372036854775807", "Deadlock"),
        ]

    @pytest.mark.parametrize(
        "value", ["99999999999999999999", "9223372036854775808", "- -9223372036854775808",
                  "-99999999999999999999"],
    )
    def test_a_literal_past_int_is_refused(self, value):
        analysis = analyze_source(GUARDED_SENDER % ("x := " + value, "x"))
        assert [str(c.verdict) for c in analysis.cases] == [
            "Unsupported(integer literal overflows int (line 5))"
        ]

    @pytest.mark.parametrize(
        "value, verdict",
        [("9223372036854775807", "NoDeadlock"), ("-9223372036854775808", "Deadlock")],
    )
    def test_the_ends_of_int_are_read(self, value, verdict):
        assert analyze_source(GUARDED_SENDER % ("x := " + value, "x")).worst() == verdict


FUNCTION_VALUES = {
    "a literal stored and called": ('''package main

import "fmt"

func main() {
	ch := make(chan int)
	f := func() { <-ch }
	f()
	fmt.Println(1)
}
''', "channel-using function literal used as a value (line 7)"),
    "a literal stored and started": ('''package main

func main() {
	ch := make(chan int)
	f := func() { ch <- 1 }
	go f()
	<-ch
}
''', "channel-using function literal used as a value (line 5)"),
    "a literal passed to a function": ('''package main

func run(g func()) {
	g()
}

func main() {
	ch := make(chan int)
	run(func() { <-ch })
}
''', "channel-using function literal used as a value (line 9)"),
    "a named function stored and started": ('''package main

func worker(ch chan int) {
	ch <- 1
}

func main() {
	ch := make(chan int)
	w := worker
	go w(ch)
	<-ch
}
''', "channel-using function worker used as a value (line 9)"),
    "a name shadowed only in a later block": ('''package main

import "fmt"

func g(ch chan int) {
	ch <- 1
}

func main() {
	ch := make(chan int)
	h := g
	if true {
		g := 1
		fmt.Println(g)
	}
	go h(ch)
	<-ch
}
''', "channel-using function g used as a value (line 11)"),
}

LOCALS_NAMED_LIKE_A_MEMBER = {
    "a parameter": '''package main

import "fmt"

func g(ch chan int) {
	ch <- 1
}

func show(g int) {
	fmt.Println(g)
}

func main() {
	ch := make(chan int)
	show(2)
	go g(ch)
	<-ch
}
''',
    "an earlier declaration, read in a block and a literal": '''package main

import "fmt"

func g(ch chan int) {
	ch <- 1
}

func main() {
	ch := make(chan int)
	g := 1
	if true {
		fmt.Println(g)
	}
	go func() {
		fmt.Println(g)
		ch <- 1
	}()
	<-ch
}
''',
    "a declared literal called through the name": '''package main

func g(ch chan int) {
	ch <- 1
}

func main() {
	ch := make(chan int)
	g := func(c chan int) {}
	g(ch)
}
''',
    "a parameter called through the name": '''package main

func g(ch chan int) {
	ch <- 1
}

func run(g func(chan int), ch chan int) {
	g(ch)
}

func main() {
	ch := make(chan int)
	run(func(c chan int) {}, ch)
}
''',
}


class TestFunctionValues:
    """A channel-using function used other than as a callee would lose
    its channel operations, so the verdict would not be Go's: refused."""

    @pytest.mark.parametrize("name", sorted(FUNCTION_VALUES))
    def test_is_refused_with_its_line(self, name):
        source, reason = FUNCTION_VALUES[name]
        analysis = analyze_source(source)
        assert [str(c.verdict) for c in analysis.cases] == ["Unsupported(%s)" % reason]

    def test_the_command_exits_two(self, tmp_path, capsys):
        path = tmp_path / "value.go"
        path.write_text(FUNCTION_VALUES["a literal passed to a function"][0], encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "channel-using function literal used as a value (line 9)" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(LOCALS_NAMED_LIKE_A_MEMBER))
    def test_a_local_named_like_a_member_is_not_the_function(self, name):
        # a name is local where a parameter or an earlier declaration in an
        # enclosing block binds it; a literal's body sees its enclosing blocks
        assert analyze_source(LOCALS_NAMED_LIKE_A_MEMBER[name]).worst() == "NoDeadlock"

    def test_a_function_value_without_channels_is_kept(self):
        source = '''package main

func apply(g func()) {
	g()
}

func main() {
	ch := make(chan int)
	apply(func() {})
	go func() { ch <- 1 }()
	<-ch
}
'''
        assert analyze_source(source).worst() == "NoDeadlock"

    def test_a_parameter_named_like_a_member_is_not_a_function(self):
        source = '''package main

func done(ch chan int) {
	ch <- 1
}

func wait(done chan int) {
	<-done
}

func main() {
	ch := make(chan int)
	go done(ch)
	wait(ch)
}
'''
        assert analyze_source(source).worst() == "NoDeadlock"


class TestStatementSeparators:
    @pytest.mark.parametrize(
        "source, line, found",
        [("package main\n\nfunc main() {\n\tx := 0 x10\n}\n", 4, "x10"),
         ("package main\n\nfunc f() {}\n\nfunc main() {\n"
          "\tch := make(chan int) go f() <-ch\n}\n", 6, "go"),
         ("package main\n\nfunc f() {} func main() {}\n", 3, "func"),
         ("package main func main() {}\n", 1, "func"),
         ('package main\n\nimport ("fmt" "time")\n', 3, '"time"'),
         ("package main\n\ntype T struct { a int b int }\n", 3, "b")],
    )
    def test_a_missing_separator_is_a_syntax_error(self, source, line, found):
        with pytest.raises(GoSyntaxError) as raised:
            parse(source)
        assert (raised.value.line, raised.value.message) == (line, "missing ';' before %r" % found)

    def test_empty_statements(self):
        # Go reads each lone ';' as an empty statement, at a block's start too
        spaced = parse("package main\n\nfunc main() {;\n\tx := 1;;\n\tprintln(x);\n}\n")
        plain = parse("package main\n\nfunc main() {\n\tx := 1\n\tprintln(x)\n}\n")
        assert spaced == plain

    def test_a_closing_token_ends_the_last_item(self):
        program = parse('package main; import ("fmt"); type T struct { a int }; '
                        'func main() { x := 1; fmt.Println(x) }')
        assert len(program.functions["main"].body) == 2


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

    def test_literals_on_one_line_are_numbered_in_the_order_they_end(self):
        source = (
            "package main\n\nfunc main() {\n\tch := make(chan int)\n"
            "\tgo func() { go func() { ch <- 1 }() }(); go func() { ch <- 2 }()\n"
            "\t<-ch\n\t<-ch\n}\n"
        )
        rendered = {n: notation.render(d) for n, d in compute_m(parse(source)).cordefs.items()}
        assert rendered == {
            "anon@5": "corDef[!Int]",
            "anon@5.2": "corDef[Start(anon@5)]",
            "anon@5.3": "corDef[!Int]",
            "main": "corDef[Start(anon@5.2); Start(anon@5.3); ?Int; ?Int]",
        }

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


def element_program(elem, sent, setup=()):
    """``main`` receives once on a channel of ``elem``; with ``sent``, a
    literal started before sends it, after the statements of ``setup``."""
    lines = ["package main", "", "func main() {", "\tc := make(chan %s)" % elem]
    if sent is not None:
        lines += ["\tgo func() {", *("\t\t" + s for s in setup), "\t\tc <- " + sent, "\t}()"]
    return "\n".join(lines + ["\t<-c", "}"]) + "\n"


class TestCompositeElementTypes:
    """A channel of channels, of slices or of functions carries the
    concrete name of its element type."""

    ELEMENTS = [
        ("chan int", "make(chan int)", (), "ChanInt"),
        ("[]int", "s", ("var s []int",), "IntSlice"),
        ("func()", "func() {}", (), "Func"),
    ]

    @pytest.mark.parametrize("elem, sent, setup, name", ELEMENTS)
    def test_a_sender_meets_the_receiver(self, elem, sent, setup, name):
        source = element_program(elem, sent, setup)
        rendered = {n: notation.render(d) for n, d in compute_m(parse(source)).cordefs.items()}
        assert rendered == {"anon@5": "corDef[!%s]" % name,
                            "main": "corDef[Start(anon@5); ?%s]" % name}
        assert [repr(case.verdict) for case in analyze_source(source).cases] == ["NoDeadlock"]

    @pytest.mark.parametrize("elem, sent, setup, name", ELEMENTS)
    def test_a_receiver_alone_deadlocks(self, elem, sent, setup, name):
        source = element_program(elem, None)
        assert notation.render(compute_m(parse(source)).cordefs["main"]) == "corDef[?%s]" % name
        verdicts = [repr(case.verdict) for case in analyze_source(source).cases]
        assert verdicts == ["Deadlock([![?%s]])" % name]


class TestFlowAnalysis:
    @pytest.mark.parametrize("stmt", ["", "go "], ids=["called", "started"])
    def test_a_called_call_result_runs_its_callee_first(self, stmt):
        # Go runs the literal, which blocks main on its send, before the
        # function it returns is called or started
        source = (
            "package main\n\nfunc main() {\n\tch := make(chan int)\n"
            "\t%sfunc() func() {\n\t\tch <- 1\n\t\treturn func() {}\n\t}()()\n}\n" % stmt
        )
        main = notation.render(compute_m(parse(source)).cordefs["main"])
        assert main.startswith("corDef[Inline(anon@5")
        assert analyze_source(source).worst() == "Deadlock"

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
        from flowcheck.terms import (
            Concrete, Var, constrained, cor_def, received, union, yielded,
        )

        x = Var("x")
        guard = Cmp(x, "<=", 3)
        definition = cor_def(union(
            constrained(received(Concrete("Int")), guard),
            constrained(yielded(Concrete("Int")), Cmp(x, ">", 3)),
        ))
        assumption = Cmp(x, "<=", 0)
        other = {Cmp(Var("y"), "<=", 3): True}
        chosen = start(definition, {}, assumption, other)
        assert chosen.flow == (received(Concrete("Int")),)
        assert solve_calls
        solve_calls.clear()
        assert start(definition, {}, assumption, {guard: True}) == chosen
        assert solve_calls == []


def holds_union(t) -> bool:
    """Whether a union sits anywhere in ``t``."""
    found = []

    def visit(s):
        found.append(isinstance(s, Union) or holds_union(s))
        return s

    term_map(t, visit)
    return any(found)


def reference_condition_preds(cordefs, entry="main"):
    """The guards in the order a depth-first walk of the calls first meets
    them: an explicit stack of guards and ``(name, bindings)`` calls, each
    body's items pushed in reverse.  ``unresolved_condition_preds`` must
    find the same set."""
    preds = []
    seen = set()
    stack = [(entry, {})]
    while stack:
        top = stack.pop()
        if not isinstance(top, tuple):
            preds.append(top)
            continue
        name, bindings = top
        key = (name, frozenset(bindings.items()))
        if name not in cordefs or key in seen:
            continue
        seen.add(key)
        out = []

        def visit(t):
            if isinstance(t, Union):
                for payload, guard in branches(t):
                    if pred_free_vars(guard):
                        out.append(guard)
                    visit(payload)
            elif isinstance(t, (StartApp, InlineApp)) and isinstance(t.target, DefRef):
                out.append((t.target.name, dict(t.bindings)))
            else:
                term_map(t, visit)
            return t

        visit(substitute(cordefs[name], bindings))
        stack.extend(reversed(out))
    return list(dict.fromkeys(preds))


CALLEE_GUARDS = '''package main

var x int
var y int

func s(ch chan int, v int) {
	if v < 10 {
		ch <- 1
	}
}

func t(ch chan int, w int) {
	if w > 2 {
		<-ch
	}
	if x == 4 {
		s(ch, w)
	}
}

func main() {
	ch := make(chan int)
	go s(ch, x)
	t(ch, y)
	t(ch, 5)
	if y >= 7 {
		go t(ch, x)
	}
}
'''


class TestGuardPrePass:
    """``unresolved_condition_preds`` finds each guard the depth-first
    reference finds, once; the case split does not depend on their order."""

    @staticmethod
    def assert_agrees(source):
        try:
            translation = compute_m(parse(source))
        except (GoSyntaxError, Unsupported):
            return False
        cordefs = translation.cordefs
        guards = unresolved_condition_preds(cordefs)
        assert translation.guarded or not guards, source  # a skipped pre-pass finds nothing
        # a definition that ``guarded`` does not name starts without a search for unions
        assert {name for name, d in cordefs.items() if holds_union(d)} == translation.guarded, source
        assert len(set(guards)) == len(guards), source
        assert set(guards) == set(reference_condition_preds(cordefs)), source
        return bool(guards)

    def test_on_the_corpus(self):
        for path in corpus_files():
            self.assert_agrees(path.read_text(encoding="utf-8"))

    def test_on_seeded_mutants(self):
        from test_mutants import mutants

        for _, source in mutants():
            self.assert_agrees(source)

    def test_on_guarded_programs_and_their_line_mutants(self):
        # the corpus has no undecided guard, so these carry the comparison:
        # guards in callees under call-site bindings, nested and independent
        import random

        from test_mutants import mutate

        sources = [CALLEE_GUARDS, CONDITIONAL, independent_guards(3), nested_guards(4)]
        assert all(self.assert_agrees(source) for source in sources)
        rng = random.Random(24)
        guarded = sum(
            self.assert_agrees("\n".join(mutate(source.splitlines(), rng)) + "\n")
            for source in sources for _ in range(50)
        )
        assert guarded >= 40  # the comparison is not empty

    def test_callee_guards_surface_under_the_callers_names(self):
        cordefs = compute_m(parse(CALLEE_GUARDS)).cordefs
        rendered = {notation.render_pred(g) for g in unresolved_condition_preds(cordefs)}
        assert rendered == {"y ≥ 7", "x > 2", "x = 4", "x < 10", "y > 2", "y < 10"}

    @pytest.fixture
    def prepass_calls(self, monkeypatch):
        """The arguments of every pre-pass call the analysis makes."""
        from flowcheck.gofront import analyze

        calls = []
        real = analyze.unresolved_condition_preds

        def counting(cordefs):
            calls.append(cordefs)
            return real(cordefs)

        monkeypatch.setattr(analyze, "unresolved_condition_preds", counting)
        return calls

    def test_no_union_no_pre_pass(self, prepass_calls):
        folded = (
            "package main\n\nfunc main() {\n\tx := 5\n\tch := make(chan int)\n"
            "\tif x > 3 {\n\t\tgo func() { ch <- 1 }()\n\t}\n\t<-ch\n}\n"
        )
        for source in (MOBY_FIXED, folded):
            analysis = analyze_source(source)
            assert [(c.label, str(c.verdict)) for c in analysis.cases] == [("", "NoDeadlock")]
        assert prepass_calls == []

    @pytest.mark.parametrize(
        "source, cases",
        [
            (
                "package main\n\nfunc s(ch chan int, v int) {\n\tif v < 10 {\n\t\tch <- 1\n"
                "\t}\n}\n\nfunc main() {\n\tvar x int\n\tch := make(chan int)\n"
                "\tgo s(ch, x)\n\t<-ch\n}\n",
                [("x ≤ 9", "NoDeadlock"), ("x ≥ 10", "Deadlock([![?Int]])")],
            ),
            (
                "package main\n\nfunc main() {\n\tvar x int\n\tch := make(chan int)\n"
                "\tgo func() {\n\t\tif x > 2 {\n\t\t\tch <- 1\n\t\t}\n\t}()\n\t<-ch\n}\n",
                [("x ≤ 2", "Deadlock([![?Int]])"), ("x ≥ 3", "NoDeadlock")],
            ),
        ],
        ids=["in a callee", "in a go literal"],
    )
    def test_an_undecided_if_runs_the_pre_pass_once(self, prepass_calls, source, cases):
        analysis = analyze_source(source)
        assert [(c.label, str(c.verdict)) for c in analysis.cases] == cases
        assert len(prepass_calls) == 1

    def test_a_refusal_names_the_first_variable_in_sorted_order(self, tmp_path, capsys):
        # the guard on c and d comes first; a sweep that stopped at the
        # first bad comparison would name c
        source = (
            "package main\n\nfunc main() {\n\tch := make(chan int)\n"
            "\tvar a int\n\tvar b int\n\tvar c int\n\tvar d int\n"
            "\tif c < d {\n\t\tgo func() { ch <- 1 }()\n\t}\n"
            "\tif a < b {\n\t\t<-ch\n\t}\n}\n"
        )
        reason = "unresolved condition: cannot partition a: comparison against a non-constant"
        assert [c.verdict.reason for c in analyze_source(source).cases] == [reason]
        path = tmp_path / "order.go"
        path.write_text(source)
        assert main(["analyze", str(path)]) == 2
        assert reason in capsys.readouterr().out


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

    def test_the_corpus_collects_no_solver_universe(self, monkeypatch):
        # no Go program here calls the solver, which alone reads the symbols
        import flowcheck.solver as solver

        calls, universes = [], []
        real, init = solver.collect_concrete, solver.Universe.__init__
        monkeypatch.setattr(solver, "collect_concrete", lambda t: calls.append(t) or real(t))
        monkeypatch.setattr(solver.Universe, "__init__",
                            lambda u, *args: universes.append(args) or init(u, *args))
        for path in corpus_files():
            analyze_source(path.read_bytes())
        analyze_source(independent_guards(4))
        assert calls == [] and universes == []

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

    def test_same_typed_global_channels_warn(self):
        source = (
            "package main\n\nvar a = make(chan int)\nvar b = make(chan int)\n\n"
            "func main() {\n\tgo func() { a <- 1 }()\n\t<-a\n}\n"
        )
        analysis = analyze_source(source)
        assert analysis.worst() == "NoDeadlock"
        (warning,) = analysis.warnings
        assert warning.startswith("2 channels share element type Int;")

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


def operand_program(funcs, body):
    """A program with the package-level lines ``funcs``, then a ``main``
    that makes ``ch`` and runs the lines ``body``."""
    lines = ["package main", "", 'import "fmt"', ""] + list(funcs)
    lines += ["func main() {", "\tch := make(chan int)"] + ["\t" + b for b in body]
    return "\n".join(lines + ["\tfmt.Println()", "}", ""])


# mk starts a sender or a receiver on its channel and returns it; f starts a
# sender and returns a size, and g makes a slice of that size; or f sends
STARTS_SENDER = ("func mk(c chan int) chan int {", "\tgo func() { c <- 1 }()", "\treturn c", "}", "")
STARTS_RECEIVER = ("func mk(c chan int) chan int {", "\tgo func() { <-c }()", "\treturn c", "}", "")
SIZE_SENDER = ("func f(c chan int) int {", "\tgo func() { c <- 1 }()", "\treturn 1", "}", "")
SIZE_IN_G = SIZE_SENDER + ("func g(c chan int) {", "\ts := make([]int, f(c))", "\tfmt.Println(s)",
                           "}", "")
SENDS = ("func f(c chan int) bool {", "\tc <- 1", "\treturn true", "}", "")


class TestEvaluationOrder:
    """Every operand Go evaluates yields its flow items, in Go's order."""

    @pytest.mark.parametrize(
        "funcs, body",
        [
            (STARTS_SENDER, ["<-mk(ch)"]),
            (STARTS_RECEIVER, ["mk(ch) <- 1"]),
            (SIZE_SENDER, ["s := make([]int, f(ch))", "fmt.Println(s)", "<-ch"]),
            (SIZE_IN_G, ["go g(ch)", "<-ch"]),
        ],
        ids=["receive channel", "send channel", "make size", "make size in a goroutine"],
    )
    def test_a_channel_operand_or_make_size_runs_first(self, funcs, body):
        assert analyze_source(operand_program(funcs, body)).worst() == "NoDeadlock"

    def test_a_call_in_a_make_size_makes_its_caller_a_member(self):
        source = operand_program(SIZE_IN_G, ["go g(ch)", "<-ch"])
        assert notation.render(compute_m(parse(source)).cordefs["g"]) == "corDef[Inline(f)]"

    @pytest.mark.parametrize(
        "body, expected",
        [
            # Go never calls f, so the receiver still waits when main returns
            (["go func() { <-ch }()", "b := false && f(ch)", "fmt.Println(b)"], "Deadlock"),
            (["ok := true", "b := ok || f(ch)", "fmt.Println(b)"], "NoDeadlock"),
            (["go func() { <-ch }()", "b := true && f(ch)", "fmt.Println(b)"], "NoDeadlock"),
            (["ok := false", "b := ok || f(ch)", "fmt.Println(b)"], "Deadlock"),
            # a comparison or negation its constants decide also decides
            (["go func() { <-ch }()", "n := 2", "b := n > 1 && f(ch)", "fmt.Println(b)"],
             "NoDeadlock"),
            (["go func() { <-ch }()", "n := 2", "b := !(n > 1) || f(ch)", "fmt.Println(b)"],
             "NoDeadlock"),
        ],
        ids=["false &&", "true ||", "true &&", "false ||", "decided comparison &&",
             "decided negation ||"],
    )
    def test_a_decided_left_operand_keeps_or_drops_the_right(self, body, expected):
        assert analyze_source(operand_program(SENDS, body)).worst() == expected

    def test_an_undecided_left_operand_is_refused(self):
        for funcs, body, line in [
            (SENDS + ("func g(ok bool, c chan int) {", "\tb := ok && f(c)", "\tfmt.Println(b)", "}",
                      ""), ["go func() { <-ch }()", "g(true, ch)"], 11),
            # a left operand outside the conditions the translator reads decides nothing
            ((), ["go func() { ch <- 1 }()", 'ok := "a" == "b" && <-ch == 1', "fmt.Println(ok)"], 8),
        ]:
            assert [str(c.verdict) for c in analyze_source(operand_program(funcs, body)).cases] == [
                "Unsupported(channel operation in the right operand of && (line %d))" % line]

    def test_a_right_operand_without_flow_items_is_not_folded(self):
        source = operand_program(
            ("func g(ok bool, c chan int) {", "\tb := ok && len(\"x\") > 0", "\tfmt.Println(b)",
             "\tc <- 1", "}", ""),
            ["go g(true, ch)", "<-ch"])
        assert analyze_source(source).worst() == "NoDeadlock"


class Sentinel:
    """A stand-in for the value of one field of a node, for ``operands`` to
    return or leave."""

    def __init__(self, field):
        self.field = field

    def __repr__(self):
        return "<%s>" % self.field


# each node class with operands, to the fields it evaluates, in Go's order;
# ``args`` holds several
OPERAND_FIELDS = {
    goast.Call: ("fn", "args"),
    goast.Binary: ("left", "right"),
    goast.Send: ("chan", "value"),
    goast.Recv: ("chan",),
    goast.Unary: ("operand",),
    goast.MakeExpr: ("size",),
    goast.GoStmt: ("fn", "args"),
    goast.DeferStmt: ("fn", "args"),
    goast.If: ("cond",),
    goast.VarDecl: ("expr",),
    goast.Assign: ("expr",),
    goast.Return: ("expr",),
}
# nodes Go evaluates nothing inside of: a name, a literal, a type, a
# declaration or a function literal (its body runs when it is called)
LEAVES = {
    goast.Ident, goast.Selector, goast.IntLit, goast.StringLit, goast.BoolLit, goast.NilLit,
    goast.NamedType, goast.ChanType, goast.SliceType, goast.FuncType, goast.Func, goast.Program,
}


def node_classes():
    found, work = [], [goast.Node]
    while work:
        for cls in work.pop().__subclasses__():
            if cls.__module__ == goast.__name__:
                found.append(cls)
                work.append(cls)
    return found


def sentinel_node(cls):
    """``cls`` with a distinct sentinel in each field, two in ``args``."""
    fields = [f for f in cls.__slots__ if f != "line"]
    values = {f: (Sentinel("args.0"), Sentinel("args.1")) if f == "args" else Sentinel(f)
              for f in fields}
    return cls(*(values[f] for f in fields)), values


class TestOperands:
    """``operands`` is the one statement of Go's order of evaluation."""

    @pytest.mark.parametrize("workload", ["fanout", "corpus"])
    def test_translation_reads_each_node_once(self, workload, monkeypatch):
        # names are resolved while parsing, so no walk before translation
        # reads a node's operands
        from collections import Counter

        from flowcheck.gofront import translate
        from paths import ROOT

        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads

        programs = []
        for program in workloads.build(workload, 1, ROOT).blocks[0]:
            try:
                programs.append(parse(program.source))
            except (GoSyntaxError, Unsupported):
                continue
        reads = Counter()

        def counted(n):
            reads[id(n)] += 1
            return goast.operands(n)

        monkeypatch.setattr(translate, "operands", counted)
        total = 0
        for program in programs:
            reads.clear()
            compute_m(program)
            assert max(reads.values(), default=0) <= 1
            total += len(reads)
        assert total > 0

    def test_every_node_class_is_listed(self):
        assert set(node_classes()) == set(OPERAND_FIELDS) | LEAVES
        assert not set(OPERAND_FIELDS) & LEAVES

    @pytest.mark.parametrize("cls", sorted(OPERAND_FIELDS, key=lambda c: c.__name__))
    def test_sentinels_in_go_order(self, cls):
        node, values = sentinel_node(cls)
        expected = []
        for field in OPERAND_FIELDS[cls]:
            expected += values[field] if field == "args" else [values[field]]
        assert list(goast.operands(node)) == expected

    @pytest.mark.parametrize("cls", sorted(LEAVES, key=lambda c: c.__name__))
    def test_a_leaf_has_none(self, cls):
        assert goast.operands(sentinel_node(cls)[0]) == ()

    @pytest.mark.parametrize("cls", [goast.MakeExpr, goast.VarDecl, goast.Return])
    def test_an_absent_operand_is_none(self, cls):
        node, values = sentinel_node(cls)
        node = cls(*(None if f in OPERAND_FIELDS[cls] else v for f, v in values.items()))
        assert goast.operands(node) == ()


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
        "shape, accepted, verdict",
        [
            (lambda n: "%sv > 0%s" % ("(" * n, ")" * n), 96, "NoDeadlock"),
            (lambda n: "%s(v > 0)" % ("!" * n), 95, "NoDeadlock"),
            (lambda n: " || ".join("v > %d" % k for k in range(n)), 96, "NoDeadlock"),
            (lambda n: "%sv%s > 0" % ("f(" * n, ")" * n), 97,
             "Unsupported(condition beyond integer/boolean comparisons (line 10))"),
            (lambda n: "%sch > 0" % ("<-" * n), 97,
             "Unsupported(condition beyond integer/boolean comparisons (line 10))"),
            (lambda n: "f%s > 0" % ("()" * n), 98,
             "Unsupported(condition beyond integer/boolean comparisons (line 10))"),
        ],
        ids=["parentheses", "prefix operators", "operator chain", "call arguments",
             "receive prefixes", "calls of calls"],
    )
    def test_deep_expressions(self, shape, accepted, verdict):
        # the exact boundary: each operand, prefix operator, binary operator,
        # call argument and call of a call's result counts one level, so a
        # path that skipped one would accept more
        at_limit = analyze_source(self.program(shape(accepted)))
        assert [str(c.verdict) for c in at_limit.cases] == [verdict] * len(at_limit.cases)
        for depth in (accepted + 1, 1000):
            deep = analyze_source(self.program(shape(depth)))
            assert [str(c.verdict) for c in deep.cases] == ["Unsupported(nesting too deep (line 10))"]

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

    def test_deep_call_chains(self):
        from flowcheck.gofront.parser import MAX_NESTING

        def program(calls):
            return (
                "package main\n\nfunc main() {\n\tch := make(chan int)\n\tgo func() {\n"
                "\t\tch <- 1\n\t}()\n\tx := f%s\n\t_ = x\n\t<-ch\n}\n" % ("()" * calls)
            )

        assert analyze_source(program(MAX_NESTING - 10)).worst() == "NoDeadlock"
        deep = analyze_source(program(3000))
        assert [str(c.verdict) for c in deep.cases] == ["Unsupported(nesting too deep (line 8))"]

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

    def test_deep_go_chain(self):
        # 5000 finished goroutines stay on the live list, and a step still
        # costs only what it changes, not how many of them there are
        source = self.call_graph("go", 5000)
        analysis = analyze_source(source, max_steps=50000)
        assert analysis.worst() == "NoDeadlock"
        assert analysis.steps == 5004


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

    def test_comparisons_associate_left(self):
        # x < 1 == true is (x < 1) == true: a comparison of a comparison
        source = guarded_sender("\tx := 2\n").replace("x > 1", "x < 1 == true")
        assert source.splitlines()[5] == "\tif x < 1 == true {"
        assert [str(c.verdict) for c in analyze_source(source).cases] == [
            "Unsupported(condition beyond integer/boolean comparisons (line 6))"
        ]

    def test_unsupported_condition_reports_the_line_of_its_if(self):
        # the condition is on the line of its if
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


def flag_program(declaration):
    """``main`` declares ``done`` with ``declaration``, starts a sender if
    it is set and receives if it is not, then receives."""
    return (
        "package main\n\nfunc main() {\n\tch := make(chan int)\n\t%s\n"
        "\tif done {\n\t\tgo func() { ch <- 1 }()\n\t}\n"
        "\tif !done {\n\t\t<-ch\n\t}\n\t<-ch\n}\n" % declaration
    )


class TestFlagConditions:
    """A bare boolean variable as a condition: a known value folds the
    branch away, an unknown one reads as ``done = 1``."""

    @pytest.mark.parametrize("value, flow, verdict", [
        ("true", "Start(anon@7); ?Int", "NoDeadlock"),
        ("false", "?Int; ?Int", "Deadlock"),
    ])
    def test_a_known_flag_folds_to_one_branch(self, value, flow, verdict):
        source = flag_program("done := %s" % value)
        assert notation.render(compute_m(parse(source)).cordefs["main"]) == "corDef[%s]" % flow
        analysis = analyze_source(source)
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [("", verdict)]

    def test_an_unknown_flag_splits_on_being_one(self):
        analysis = analyze_source(flag_program("var done bool"))
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [
            ("done ≤ 0 ∨ done ≥ 2", "Deadlock"),
            ("done = 1", "NoDeadlock"),
        ]


class TestStatementAfterReturn:
    def test_is_refused_with_its_line(self, tmp_path, capsys):
        source = (
            "package main\n\nfunc main() {\n\tch := make(chan int)\n"
            "\tgo func() { ch <- 1 }()\n\t<-ch\n\treturn\n\t<-ch\n}\n"
        )
        assert source.splitlines()[7] == "\t<-ch"
        reason = "statement after return (line 8)"
        assert [c.verdict.reason for c in analyze_source(source).cases] == [reason]
        path = tmp_path / "after_return.go"
        path.write_text(source)
        assert main(["analyze", str(path)]) == 2
        assert reason in capsys.readouterr().out


SHADOWED_CHANNEL = '''package main

import "fmt"

func send(c chan int) {
	c <- 1
}

func main() {
	ch := make(chan int)
	%s {
		ch := make(chan string)
		go func() { ch <- "a" }()
		fmt.Println(<-ch)
	}
	go send(ch)
	fmt.Println(<-ch)
}
'''


def guarded_sender(before):
    """``main`` runs ``before``, starts a sender only when ``x > 1``, then
    receives: it deadlocks exactly when ``x`` is at most 1 there."""
    return (
        "package main\n\nfunc main() {\n\tch := make(chan int)\n%s"
        "\tif x > 1 {\n\t\tgo func() { ch <- 1 }()\n\t}\n\t<-ch\n}\n" % before
    )


class TestBlockScope:
    """A declaration ends with its block; an assignment to an enclosing
    variable outlives it."""

    @pytest.mark.parametrize("header", ["if true", "var v int\n\tif v > 3"],
                             ids=["decided", "undecided"])
    def test_a_shadowing_channel_keeps_its_type_in_its_block(self, header):
        analysis = analyze_source(SHADOWED_CHANNEL % header)
        assert {case.verdict.kind for case in analysis.cases} == {"NoDeadlock"}

    @pytest.mark.parametrize("before", [
        "\tx := 2\n\tif true {\n\t\tx := 1\n\t\t_ = x\n\t}\n",
        "\tx := 1\n\tif true {\n\t\tx = 2\n\t}\n",
        "\tx := 2\n\tvar v int\n\tif v > 3 {\n\t\tx = 2\n\t}\n",
    ], ids=["a shadowing declaration ends", "an assignment in a decided branch stays",
            "both branches leave the same constant"])
    def test_the_outer_constant_decides_the_guard(self, before):
        analysis = analyze_source(guarded_sender(before))
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [("", "NoDeadlock")]

    def test_an_assignment_in_an_undecided_branch_becomes_unknown(self):
        before = "\tx := 2\n\tvar v int\n\tif v > 3 {\n\t\tx = 0\n\t}\n"
        analysis = analyze_source(guarded_sender(before))
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [
            ("x ≤ 1", "Deadlock"), ("x ≥ 2", "NoDeadlock"),
        ]


def nil_channel_program(setup):
    """``main`` runs ``setup`` on ``ch``, then a goroutine sends on it and
    main receives: Go blocks both for good when ``ch`` is still nil."""
    return (
        "package main\n\nfunc main() {\n%s"
        "\tgo func() { ch <- 1 }()\n\t<-ch\n}\n" % setup
    )


class TestNilChannels:
    """A send or receive on a nil channel blocks forever, so a local channel
    that may still be nil where it is used is refused."""

    @pytest.mark.parametrize("source, reason", [
        (nil_channel_program("\tvar ch chan int\n"), "channel 'ch' may be nil (line 5)"),
        (nil_channel_program("\tch := make(chan int)\n\tch = nil\n"),
         "channel 'ch' may be nil (line 6)"),
        ("package main\n\nfunc send(ch chan int) {\n\tch <- 1\n}\n\nfunc main() {\n"
         "\tvar ch chan int\n\tgo send(ch)\n\t<-ch\n}\n", "channel 'ch' may be nil (line 9)"),
        (nil_channel_program("\tvar ch chan int\n\tvar v int\n\tif v > 3 {\n"
                             "\t\tch = make(chan int)\n\t}\n"),
         "channel 'ch' may be nil (line 9)"),
        (nil_channel_program("\tch := make(chan int)\n\tvar v int\n\tif v > 3 {\n"
                             "\t\tvar none chan int\n\t\tch = none\n\t}\n"),
         "channel 'ch' may be nil (line 10)"),
    ], ids=["declared without make", "assigned nil", "passed to a member",
            "made only in an undecided branch", "assigned a nil variable"])
    def test_is_refused_with_its_line(self, source, reason):
        analysis = analyze_source(source)
        assert [str(c.verdict) for c in analysis.cases] == ["Unsupported(%s)" % reason]

    @pytest.mark.parametrize("setup", [
        "\tvar ch chan int\n\tch = make(chan int)\n",
        "\tvar ch chan int\n\tif true {\n\t\tch = make(chan int)\n\t}\n",
        "\tvar ch chan int\n\tvar v int\n\tif v > 3 {\n\t\tch = make(chan int)\n"
        "\t} else {\n\t\tch = make(chan int)\n\t}\n",
        "\tvar ch chan int = make(chan int)\n\tif true {\n\t\tvar ch chan int\n"
        "\t\t_ = ch\n\t}\n",
        "\tmade := make(chan int)\n\tch := made\n",
    ], ids=["made after", "made in a decided branch", "made in both branches",
            "a nil declaration ends with its block", "a copy of a made channel"])
    def test_a_made_channel_is_kept(self, setup):
        assert analyze_source(nil_channel_program(setup)).worst() == "NoDeadlock"

    def test_the_command_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nil.go"
        path.write_text(nil_channel_program("\tvar ch chan int\n"), encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "channel 'ch' may be nil (line 5)" in capsys.readouterr().out


def global_channel_program(declarations, setup=""):
    """``nil_channel_program`` on a global ``ch``: ``declarations`` at
    package level, then ``main`` runs ``setup`` and uses ``ch``."""
    return (
        "package main\n\n%s\nfunc main() {\n%s"
        "\tgo func() { ch <- 1 }()\n\t<-ch\n}\n" % (declarations, setup)
    )


class TestNilGlobals:
    """A global channel declared nil that no statement of the program
    assigns is nil at every use; one that some statement assigns may be
    made before it is used, and is taken as made."""

    @pytest.mark.parametrize("declarations", [
        "var ch chan int\n", "var ch chan int = nil\n", "var none chan int\nvar ch = none\n",
    ], ids=["declared without make", "declared nil", "a copy of a nil global"])
    def test_an_unassigned_one_is_refused(self, declarations):
        source = global_channel_program(declarations)
        line = source.split("\n").index("\tgo func() { ch <- 1 }()") + 1
        analysis = analyze_source(source)
        assert [str(c.verdict) for c in analysis.cases] == [
            "Unsupported(channel 'ch' may be nil (line %d))" % line]

    @pytest.mark.parametrize("declarations, setup", [
        ("var ch chan int\n", "\tch = make(chan int)\n"),
        ("var ch chan int\n\nfunc mk() {\n\tch = make(chan int)\n}\n", "\tmk()\n"),
        ("var ch = make(chan int)\n", ""),
    ], ids=["made by main", "made by a function main calls", "made at its declaration"])
    def test_an_assigned_one_is_kept(self, declarations, setup):
        assert analyze_source(global_channel_program(declarations, setup)).worst() == "NoDeadlock"

    def test_the_command_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nil.go"
        path.write_text(global_channel_program("var ch chan int\n"), encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "channel 'ch' may be nil (line 6)" in capsys.readouterr().out


def global_guard_program(main_setup):
    """A global ``n``, declared 5, that guards the one send of ``f``;
    ``main`` runs ``main_setup``, starts ``f`` and receives."""
    return (
        "package main\n\nvar n = 5\n\nfunc f(ch chan int) {\n\tif n > 4 {\n\t\tch <- 1\n\t}\n}\n\n"
        "func main() {\n\tch := make(chan int)\n%s\tgo f(ch)\n\t<-ch\n}\n" % main_setup
    )


def captured_guard_program(value, assignment):
    """``main`` declares ``x := value``, runs ``assignment``, then starts a
    sender only if ``x > 1``, and receives."""
    return (
        "package main\n\nfunc main() {\n\tch := make(chan int)\n\tx := %s\n\t%s\n"
        "\tif x > 1 {\n\t\tgo func() { ch <- 1 }()\n\t}\n\t<-ch\n}\n" % (value, assignment)
    )


class TestAssignedInAnotherBody:
    """A variable that a body other than its own assigns has no constant
    value: a global that ``main`` assigns, seen from a named function, and
    a local that a function literal assigns, seen from its owner.  Its
    guards split into cases instead, so a program where Go's value fails
    the guard reads Deadlock, and so, from the other case, does one where
    it holds."""

    @pytest.mark.parametrize("source, cases", [
        (global_guard_program("\tn = 3\n"), [("n ≤ 4", "Deadlock"), ("n ≥ 5", "NoDeadlock")]),
        (global_guard_program("\tn = 6\n"), [("n ≤ 4", "Deadlock"), ("n ≥ 5", "NoDeadlock")]),
        (captured_guard_program(2, "func() { x = 1 }()"),
         [("x ≤ 1", "Deadlock"), ("x ≥ 2", "NoDeadlock")]),
        (captured_guard_program(1, "func() { x = 2 }()"),
         [("x ≤ 1", "Deadlock"), ("x ≥ 2", "NoDeadlock")]),
    ], ids=["global set to fail the guard", "global set to hold it",
            "local set to fail the guard", "local set to hold it"])
    def test_its_guard_splits(self, source, cases):
        assert [(c.label, c.verdict.kind) for c in analyze_source(source).cases] == cases

    @pytest.mark.parametrize("source, verdict", [
        (global_guard_program(""), "NoDeadlock"),
        (captured_guard_program(2, "x = 1"), "Deadlock"),
        (captured_guard_program(1, "func() { y := 2; y = 3 }()"), "Deadlock"),
    ], ids=["a global no body assigns", "a local its own body assigns",
            "a literal's own local"])
    def test_one_its_own_body_assigns_keeps_its_constant(self, source, verdict):
        assert [(c.label, c.verdict.kind) for c in analyze_source(source).cases] == [("", verdict)]

    @pytest.mark.parametrize("source", [
        global_guard_program("\tn = 3\n"), captured_guard_program(2, "func() { x = 1 }()"),
    ], ids=["global", "captured local"])
    def test_the_command_exits_one(self, tmp_path, capsys, source):
        path = tmp_path / "assigned.go"
        path.write_text(source, encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        assert "Deadlock" in capsys.readouterr().out


def initialized_global_program(initializer):
    """A global ``x`` set by ``initializer`` beside a made global ``ch``;
    ``main`` sends on ``ch`` from a literal, then prints ``x`` and a
    receive."""
    return (
        'package main\n\nimport (\n\t"fmt"\n\t"time"\n)\n\n'
        "func get(c chan int) int {\n\treturn <-c\n}\n\n"
        "var ch = make(chan int)\nvar x = %s\n\n"
        "func main() {\n\tgo func() { ch <- 1 }()\n\tfmt.Println(x, <-ch)\n}\n" % initializer
    )


class TestPackageInitializers:
    """A global's initializer runs before ``main``, where a channel
    operation blocks for good or depends on the order of package
    initialization: refused, whether direct, through a member or through a
    called literal."""

    @pytest.mark.parametrize("initializer", [
        "<-ch", "get(ch)", "func() int { return <-ch }()", "1 + get(ch)",
    ], ids=["a receive", "a member call", "a called literal", "a member call in an operand"])
    def test_a_channel_operation_is_refused_with_its_line(self, initializer):
        source = initialized_global_program(initializer)
        line = source.split("\n").index("var x = %s" % initializer) + 1
        analysis = analyze_source(source)
        assert [str(c.verdict) for c in analysis.cases] == [
            "Unsupported(channel operation in a package-level initializer (line %d))" % line]

    @pytest.mark.parametrize("initializer", [
        "time.After(time.Second)", "make(chan int)", "len(ch)",
    ])
    def test_an_initializer_without_one_is_kept(self, initializer):
        assert analyze_source(initialized_global_program(initializer)).worst() == "NoDeadlock"

    def test_the_command_exits_two(self, tmp_path, capsys):
        path = tmp_path / "init.go"
        path.write_text(initialized_global_program("get(ch)"), encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert "package-level initializer (line 13)" in capsys.readouterr().out


SENDS_ON_A_DEFERRED_CHANNEL = '''package main

func send(ch chan int) {
	ch <- 1
}

func main() {
	var ch chan int
	x := 0
	defer func() {
		if x > 0 {
			<-ch
		}
	}()
	ch = make(chan int)
	x = 1
	go send(ch)
}
'''


class TestDeferredLiteral:
    """A deferred literal runs at the end of its function, so it reads the
    channels and constants of its enclosing function as they are there."""

    def test_reads_a_channel_made_and_a_constant_set_after_the_defer(self):
        analysis = analyze_source(SENDS_ON_A_DEFERRED_CHANNEL)
        assert [str(c.verdict) for c in analysis.cases] == ["NoDeadlock"]

    def test_its_arguments_are_evaluated_at_the_defer(self):
        # the literal receives on the nil channel it was passed, for good
        source = SENDS_ON_A_DEFERRED_CHANNEL.replace("func() {", "func(c chan int) {").replace(
            "<-ch", "<-c").replace("\t}()\n", "\t}(ch)\n")
        assert "<-c\n" in source and "}(ch)" in source
        analysis = analyze_source(source)
        assert [str(c.verdict) for c in analysis.cases] == [
            "Unsupported(channel 'ch' may be nil (line 10))"
        ]

    def test_the_command_exits_zero(self, tmp_path):
        path = tmp_path / "deferred.go"
        path.write_text(SENDS_ON_A_DEFERRED_CHANNEL, encoding="utf-8")
        assert main(["analyze", str(path)]) == 0


SHADOWING_PROGRAMS = {
    # Go blocks main on ci for good: the goroutine sends on a chan string
    "a local literal shadows mk": ("""
	mk := func() chan string {
		return make(chan string)
	}
	ch := mk()
	ci := make(chan int)
	go func() {
		ch <- "a"
	}()
	<-ci
""", "Deadlock"),
    # use blocks on its chan string, and main on ci
    "a func-typed parameter named mk": ("""
	ci := make(chan int)
	go use(mks)
	<-ci
}

func mks() chan string {
	return make(chan string)
}

func use(mk func() chan string) {
	ch := mk()
	ch <- "a"
""", "Deadlock"),
    # f's parameter n hides the global constant n
    "a parameter named like a global constant": ("""
	ch := make(chan int)
	go f(ch, 0)
	<-ch
}

var n = 3

func f(ch chan int, n int) {
	if n > 2 {
		ch <- 1
	}
""", "Deadlock"),
    # the literal's scope ends with its block: mk() is the program's again
    "a literal mk ends with its block": ("""
	if true {
		mk := func() chan string {
			return make(chan string)
		}
		_ = mk
	}
	ch := mk()
	go func() {
		ch <- 1
	}()
	<-ch
""", "NoDeadlock"),
}


class TestNameResolution:
    """Each name resolves to the declaration it has where it is used, as in
    Go: a call and the channel it returns through the callee's."""

    @pytest.mark.parametrize("name", sorted(SHADOWING_PROGRAMS))
    def test_matches_go(self, name):
        body, verdict = SHADOWING_PROGRAMS[name]
        source = (
            "package main\n\nfunc mk() chan int {\n\treturn make(chan int)\n}\n\n"
            "func main() {%s}\n" % body
        )
        assert [c.verdict.kind for c in analyze_source(source).cases] == [verdict]

    @pytest.mark.parametrize("body, verdict, code", [
        # the local true is false, so the receive never runs
        ("\ttrue := false\n\tif true {\n\t\t<-ch\n\t}\n", "NoDeadlock", 0),
        ("\tnil := make(chan int)\n\tgo s(nil)\n\t<-nil\n", "NoDeadlock", 0),
        ("\tif true {\n\t\t<-ch\n\t}\n", "Deadlock", 1),
    ], ids=["true", "nil", "true unshadowed"])
    def test_a_declaration_hides_a_predeclared_name(self, body, verdict, code, tmp_path):
        source = ("package main\n\nfunc s(c chan int) {\n\tc <- 1\n}\n\n"
                  "func main() {\n\tch := make(chan int)\n%s}\n" % body)
        assert [c.verdict.kind for c in analyze_source(source).cases] == [verdict]
        path = tmp_path / "shadow.go"
        path.write_text(source, encoding="utf-8")
        assert main(["analyze", str(path)]) == code

    @pytest.mark.parametrize("call", ["(g(c, k()))()", "(g(c, 1))()", "(g)(c, 1)()",
                                      "(func() {\n\t\tc <- 1\n\t})()"])
    def test_a_parenthesized_callee_keeps_its_calls(self, call):
        # h sends on c only through the call in parentheses
        source = ("package main\n\nfunc k() int {\n\treturn 1\n}\n\n"
                  "func g(c chan int, x int) func() {\n\tc <- 1\n\treturn func() {}\n}\n\n"
                  "func h(c chan int) {\n\t%s\n}\n\n"
                  "func main() {\n\tch := make(chan int)\n\tgo h(ch)\n\t<-ch\n}\n" % call)
        assert [c.verdict.kind for c in analyze_source(source).cases] == ["NoDeadlock"]


class TestConstantOverflow:
    """Go evaluates a constant expression exactly and refuses one that
    overflows ``int``; arithmetic on a variable wraps at run time."""

    @pytest.mark.parametrize("expr, value", [
        ("9223372036854775807 + 1", "9223372036854775808"),
        ("-9223372036854775807 - 2", "-9223372036854775809"),
        ("k + 3037000500 * 3037000500", "9223372037000250000"),
    ])
    def test_an_overflowing_constant_is_refused_with_its_line(self, expr, value):
        source = guarded_sender("\tk := 0\n\tx := %s\n" % expr)
        assert source.splitlines()[5] == "\tx := %s" % expr
        analysis = analyze_source(source)
        assert [str(c.verdict) for c in analysis.cases] == [
            "Unsupported(constant %s overflows int (line 6))" % value
        ]

    @pytest.mark.parametrize("expr, verdict", [
        ("(9223372036854775807 + 1) - 9223372036854775807", "NoDeadlock"),
        ("k + 1", "Deadlock"),
    ], ids=["exact in between", "a variable operand wraps"])
    def test_a_value_that_fits_is_kept(self, expr, verdict):
        source = guarded_sender("\tk := 9223372036854775807\n\tx := %s + 1\n" % expr)
        assert [c.verdict.kind for c in analyze_source(source).cases] == [verdict]

    def test_a_call_reports_the_line_of_its_callee(self):
        source = guarded_sender("\tclose(\n\t\tch,\n\t)\n\tx := 2\n")
        assert [str(c.verdict) for c in analyze_source(source).cases] == [
            "Unsupported(close (line 5))"
        ]


class TestDivision:
    """``/`` and ``%`` fold as Go computes them: truncated toward zero,
    wrapping once a variable takes part; a zero divisor is refused."""

    @pytest.mark.parametrize("k, expr, verdict", [
        ("0", "7 / 2", "NoDeadlock"),
        ("0", "7 % 2", "Deadlock"),
        ("0", "-7 / 2 + 5", "NoDeadlock"),
        ("0", "-7 % 2 + 2", "Deadlock"),
        ("7", "k % 3 * 2", "NoDeadlock"),
        ("-9223372036854775808", "k / -1", "Deadlock"),
    ])
    def test_a_quotient_decides_the_guard(self, k, expr, verdict):
        # x > 1 starts the sender: x is 3, 1, 2, 1, 2, and -2^63 as
        # k / -1 wraps to k at run time
        analysis = analyze_source(guarded_sender("\tk := %s\n\tx := %s\n" % (k, expr)))
        assert [(c.label, c.verdict.kind) for c in analysis.cases] == [("", verdict)]

    @pytest.mark.parametrize("expr", ["7 / 0", "7 % (3 - 3)", "k / k", "(k + 1) % k"])
    def test_a_zero_divisor_is_refused_with_its_line(self, expr):
        source = guarded_sender("\tk := 0\n\tx := %s\n" % expr)
        assert source.splitlines()[5] == "\tx := %s" % expr
        assert [str(c.verdict) for c in analyze_source(source).cases] == [
            "Unsupported(division by zero (line 6))"
        ]


INT_MIN, INT_MAX = -(2**63), 2**63 - 1


class Refused(Exception):
    pass


def go_value(node, k):
    """``(value, exact)`` of a Python-parsed expression as Go computes it:
    exact over literals only, checked against ``int`` where it meets ``k``;
    wrapped to 64 bits at each operation ``k`` takes part in; integer
    division truncated toward zero."""
    if isinstance(node, ast.Constant):
        return node.value, True
    if isinstance(node, ast.Name):
        return k, False
    if isinstance(node, ast.UnaryOp):
        value, exact = go_value(node.operand, k)
        return (-value, True) if exact else (wrap(-value), False)
    left, left_exact = go_value(node.left, k)
    right, right_exact = go_value(node.right, k)
    exact = left_exact and right_exact
    for value, operand_exact in ((left, left_exact), (right, right_exact)):
        if operand_exact and not exact and not INT_MIN <= value <= INT_MAX:
            raise Refused("constant %d overflows int" % value)
    if isinstance(node.op, (ast.Div, ast.Mod)) and right == 0:
        raise Refused("division by zero")
    if isinstance(node.op, ast.Add):
        value = left + right
    elif isinstance(node.op, ast.Sub):
        value = left - right
    elif isinstance(node.op, ast.Mult):
        value = left * right
    else:
        quotient = abs(left) // abs(right) * (1 if (left < 0) == (right < 0) else -1)
        value = quotient if isinstance(node.op, ast.Div) else left - right * quotient
    return (value, True) if exact else (wrap(value), False)


def wrap(value):
    """The two's complement reading of the low 64 bits of ``value``."""
    return int.from_bytes((value % 2**64).to_bytes(8, "little"), "little", signed=True)


def reference_fold(expr, k):
    """The value ``expr`` folds to in Go, or the reason it is refused.
    Python's grammar gives these operators Go's precedence and left
    associativity, so ``ast`` parses the text as Go does."""
    try:
        value, exact = go_value(ast.parse(expr, mode="eval").body, k)
        if exact and not INT_MIN <= value <= INT_MAX:
            raise Refused("constant %d overflows int" % value)
    except Refused as e:
        return str(e)
    return value


def go_expressions():
    """Operator chains without parentheses, so precedence shapes the tree,
    over small and large literals, ``k``, unary minus and parentheses;
    ``k`` is drawn most often, so that wrapping and the checks where a
    literal meets it show."""
    atoms = st.sampled_from(["0", "1", "2", "7", "3037000500", "9223372036854775807",
                             "k", "k", "k"])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds("({})".format, inner),
            st.builds("-{}".format, st.one_of(atoms, st.builds("({})".format, inner))),
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*/%"), inner),
        ),
        max_leaves=6,
    )


class TestFoldingProperty:
    @settings(max_examples=300, deadline=None)
    @given(go_expressions(), st.sampled_from([0, 4, -3, INT_MAX, INT_MIN]))
    def test_the_folded_binding_is_go_s_value(self, expr, k):
        source = (
            "package main\n\nvar ch chan int = make(chan int)\n\n"
            "func s(v int) {\n\tif v < 10 {\n\t\tch <- v\n\t}\n}\n\n"
            "func main() {\n\tk := %d\n\tgo s(%s)\n\t<-ch\n}\n" % (k, expr)
        )
        expected = reference_fold(expr, k)
        if isinstance(expected, str):
            with pytest.raises(Unsupported) as e:
                compute_m(parse(source))
            assert e.value.feature == expected
        else:
            tr = compute_m(parse(source))
            assert "Start(s, v ↦ %d)" % expected in notation.render(tr.cordefs["main"])


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

    def test_every_definition_is_canonical(self, monkeypatch):
        # the translator builds each CorDef from its items with no canon pass
        from flowcheck.terms import canon, flatten
        from paths import ROOT
        from test_mutants import mutants

        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads

        sources = [path.read_text(encoding="utf-8") for path in corpus_files()]
        for name in ("fanout", "guards"):
            sources += [program.source for program in workloads.build(name, 1, ROOT).blocks[0]]
        sources += [source for _, source in mutants()]
        definitions = []
        for source in sources:
            try:
                definitions += compute_m(parse(source)).cordefs.values()
            except (GoSyntaxError, Unsupported):
                continue
        assert any(isinstance(item, Union) for d in definitions for item in d.flow)
        for d in definitions:
            assert canon(d) is d and flatten(d) is d, notation.render(d)


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


def member_main(lines):
    """``main``, a member with an unknown ``v`` and a balanced send and
    receive on ``ch``, then ``lines``."""
    head = ["package main", "", 'import "fmt"', "", "func main() {", "\tvar v int",
            "\tch := make(chan int)", "\tgo func() {", "\t\tch <- 1", "\t}()", "\t<-ch"]
    return "\n".join(head + lines + ["}"]) + "\n"


def declarations(n):
    """``n`` declarations ``xI := I`` in one body."""
    return member_main(["\tx%d := %d" % (i, i) for i in range(n)])


def undecided_ifs(n):
    """``n`` declarations, then an undecided ``if v > I`` that prints each."""
    return member_main(["\tx%d := %d" % (i, i) for i in range(n)] + [
        "\tif v > %d {\n\t\tfmt.Println(x%d)\n\t}" % (i, i) for i in range(n)])


def deferred_literals(n):
    """``n`` declarations, then a deferred literal for each, a member that
    sends it under an undecided ``if v > I``."""
    return member_main(["\tx%d := %d" % (i, i) for i in range(n)] + [
        "\tdefer func() {\n\t\tif v > %d {\n\t\t\tch <- x%d\n\t\t}\n\t}()" % (i, i)
        for i in range(n)])


FRONT_END_FAMILIES = {f.__name__: f for f in (declarations, undecided_ifs, deferred_literals)}


def front_end_seconds(source):
    """The processor time ``parse`` and ``compute_m`` take on ``source``,
    with the cyclic collector paused: its full collections fall at heap
    size thresholds, so they would blur a doubling."""
    gc.disable()
    try:
        began = time.process_time()
        compute_m(parse(source))
        return time.process_time() - began
    finally:
        gc.enable()


class TestFrontEndScales:
    """The front end takes time linear in the file: for each family, the
    best of three runs at 2n costs at most 3.0 times the best at n, where
    linear growth reads about 2 and quadratic about 4.  A scope or fact
    table copied per declaration, per literal or per branch is quadratic
    in each family.  Runs at n and 2n alternate, so a slow spell of the
    machine falls on both."""

    @pytest.mark.parametrize("family, n", [
        (declarations, 6000), (undecided_ifs, 1000), (deferred_literals, 1000),
    ], ids=["declarations", "undecided ifs", "deferred literals"])
    def test_a_doubling_costs_at_most_three_times(self, family, n):
        sources = family(n), family(2 * n)
        best = [min(times) for times in zip(*(
            [front_end_seconds(source) for source in sources] for _ in range(3)))]
        assert best[1] <= 3.0 * best[0], best


def fanout_source(kinds):
    """``main`` starts one sender per letter of ``kinds``, ``i`` of an int
    and ``s`` of a string, then receives once per sender, in that order."""
    chans = {"i": "ci", "s": "cs"}
    senders = {"i": "sendInt(ci)", "s": "sendString(cs)"}
    return "\n".join([
        "package main",
        "func sendInt(c chan int) {\n\tc <- 1\n}",
        'func sendString(c chan string) {\n\tc <- "x"\n}',
        "func main() {\n\tci := make(chan int)\n\tcs := make(chan string)",
        *("\tgo " + senders[k] for k in kinds),
        *("\t<-" + chans[k] for k in kinds),
        "}\n",
    ])


class TestItemSharing:
    """A translation builds each repeated send, receive or application item
    once and shares the one immutable object; the table dies with it."""

    def test_one_object_per_distinct_item(self):
        flow = compute_m(parse(fanout_source("iisisssi"))).cordefs["main"].flow
        assert len(flow) == 16
        assert len(set(flow)) == 4  # two starts and two receives
        assert len({id(item) for item in flow}) == 4

    def test_two_translations_share_no_item(self):
        program = parse(fanout_source("isi"))
        first, second = (compute_m(program).cordefs["main"].flow for _ in range(2))
        assert first == second
        assert not {id(item) for item in first} & {id(item) for item in second}

    def test_a_non_constant_argument_gets_its_own_variable(self):
        source = (
            "package main\n\nfunc send(c chan int, n int) {\n\tc <- n\n}\n\n"
            "func run(c chan int, n int) {\n\tgo send(c, n+1)\n\tgo send(c, n+1)\n"
            "\tgo send(c, n)\n\tgo send(c, n)\n\tgo send(c, 3)\n\tgo send(c, 3)\n}\n\n"
            "func main() {\n\tch := make(chan int)\n\trun(ch, 2)\n}\n"
        )
        flow = compute_m(parse(source)).cordefs["run"].flow
        assert [notation.render(item) for item in flow] == [
            "Start(send, n ↦ arg@1)", "Start(send, n ↦ arg@2)", "Start(send, n ↦ n)",
            "Start(send, n ↦ n)", "Start(send, n ↦ 3)", "Start(send, n ↦ 3)",
        ]
        assert flow[0] is not flow[1]
        assert flow[2] is flow[3] and flow[4] is flow[5]
