"""The textual syntax is the trace contract: render/parse must invert."""

import pytest
from hypothesis import given

from flowcheck import notation
from flowcheck.preds import Binding, Cmp, conj
from flowcheck.terms import (
    Concrete,
    DefRef,
    Var,
    ZERO,
    cor_def,
    cor_ins,
    constrained,
    inline_app,
    power,
    received,
    seq,
    start_app,
    tup,
    union,
    yielded,
)

from strategies import general_types, simple_preds

Int, Str, Bool = Concrete("Int"), Concrete("String"), Concrete("Bool")


class TestRender:
    def test_instance(self):
        assert notation.render(cor_ins(yielded(Concrete("A")), received(Concrete("B")))) == "[!A; ?B]"

    def test_definition(self):
        assert notation.render(cor_def(yielded(Int))) == "corDef[!Int]"

    def test_zero(self):
        assert notation.render(ZERO) == "0"

    def test_union(self):
        assert notation.render(union(Int, Bool)) == "(Int | Bool)"

    def test_sequence(self):
        assert notation.render(seq(Int, Str)) == "<Int, String>"

    def test_uniform_run_compresses_to_power(self):
        assert notation.render(seq(*(Int,) * 5)) == "Int^5"

    def test_symbolic_power(self):
        assert notation.render(power(Int, Var("n"))) == "Int^n"

    def test_constraint(self):
        t = constrained(Int, Cmp(Var("v"), "<", 10))
        assert notation.render(t) == "Int / v < 10"

    def test_instance_constraint_sits_outside(self):
        t = cor_ins(received(Int), constraint=Cmp(Var("j"), ">", 0))
        assert notation.render(t) == "[?Int] / j > 0"

    def test_constrained_payload_is_parenthesized(self):
        t = cor_ins(yielded(constrained(Int, Cmp(Var("v"), "<", 10))))
        assert notation.render(t) == "[!(Int / v < 10)]"

    def test_start_with_reference_and_bindings(self):
        t = start_app(DefRef("s"), {"v": 2})
        assert notation.render(t) == "Start(s, v ↦ 2)"
        assert notation.render(inline_app(DefRef("s"), {"v": 2})) == "Inline(s, v ↦ 2)"

    def test_trace_shapes_from_reduction(self):
        nested = cor_def(start_app(cor_def(yielded(Concrete("Error")))))
        main = cor_def(inline_app(nested), received(Concrete("Error")))
        text = notation.render(main)
        assert text == "corDef[Inline(corDef[Start(corDef[!Error])]); ?Error]"


class TestParse:
    def test_exponent_round_trips_by_value(self):
        assert notation.parse("Int^5") == seq(*(Int,) * 5)
        assert notation.parse("Int^n") == power(Int, Var("n"))

    def test_case_decides_symbol_or_variable(self):
        assert notation.parse("Int") == Int
        assert notation.parse("x") == Var("x")

    def test_tuple_versus_union(self):
        assert notation.parse("(Int, Bool)") == tup(Int, Bool)
        assert notation.parse("(Int | Bool)") == union(Int, Bool)

    def test_grouping_parens(self):
        assert notation.parse("(Int)") == Int

    def test_stacked_constraints_collapse(self):
        t = notation.parse("Int / v < 10 / v > 0")
        expected = constrained(Int, conj(Cmp(Var("v"), "<", 10), Cmp(Var("v"), ">", 0)))
        assert t == expected

    def test_ascii_operator_aliases(self):
        assert notation.parse_pred("v <= 3 && v >= 1") == notation.parse_pred(
            "v ≤ 3 ∧ v ≥ 1"
        )

    def test_binding(self):
        assert notation.parse_pred("x ↦ 5") == Binding(Var("x"), 5)
        assert notation.render_pred(Binding(Var("x"), Int)) == "x ↦ Int"

    def test_stray_input_rejected(self):
        with pytest.raises(notation.NotationError):
            notation.parse("Int extra")
        with pytest.raises(notation.NotationError):
            notation.parse("[!A;;]")
        with pytest.raises(notation.NotationError):
            notation.parse_pred("inherit(x, User)")


class TestRefusals:
    """Each malformed input the parser refuses raises ``NotationError``."""

    @pytest.mark.parametrize("parse, text", [
        (notation.parse, "[!Int] # x"),
        (notation.parse, "Int extra"),
        (notation.parse_pred, "x < 1 y"),
        (notation.parse, "Int^X"),
        (notation.parse, "Int^-1"),
        (notation.parse, "Int^"),
        (notation.parse, "<Int, - x>"),
        (notation.parse_pred, "x < -"),
        (notation.parse, "Start(f, 1 ↦ 2)"),
        (notation.parse_pred, "3 ↦ x"),
        (notation.parse_pred, "x"),
        (notation.parse_pred, "x ∧ y < 1"),
        (notation.parse, "?Int"),
        (notation.parse, "[!A;;]"),
        (notation.parse, "(Int | Bool | String)"),
        (notation.parse, "Start f"),
        (notation.parse_pred, "x < ]"),
        (notation.parse, ""),
    ], ids=[
        "stray character", "trailing input after a type", "trailing input after a predicate",
        "capitalised exponent", "negative exponent", "missing exponent",
        "minus before a name", "minus at the end", "binding of a number",
        "binding target not a variable", "no comparison", "no comparison before a connective",
        "receive outside a flow", "empty flow item", "three-way union",
        "application without parentheses", "bad predicate operand", "empty input",
    ])
    def test_is_refused(self, parse, text):
        with pytest.raises(notation.NotationError):
            parse(text)

    def test_a_stray_character_is_named_with_its_offset(self):
        with pytest.raises(notation.NotationError, match="'#' at offset 7"):
            notation.parse("[!Int] # x")

    def test_ascii_aliases_inside_types(self):
        assert notation.parse("Start(f, n |-> 2)") == notation.parse("Start(f, n ↦ 2)")
        assert notation.parse("Start(f, n |-> 2)") == start_app(DefRef("f"), {"n": 2})
        assert notation.parse("[!Int] / n >= 1 && n <= 3") == cor_ins(
            yielded(Int), constraint=conj(Cmp(Var("n"), ">=", 1), Cmp(Var("n"), "<=", 3)))


class TestRoundTrip:
    @given(general_types())
    def test_terms(self, t):
        assert notation.parse(notation.render(t)) == t

    @given(simple_preds())
    def test_predicates(self, p):
        assert notation.parse_pred(notation.render_pred(p)) == p

    def test_definitions_the_translator_builds(self, monkeypatch):
        # an undecided if is a union of flows, each branch's items directed
        from flowcheck.gofront import GoSyntaxError, Unsupported, compute_m, parse
        from paths import ROOT, corpus_files
        from test_engine import guards_block
        from test_gofront import FRONT_END_FAMILIES

        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        sources = [path.read_text(encoding="utf-8") for path in corpus_files()]
        sources += guards_block(1) + guards_block(90210)
        sources += [family(4) for family in FRONT_END_FAMILIES.values()]
        definitions = []
        for source in sources:
            try:
                definitions += compute_m(parse(source)).cordefs.values()
            except (GoSyntaxError, Unsupported):
                continue
        assert any("| 0)" in notation.render(d) for d in definitions)
        for d in definitions:
            assert notation.parse(notation.render(d)) == d, notation.render(d)
