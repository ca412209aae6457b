"""Structural operations of the term algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcheck.preds import Cmp, TRUE
from flowcheck.terms import (
    Concrete,
    Constrained,
    CorIns,
    DefRef,
    EmptyInstance,
    HeadOfDefinition,
    IllegalBinding,
    Seq,
    Var,
    YIELD,
    ZERO,
    cor_def,
    cor_ins,
    distribute,
    flatten,
    head,
    power,
    received,
    seq,
    start_app,
    substitute,
    tail,
    term_map,
    yielded,
)

from strategies import general_types, ground_types

A, B, C = Concrete("A"), Concrete("B"), Concrete("C")
Int = Concrete("Int")


class TestFlatten:
    def test_nested_sequences_merge(self):
        assert seq(seq(A, B), C) == seq(A, B, C)

    def test_singleton_unwraps(self):
        assert seq(A) == A

    def test_empty_sequence_is_zero(self):
        assert seq() == ZERO

    def test_zero_items_vanish(self):
        assert seq(A, ZERO, B) == seq(A, B)

    def test_sequence_item_with_a_directed_sequence_flattens_once(self):
        # the spliced sequence's own directed sequence distributes too
        once = cor_ins(seq(yielded(A), yielded(seq(B, C))))
        assert once.flow == (yielded(A), yielded(B), yielded(C))
        assert flatten(once) == once

    @given(general_types())
    def test_idempotent(self, t):
        assert flatten(flatten(t)) == flatten(t)

    @given(ground_types(), ground_types(), ground_types())
    def test_associative(self, a, b, c):
        assert flatten(Seq((Seq((a, b)), c))) == flatten(Seq((a, Seq((b, c)))))


class TestDistribute:
    def test_sequence_splits_itemwise(self):
        assert distribute(YIELD, seq(A, B)) == [yielded(A), yielded(B)]

    def test_non_sequence_passes_through(self):
        assert distribute("?", Int) == [received(Int)]

    def test_zero_is_kept_for_void_removal(self):
        assert distribute(YIELD, ZERO) == [yielded(ZERO)]

    @given(st.lists(ground_types().filter(lambda t: t != ZERO), min_size=2, max_size=5))
    def test_preserves_arity(self, items):
        flat = seq(*items)
        if isinstance(flat, Seq):
            assert len(distribute(YIELD, flat)) == len(flat.items)


class TestHeadTail:
    def test_head(self):
        i = cor_ins(yielded(A), received(B))
        assert head(i) == yielded(A)

    def test_head_single(self):
        assert head(cor_ins(received(Int))) == received(Int)

    def test_head_of_definition_rejected(self):
        with pytest.raises(HeadOfDefinition):
            head(cor_def(yielded(A)))

    def test_tail(self):
        i = cor_ins(yielded(A), received(B))
        assert tail(i) == cor_ins(received(B))

    def test_tail_to_empty(self):
        assert tail(cor_ins(yielded(A))) == CorIns(())

    def test_tail_of_definition_rejected(self):
        with pytest.raises(HeadOfDefinition):
            tail(cor_def(yielded(A)))

    def test_empty_instance_rejected(self):
        with pytest.raises(EmptyInstance):
            head(CorIns(()))
        with pytest.raises(EmptyInstance):
            tail(CorIns(()))

    @given(st.data())
    def test_round_trip(self, data):
        from strategies import instances

        i = data.draw(instances())
        if not i.flow:
            return
        assert (head(i),) + tail(i).flow == i.flow


class TestSubstitute:
    def test_power_count(self):
        assert substitute(power(Int, Var("n")), {"n": 5}) == seq(*(Int,) * 5)

    def test_empty_binding_is_identity(self):
        assert substitute(A, {}) == A

    @given(general_types())
    def test_empty_binding_identity_property(self, t):
        assert substitute(t, {}) == flatten(t)

    def test_complex_binding_rejected(self):
        with pytest.raises(IllegalBinding):
            substitute(Var("x"), {"x": seq(A, B)})

    def test_zero_binding_rejected(self):
        with pytest.raises(IllegalBinding):
            substitute(Var("x"), {"x": ZERO})

    def test_variable_to_symbol(self):
        assert substitute(seq(Var("x"), B), {"x": A}) == seq(A, B)

    def test_untouched_variables_remain(self):
        assert substitute(Var("y"), {"x": A}) == Var("y")

    def test_start_binding_values(self):
        app = start_app(DefRef("f"), {"n": Var("x"), "m": Var("y")})
        assert substitute(app, {"x": 3}) == start_app(DefRef("f"), {"n": 3, "m": Var("y")})


class TestTermMap:
    @given(general_types())
    def test_identity_rebuilds_the_term(self, t):
        assert term_map(t, lambda s: s, lambda p: p) == t
        assert term_map(t, lambda s: s, lambda p: p) is t

    def test_leaves_come_back_unchanged(self):
        for leaf in (A, Var("x"), ZERO, DefRef("f"), 3):
            assert term_map(leaf, lambda s: B) is leaf

    def test_one_level_only(self):
        seen = []
        term_map(seq(A, yielded(B)), lambda s: seen.append(s) or s)
        assert seen == [A, yielded(B)]

    def test_guards_go_through_pred_fn(self):
        guard = Cmp(Var("x"), "<", 3)
        guarded, flow = Constrained(A, guard), CorIns((yielded(A),), guard)
        assert term_map(guarded, lambda s: s) == guarded
        assert term_map(flow, lambda s: s) == flow
        assert term_map(guarded, lambda s: s, lambda p: TRUE).pred == TRUE
        assert term_map(flow, lambda s: s, lambda p: TRUE).constraint == TRUE

    def test_rejects_a_non_term(self):
        with pytest.raises(TypeError):
            term_map("A", lambda s: s)

