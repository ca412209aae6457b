"""Structural operations of the term algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcheck import solver, terms
from flowcheck.notation import render
from flowcheck.preds import Cmp, TRUE, conj
from flowcheck.solver import Universe, equate, match, reduce_constrained
from flowcheck.terms import (
    Concrete,
    Constrained,
    CorDef,
    CorIns,
    DefRef,
    Directed,
    IllegalBinding,
    Power,
    Seq,
    Tup,
    Var,
    YIELD,
    ZERO,
    canon,
    cor_def,
    cor_ins,
    flatten,
    power,
    received,
    seq,
    start_app,
    substitute,
    term_map,
    yielded,
)

from strategies import general_types, ground_types, instances

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


P, Q = Cmp(Var("x"), "<", 3), Cmp(Var("y"), ">", 1)


class TestCanon:
    """Each rule of the canonical form on raw, non-canonical input; a
    canonical term comes back as the very same object."""

    @given(st.one_of(general_types(), instances()))
    def test_a_canonical_term_comes_back_itself(self, t):
        assert flatten(t) is t
        assert canon(t) is t

    def test_a_nested_sequence_merges(self):
        assert canon(Seq((Seq((A, B)), C))) == Seq((A, B, C))
        assert canon(Seq((A, Seq((B, C))))) == Seq((A, B, C))

    def test_a_singleton_sequence_unwraps(self):
        assert canon(Seq((A,))) is A

    def test_an_empty_sequence_is_zero(self):
        assert canon(Seq(())) is ZERO
        assert canon(Seq((ZERO, ZERO))) is ZERO

    def test_a_power_with_an_integer_count_expands(self):
        assert canon(Power(A, 3)) == Seq((A, A, A))
        assert canon(Power(A, 1)) is A
        assert canon(Power(A, 0)) is ZERO
        assert canon(Power(Seq((A, B)), 2)) == Seq((A, B, A, B))

    def test_a_power_of_zero_is_zero(self):
        assert canon(Power(ZERO, Var("n"))) is ZERO
        assert canon(Power(ZERO, 4)) is ZERO

    def test_stacked_constraints_collapse(self):
        assert canon(Constrained(Constrained(A, P), Q)) == Constrained(A, conj(P, Q))

    def test_a_true_or_zero_constraint_vanishes(self):
        assert canon(Constrained(A, TRUE)) is A
        assert canon(Constrained(ZERO, P)) is ZERO

    @pytest.mark.parametrize("cls", [CorIns, CorDef])
    def test_a_constraint_folds_into_a_coroutine(self, cls):
        flow = (yielded(A),)
        assert canon(Constrained(cls(flow, None, "f"), P)) == cls(flow, P, "f")
        assert canon(Constrained(cls(flow, P), Q)) == cls(flow, conj(P, Q))
        assert canon(Constrained(Constrained(cls(flow), P), Q)) == cls(flow, conj(P, Q))

    @pytest.mark.parametrize("cls", [CorIns, CorDef])
    def test_a_true_constraint_folded_into_a_coroutine_is_none(self, cls):
        flow = (yielded(A),)
        assert canon(Constrained(cls(flow), TRUE)).constraint is None
        assert canon(Constrained(cls(flow, TRUE), TRUE)).constraint is None

    def test_a_directed_sequence_in_a_flow_splits(self):
        raw = CorIns((Directed(YIELD, Seq((A, B))), received(C)))
        assert canon(raw).flow == (yielded(A), yielded(B), received(C))

    def test_a_sequence_in_a_flow_splices_and_splits_its_directed_sequence(self):
        raw = CorDef((Seq((yielded(A), Directed(YIELD, Seq((B, C))))),), None, "f")
        assert canon(raw) == CorDef((yielded(A), yielded(B), yielded(C)), None, "f")

    def test_zero_in_a_flow_vanishes(self):
        assert canon(CorIns((ZERO, yielded(A), ZERO))).flow == (yielded(A),)

    def test_a_directed_sequence_outside_a_flow_stays(self):
        payload = Directed(YIELD, Seq((A, B)))
        assert canon(payload) is payload
        assert canon(Tup((payload, A))).items[0] is payload

    def test_flatten_canonicalizes_bottom_up(self):
        raw = Tup((Seq((Seq((A,)), Power(B, 2))), Constrained(Constrained(C, P), TRUE)))
        assert flatten(raw) == Tup((Seq((A, B, B)), Constrained(C, P)))


def nested_tup(depth):
    t = A
    for _ in range(depth):
        t = Tup((t, A))
    return t


class TestCanonicalWalksAreLinear:
    """No walk re-flattens a canonical term, so the canonicalizing calls a
    match makes grow with the depth of a term, not its square."""

    @staticmethod
    def calls(monkeypatch, run, depth):
        count = [0]
        for name in ("flatten", "canon"):
            original = getattr(terms, name)

            def counted(t, original=original):
                count[0] += 1
                return original(t)

            for module in (terms, solver):
                monkeypatch.setattr(module, name, counted)
        t = nested_tup(depth)
        run(t)
        monkeypatch.undo()
        return count[0]

    @pytest.mark.parametrize(
        "run",
        [lambda t: match(t, t, Universe()), reduce_constrained, lambda t: equate(t, t)],
        ids=["match", "reduce_constrained", "equate"],
    )
    def test_calls_grow_linearly_with_depth(self, monkeypatch, run):
        counts = [self.calls(monkeypatch, run, depth) for depth in (50, 100, 150)]
        assert counts[2] - counts[1] == counts[1] - counts[0]
        assert counts[2] <= 10 * 150

    @staticmethod
    def reach(run):
        """The deepest nested tuple ``run`` handles, found by bisection."""
        low, high = 1, 2000
        while low < high:
            middle = (low + high + 1) // 2
            try:
                run(nested_tup(middle))
                low = middle
            except RecursionError:
                high = middle - 1
        return low

    @pytest.mark.parametrize(
        "run", [flatten, lambda t: match(t, t, Universe())], ids=["flatten", "match"]
    )
    def test_reaches_the_depth_render_reaches(self, run):
        # up to the two levels that the few frames above the walk may take
        assert self.reach(run) >= self.reach(render) - 2


class TestDistribute:
    """A directed sequence in a flow splits into one directed item each."""

    def test_sequence_splits_itemwise(self):
        assert cor_ins(yielded(seq(A, B))).flow == (yielded(A), yielded(B))

    def test_non_sequence_passes_through(self):
        assert cor_ins(received(Int)).flow == (received(Int),)

    def test_zero_is_kept_for_void_removal(self):
        assert cor_ins(yielded(ZERO)).flow == (yielded(ZERO),)

    @given(st.lists(ground_types().filter(lambda t: t != ZERO), min_size=2, max_size=5))
    def test_preserves_arity(self, items):
        flat = seq(*items)
        if isinstance(flat, Seq):
            assert len(cor_ins(yielded(flat)).flow) == len(flat.items)


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

