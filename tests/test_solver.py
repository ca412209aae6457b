"""Constraint rewriting, collection, matching, and satisfiability.

The brute-force oracle here is deliberately independent of the production
path: it grounds both terms under every assignment of their free variables
over the symbol universe and the integer range -16..16, expands repeats
itself, and compares structurally.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowcheck.preds import (
    Binding,
    Cmp,
    FALSE,
    Or,
    TRUE,
    conj,
    disj,
    neg,
    pred_evaluate,
    pred_free_vars,
    pred_simplify,
    pred_substitute,
)
from flowcheck import solver
from flowcheck.solver import (
    BOTTOM,
    INT,
    ConstraintError,
    DomainConflict,
    Universe,
    _infer_domains,
    _int_constants,
    collect_concrete,
    equate,
    match,
    partition_cases,
    reduce_constrained,
    solve,
    unique_bindings,
)
from flowcheck.terms import (
    Concrete,
    Constrained,
    Power,
    Seq,
    Tup,
    Var,
    ZERO,
    cor_ins,
    constrained,
    flatten,
    power,
    received,
    seq,
    substitute,
    tup,
    yielded,
)

from strategies import VAR_NAMES, ground_types, guard_preds, simple_preds

Int, Str, Bool = Concrete("Int"), Concrete("String"), Concrete("Bool")
X, Y = Concrete("X"), Concrete("Y")


# ---------------------------------------------------------------------------
# the independent brute-force unifier (test oracle only)

ORACLE_INT_RANGE = range(-16, 17)


def _ground(t, assignment):
    if isinstance(t, Var):
        return assignment[t.name]
    if isinstance(t, Seq):
        return flatten(Seq(tuple(_ground(i, assignment) for i in t.items)))
    if isinstance(t, Tup):
        return Tup(tuple(_ground(i, assignment) for i in t.items))
    if isinstance(t, Power):
        count = assignment[t.count.name]
        if not isinstance(count, int) or count < 0:
            return None
        return flatten(Seq((_ground(t.base, assignment),) * count))
    if isinstance(t, Constrained):
        return _ground(t.base, assignment)
    return t


def _free_type_vars(t):
    out = set()
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, (Seq, Tup)):
        for i in t.items:
            out |= _free_type_vars(i)
    elif isinstance(t, Power):
        out |= _free_type_vars(t.base)
        out.add(t.count.name)
    elif isinstance(t, Constrained):
        out |= _free_type_vars(t.base)
        out |= set(pred_free_vars(t.pred))
    return out


def brute_force_unifiable(a, b, universe):
    """True iff some assignment over symbols and -16..16 makes a and b the
    same ground term with all attached constraints true."""
    names = sorted(_free_type_vars(a) | _free_type_vars(b))
    preds = []
    for t in (a, b):
        if isinstance(t, Constrained):
            preds.append(t.pred)
    domains = [
        [Concrete(s) for s in universe.symbols] + list(ORACLE_INT_RANGE)
        for _ in names
    ]
    for combo in itertools.product(*domains):
        assignment = dict(zip(names, combo))
        ga = _ground(a, assignment)
        gb = _ground(b, assignment)
        if ga is None or gb is None or ga != gb:
            continue
        try:
            if all(pred_evaluate(p, assignment) for p in preds):
                return True
        except ValueError:
            continue
    return False


def brute_force_solve(expr, universe):
    """The full-grid enumerator: the same grid and candidate order as
    ``solve``, but the whole predicate is evaluated on complete assignments
    only, with no split and no pruning."""
    expr = pred_simplify(expr)
    if expr == TRUE:
        return {}
    if expr == FALSE:
        return None
    domains = _infer_domains(expr, universe)
    names = sorted(domains)
    pad = len([n for n in names if domains[n] == INT]) + 1
    consts = _int_constants(expr) or {0}
    grid = sorted({c + d for c in consts for d in range(-pad, pad + 1)})
    sym_values = [Concrete(s) for s in universe.symbols]
    candidates = [grid if domains[n] == INT else sym_values for n in names]
    for combo in itertools.product(*candidates):
        assignment = dict(zip(names, combo))
        if pred_evaluate(expr, assignment):
            return assignment
    return None


def _outcome(fn, expr, universe):
    try:
        return fn(expr, universe)
    except Exception as e:  # compared by type
        return type(e)


# ---------------------------------------------------------------------------


@pytest.fixture
def universe():
    return Universe(["Int", "String", "Bool", "X", "Y"])


class TestReduceConstrained:
    def test_false_guard_erases(self):
        assert reduce_constrained(constrained(Int, FALSE)) == ZERO

    def test_true_guard_vanishes(self):
        assert reduce_constrained(constrained(Int, TRUE)) == Int

    def test_binding_applies_then_ground_guard_folds(self):
        t = constrained(
            power(Int, Var("n")), conj(Binding(Var("n"), 5), Cmp(Var("n"), ">", 0))
        )
        assert reduce_constrained(t) == seq(*(Int,) * 5)

    def test_stacked_guards_merge(self):
        t = Constrained(Constrained(Int, Cmp(Var("v"), "<", 9)), Cmp(Var("v"), ">", 2))
        out = reduce_constrained(t)
        assert out == constrained(
            Int, conj(Cmp(Var("v"), "<", 9), Cmp(Var("v"), ">", 2))
        )

    def test_false_guard_inside_a_power_erases_it(self):
        assert reduce_constrained(power(constrained(Int, FALSE), Var("n"))) == ZERO

    @given(st.data())
    @settings(max_examples=150)
    def test_fixpoint_on_random_stacks(self, data):
        base = data.draw(ground_types())
        t = base
        for _ in range(data.draw(st.integers(0, 8))):
            t = Constrained(t, data.draw(simple_preds()))
        out = reduce_constrained(t)
        assert reduce_constrained(out) == out


class TestCollect:
    def test_single_symbol(self):
        assert collect_concrete(Int) == {"Int"}

    def test_instance_payloads(self):
        assert collect_concrete(cor_ins(yielded(Int), received(Str))) == {
            "Int",
            "String",
        }

    def test_bare_variable_contributes_nothing(self):
        assert collect_concrete(Var("x")) == set()

    def test_guard_symbols_count(self):
        t = constrained(Int, Cmp(Var("x"), "=", Concrete("User")))
        assert collect_concrete(t) == {"Int", "User"}


class TestMatch:
    def test_power_against_run(self, universe):
        result = match(seq(*(Int,) * 5), power(Int, Var("n")), universe)
        assert result.bindings == {"n": 5}
        assert result.residual == TRUE

    def test_distinct_symbols_bottom(self, universe):
        assert match(Int, Str, universe) is BOTTOM

    def test_uniqueness_worked_example(self, universe):
        pending = constrained(tup(X, power(Y, Var("j"))), Cmp(Var("j"), "<", 5))
        pattern = constrained(
            tup(power(X, Var("i")), power(Y, Var("j"))), Cmp(Var("j"), ">", 0)
        )
        result = match(pending, pattern, universe)
        assert result.bindings == {"i": 1}
        # the residual is exactly the open interval 0 < j < 5
        expected = conj(Cmp(Var("j"), ">", 0), Cmp(Var("j"), "<", 5))
        for j in range(-3, 9):
            assert pred_evaluate(result.residual, {"j": j}) == pred_evaluate(
                expected, {"j": j}
            )

    def test_ground_self_match_never_bottom(self, universe):
        for t in (Int, seq(Int, Str), tup(Int, Bool), cor_ins(yielded(Int))):
            assert match(t, t, universe) is not BOTTOM

    @given(ground_types(), ground_types())
    @settings(max_examples=300)
    def test_commutative_on_ground_pairs(self, a, b):
        universe = Universe.collect(a, b)
        assert match(a, b, universe) == match(b, a, universe)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bindings_validated_by_brute_force(self, data):
        universe = Universe(["Int", "String", "Bool", "X", "Y"])
        shapes = st.one_of(
            st.tuples(st.just(seq(*(Int,) * 3)), st.just(power(Int, Var("n")))),
            st.tuples(
                st.just(tup(X, power(Y, Var("j")))),
                st.just(tup(power(X, Var("i")), power(Y, Var("j")))),
            ),
            st.tuples(ground_types(), ground_types()),
            st.tuples(st.just(Var("x")), ground_types()),
        )
        a, b = data.draw(shapes)
        result = match(a, b, universe)
        if result is BOTTOM:
            assert not brute_force_unifiable(a, b, universe)
            return
        bindings = {k: v for k, v in result.bindings.items()}
        aa = substitute(a, bindings)
        bb = substitute(b, bindings)
        assert brute_force_unifiable(aa, bb, universe)


class TestSolve:
    def test_symbol_equality(self):
        u = Universe(["Faculty", "User", "Student"])
        assert solve(Cmp(Var("x"), "=", Concrete("Faculty")), u) == {
            "x": Concrete("Faculty")
        }

    def test_empty_integer_interval(self):
        u = Universe([])
        expr = conj(Cmp(Var("n"), ">", 0), Cmp(Var("n"), "<", 1))
        assert solve(expr, u) is None

    def test_domain_conflict(self):
        u = Universe(["Faculty"])
        expr = conj(
            Cmp(Var("x"), "=", 3), Cmp(Var("x"), "=", Concrete("Faculty"))
        )
        with pytest.raises(DomainConflict):
            solve(expr, u)

    def test_deterministic_witness(self):
        u = Universe(["Bool", "Int"])
        expr = Cmp(Var("n"), ">", 3)
        assert solve(expr, u) == solve(expr, u)


UNIVERSES = st.sampled_from([(), ("Int", "Bool")])
# most generated predicates fold to true or false; a part must not
OPEN_PREDS = simple_preds().filter(lambda p: pred_free_vars(pred_simplify(p)))


class TestPartialEvaluation:
    @given(simple_preds(), st.dictionaries(st.sampled_from(VAR_NAMES), st.integers(-2, 2)))
    @settings(max_examples=200)
    def test_a_settled_value_holds_for_every_completion(self, expr, partial):
        # the search never extends a partial assignment read as False, so
        # a settled value must be the value of every full assignment
        value = pred_evaluate(expr, partial)
        rest = [n for n in VAR_NAMES if n not in partial]
        for combo in itertools.product(range(-1, 2), repeat=len(rest)):
            full = pred_evaluate(expr, {**partial, **dict(zip(rest, combo))})
            assert full in (True, False)
            assert value is None or full == value


class TestSolveAgainstOracle:
    @given(simple_preds(), UNIVERSES)
    @settings(max_examples=300)
    def test_same_outcome_as_full_grid(self, expr, symbols):
        u = Universe(symbols)
        assert _outcome(solve, expr, u) == _outcome(brute_force_solve, expr, u)

    @given(st.lists(OPEN_PREDS, min_size=2, max_size=3), UNIVERSES)
    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_same_outcome_on_independent_conjuncts(self, parts, symbols):
        # each part's variables become one variable of its own, so no two
        # parts share one; the oracle costs grid^variables, so the number
        # of parts stays at three
        expr = conj(*(
            pred_substitute(p, {n: Var("v%d" % k) for n in VAR_NAMES})
            for k, p in enumerate(parts)
        ))
        u = Universe(symbols)
        assert _outcome(solve, expr, u) == _outcome(brute_force_solve, expr, u)

    def test_evaluations_grow_with_groups_not_their_product(self, monkeypatch):
        calls = []
        counted = solver.pred_evaluate

        def counting(*args):
            calls.append(1)
            return counted(*args)

        monkeypatch.setattr(solver, "pred_evaluate", counting)
        k = 8
        expr = conj(*(
            conj(Cmp(Var("v%d" % i), "<=", 3), Cmp(Var("v%d" % i), ">=", 0))
            for i in range(k)
        ))
        assert solve(expr, Universe([])) == {"v%d" % i: 0 for i in range(k)}
        pad = k + 1
        grid = range(0 - pad, 3 + pad + 1)
        assert len(calls) <= k * len(grid)  # a full grid search needs grid^k


class TestUniqueBindings:
    def test_interval_variable_stays_symbolic(self):
        u = Universe([])
        expr = conj(Cmp(Var("j"), "<", 5), Cmp(Var("j"), ">", 0))
        interp = solve(expr, u)
        result = unique_bindings(expr, interp, u)
        assert result.bindings == {}
        for j in range(-2, 8):
            assert pred_evaluate(result.residual, {"j": j}) == (0 < j < 5)

    def test_pinned_variable_is_bound(self):
        u = Universe([])
        expr = Cmp(Var("i"), "=", 1)
        result = unique_bindings(expr, {"i": 1}, u)
        assert result.bindings == {"i": 1}
        assert result.residual == TRUE

    def test_symbol_equality_pins(self):
        u = Universe(["Faculty", "User"])
        expr = Cmp(Var("x"), "=", Concrete("Faculty"))
        result = unique_bindings(expr, {"x": Concrete("Faculty")}, u)
        assert result.bindings == {"x": Concrete("Faculty")}

    @given(simple_preds())
    @example(
        neg(disj(
            Cmp(Var("x"), "<", Var("n")),
            Or((Cmp(Var("x"), "<", Var("y")), Cmp(Var("j"), "<", 0))),
        ))
    )
    @example(
        disj(Cmp(Var("j"), "=", 4), conj(Cmp(Var("x"), "<", Var("y")), Cmp(Var("n"), "=", 0)))
    )
    @settings(max_examples=150)
    def test_no_binding_with_satisfiable_negation(self, expr):
        u = Universe(["Int", "Bool"])
        try:
            interp = solve(expr, u)
        except DomainConflict:
            return
        if not interp:
            return
        result = unique_bindings(expr, interp, u)
        for name, value in result.bindings.items():
            again = conj(expr, neg(Cmp(Var(name), "=", value)))
            assert solve(again, u) is None


class TestPartition:
    def test_weekday_groups(self):
        w = Var("weekday")
        p1 = conj(Cmp(w, ">=", 1), Cmp(w, "<=", 3))
        p2 = conj(Cmp(w, ">=", 3), Cmp(w, "<=", 5))
        cases = partition_cases([p1, p2])
        assert len(cases) == 4
        # every integer lands in exactly one case
        for value in range(-2, 10):
            holds = [
                pred_evaluate(c.assumption, {"weekday": value}) for c in cases
            ]
            assert holds.count(True) == 1

    def test_non_integer_variable_rejected(self):
        with pytest.raises(ConstraintError, match="non-constant"):
            partition_cases([Cmp(Var("x"), "=", Concrete("Faculty"))])

    def test_no_predicates_single_case(self):
        cases = partition_cases([])
        assert len(cases) == 1 and cases[0].assumption == TRUE


class TestCaseValuation:
    """A case's stored guard value is what the solver would prove."""

    @staticmethod
    def oracle_decide(guard, assumption, universe):
        if brute_force_solve(conj(guard, assumption), universe) is None:
            return False
        if brute_force_solve(conj(neg(guard), assumption), universe) is None:
            return True
        return None

    @given(
        st.sampled_from([("x",), ("x", "y")]).flatmap(
            lambda names: st.lists(guard_preds(names), min_size=1, max_size=3)
        )
    )
    @example(guards=[
        Cmp(Var("x"), "<=", 3),
        disj(Cmp(Var("x"), "=", 0), Cmp(Var("y"), ">", 2)),
        Cmp(Var("y"), "<", -1),
    ])
    @settings(max_examples=60, deadline=None)
    def test_valuation_matches_solver_and_oracle(self, guards):
        from flowcheck.engine import _decide

        u = Universe([])
        cases = partition_cases(guards)
        simplified = {pred_simplify(g) for g in guards}
        for case in cases:
            assert set(case.valuation) == {g for g in simplified if pred_free_vars(g)}
            for guard, value in case.valuation.items():
                assert _decide(guard, case.assumption, u) is value
                assert self.oracle_decide(guard, case.assumption, u) is value


class TestEquate:
    def test_variable_never_equals_structured_type(self, universe):
        assert equate(Var("x"), seq(Int, Str)) == FALSE
        assert equate(Var("x"), ZERO) == FALSE

    def test_power_against_single_item(self, universe):
        out = match(power(Int, Var("n")), Int, universe)
        assert out.bindings == {"n": 1}


@given(ground_types())
@settings(max_examples=200)
def test_ground_self_match_property(t):
    universe = Universe.collect(t)
    assert match(t, t, universe) is not BOTTOM
