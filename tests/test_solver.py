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
    OPS,
    And,
    Binding,
    Cmp,
    FALSE,
    Not,
    Or,
    TRUE,
    cmp,
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
    SYM,
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
    union,
    yielded,
)

from strategies import VAR_NAMES, concretes, ground_types, guard_preds, simple_preds

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
        assert reduce_constrained(constrained(Int, Binding(Var("x"), Var("x")))) == Int

    def test_a_coroutine_applies_its_own_guard(self):
        guard = conj(Binding(Var("n"), 2), Cmp(Var("v"), ">", 0))
        t = cor_ins(yielded(power(Int, Var("n"))), constraint=guard)
        assert reduce_constrained(t) == cor_ins(yielded(Int), yielded(Int),
                                                constraint=Cmp(Var("v"), ">", 0))

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


def _oracle_atoms(p):
    """Each atom of a predicate as ``(lhs, op, rhs)``, a binding as ``=``."""
    if isinstance(p, (And, Or)):
        return [a for item in p.items for a in _oracle_atoms(item)]
    if isinstance(p, Not):
        return _oracle_atoms(p.item)
    if isinstance(p, Binding):
        return [(p.var, "=", p.value)]
    if isinstance(p, Cmp):
        return [(p.lhs, p.op, p.rhs)]
    return []


def _domains_allowed(atoms, domains):
    """Whether ``domains`` (name -> INT | SYM) meets every atom: a symbol
    only under equality, a variable under an ordering or compared with an
    int is an integer, one equated with a symbol is a symbol, and two
    compared variables share a domain."""
    for lhs, op, rhs in atoms:
        for side, other in ((lhs, rhs), (rhs, lhs)):
            if isinstance(side, Concrete) and op != "=":
                return False
            if not isinstance(side, Var):
                continue
            mine = domains[side.name]
            if isinstance(other, Var) and domains[other.name] != mine:
                return False
            if (op != "=" or isinstance(other, int)) and mine != INT:
                return False
            if op == "=" and isinstance(other, Concrete) and mine != SYM:
                return False
    return True


DOMAIN_OPERANDS = st.one_of(
    st.sampled_from(VAR_NAMES[:4]).map(Var),
    st.integers(-2, 2),
    st.sampled_from([Int, Str]),
)
DOMAIN_ATOMS = st.one_of(
    st.builds(Cmp, DOMAIN_OPERANDS, st.sampled_from(OPS), DOMAIN_OPERANDS),
    st.builds(Binding, st.sampled_from(VAR_NAMES[:4]).map(Var), DOMAIN_OPERANDS),
)
DOMAIN_PREDS = st.recursive(
    DOMAIN_ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: conj(*ps)),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: disj(*ps)),
        inner.map(neg),
    ),
    max_leaves=6,
)


class TestInferDomains:
    @given(DOMAIN_PREDS, UNIVERSES)
    @settings(max_examples=400)
    def test_the_domains_the_rules_force(self, expr, symbols):
        # brute force over every INT/SYM assignment: none allowed is a
        # conflict; a variable every allowed assignment agrees on takes that
        # domain, any other the default one
        atoms = _oracle_atoms(expr)
        names = list(dict.fromkeys(
            t.name for atom in atoms for t in (atom[0], atom[2]) if isinstance(t, Var)
        ))
        every = [dict(zip(names, c)) for c in itertools.product((INT, SYM), repeat=len(names))]
        allowed = [domains for domains in every if _domains_allowed(atoms, domains)]
        u = Universe(symbols)
        if not allowed:
            with pytest.raises(DomainConflict):
                _infer_domains(expr, u)
            return
        default = SYM if symbols else INT
        expected = {
            n: allowed[0][n] if all(d[n] == allowed[0][n] for d in allowed) else default
            for n in names
        }
        assert _infer_domains(expr, u) == expected


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

    @pytest.mark.parametrize(
        "op, const", [("<=", 2**63 - 1), (">", 2**63 - 1), (">=", -(2**63)), ("<", -(2**63))]
    )
    def test_no_case_lies_outside_go_int(self, op, const):
        guard = Cmp(Var("v"), op, const)
        cases = partition_cases([guard])
        assert [(c.label, c.assumption) for c in cases] == [("", TRUE)]
        assert cases[0].valuation == {guard: op in ("<=", ">=")}

    @given(
        st.lists(guard_preds(("x", "y", "n")), min_size=1, max_size=4).flatmap(
            lambda guards: st.tuples(st.just(guards), st.permutations(guards))
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_the_order_of_the_guards_changes_no_case(self, guards_and_permutation):
        def shown(guards):
            return [(c.assumption, c.label, c.valuation) for c in partition_cases(guards)]

        guards, permuted = guards_and_permutation
        assert shown(permuted) == shown(guards)

    def test_a_refusal_names_the_first_variable_in_either_order(self):
        # sorted order decides, not the order the guards come in
        a_b, c_d = Cmp(Var("a"), "<", Var("b")), Cmp(Var("c"), "<", Var("d"))
        for guards in ([c_d, a_b], [a_b, c_d]):
            with pytest.raises(ConstraintError, match="^cannot partition a: "):
                partition_cases(guards)

    def test_the_ends_of_go_int_are_cases_of_their_own(self):
        cases = partition_cases([Cmp(Var("v"), "=", 2**63 - 1), Cmp(Var("v"), "=", -(2**63))])
        assert [c.label for c in cases] == [
            "v ≤ -9223372036854775808",
            "v ≥ -9223372036854775807 ∧ v ≤ 9223372036854775806",
            "v ≥ 9223372036854775807",
        ]


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
                assert _decide(guard, case.assumption) is value
                assert self.oracle_decide(guard, case.assumption, u) is value


class TestEquate:
    def test_variable_never_equals_structured_type(self, universe):
        assert equate(Var("x"), seq(Int, Str)) == FALSE
        assert equate(Var("x"), ZERO) == FALSE

    def test_a_guard_or_a_union_on_either_side(self):
        p = Cmp(Var("v"), "<", 3)
        assert equate(constrained(Int, p), Int) == p
        assert equate(Int, constrained(Int, p)) == p
        assert equate(union(Int, Var("x")), Str) == Cmp(Var("x"), "=", Str)
        assert equate(Str, union(Var("x"), Int)) == Cmp(Var("x"), "=", Str)

    def test_a_coroutine_conjoins_its_own_constraint(self):
        p = Cmp(Var("v"), "<", 3)
        a, b = cor_ins(yielded(Var("x")), constraint=p), cor_ins(yielded(Int))
        assert equate(a, b) == conj(Cmp(Var("x"), "=", Int), p)

    def test_a_power_equals_zero_when_its_count_is_zero(self):
        assert equate(power(Int, Var("n")), ZERO) == Cmp(Var("n"), "=", 0)

    def test_two_variables_compare_in_name_order(self):
        assert equate(Var("b"), Var("a")) == Cmp(Var("a"), "=", Var("b"))
        assert cmp(Var("b"), "<", Var("a")) == Cmp(Var("a"), ">", Var("b"))

    def test_power_against_single_item(self, universe):
        out = match(power(Int, Var("n")), Int, universe)
        assert out.bindings == {"n": 1}


@given(ground_types())
@settings(max_examples=200)
def test_ground_self_match_property(t):
    universe = Universe.collect(t)
    assert match(t, t, universe) is not BOTTOM


class TestGroundMatch:
    """Two ``Concrete`` payloads are decided by equality, with no rewriting;
    every other argument still goes through it."""

    @given(concretes, concretes)
    def test_equal_symbols_give_the_empty_condition_set(self, a, b):
        result = match(a, b, Universe.collect(a, b))
        if equate(a, b) == TRUE:
            assert result == solver.ConditionSet({}, TRUE)
        else:
            assert equate(a, b) == FALSE and result is BOTTOM

    def test_only_non_ground_arguments_are_rewritten(self, universe, monkeypatch):
        rewritten = []
        real = solver.reduce_constrained
        monkeypatch.setattr(
            solver, "reduce_constrained", lambda t: rewritten.append(t) or real(t)
        )
        assert match(Int, Int, universe) == solver.ConditionSet({}, TRUE)
        assert match(Int, Str, universe) is BOTTOM
        assert rewritten == []
        assert match(Var("x"), Int, universe).bindings == {"x": Int}
        assert rewritten == [Var("x"), Int]
        guarded = constrained(Int, Cmp(Var("n"), ">", 0))
        result = match(guarded, Int, universe)
        assert result.bindings == {} and result.residual == Cmp(Var("n"), ">", 0)
        assert rewritten[2:] == [guarded, Int]
