"""Shared hypothesis strategies for type terms and predicates."""

from hypothesis import strategies as st

from flowcheck.preds import Cmp, FALSE, OPS, TRUE, conj, disj, neg
from flowcheck.terms import (
    Concrete,
    Var,
    ZERO,
    cor_def,
    cor_ins,
    constrained,
    power,
    received,
    seq,
    tup,
    union,
    yielded,
)

CONCRETE_NAMES = ("Int", "String", "Bool", "Error", "Time")
VAR_NAMES = ("x", "y", "n", "j", "k")

concretes = st.sampled_from(CONCRETE_NAMES).map(Concrete)
variables = st.sampled_from(VAR_NAMES).map(Var)


def ground_types(max_depth=3):
    """Variable-free, constraint-free terms."""
    base = st.one_of(concretes, st.just(ZERO))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=4).map(lambda xs: seq(*xs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: tup(*xs)),
        ),
        max_leaves=6,
    )


def _pred_trees(atoms):
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: conj(*p)),
            st.tuples(inner, inner).map(lambda p: disj(*p)),
            inner.map(neg),
        ),
        max_leaves=5,
    )


def simple_preds():
    terms = st.one_of(variables, st.integers(-8, 8))
    return _pred_trees(st.one_of(
        st.just(TRUE),
        st.just(FALSE),
        st.builds(Cmp, terms, st.sampled_from(OPS), terms),
    ))


def guard_preds(names=("x",)):
    """Branch guards the case split accepts: every comparison sets one of
    the integer variables ``names`` against a constant."""
    return _pred_trees(st.builds(
        Cmp, st.sampled_from(names).map(Var), st.sampled_from(OPS), st.integers(-8, 8)
    ))


def general_types(max_depth=3):
    """Terms that may contain variables, powers, constraints, and flows."""
    base = st.one_of(concretes, variables, st.just(ZERO))

    def compounds(inner):
        flows = st.lists(
            st.one_of(inner.map(yielded), inner.map(received)), min_size=0, max_size=3
        )
        return st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: seq(*xs)),
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: tup(*xs)),
            st.tuples(inner, inner).map(lambda p: union(*p)),
            st.tuples(concretes, variables).map(lambda p: power(*p)),
            st.tuples(concretes, st.integers(2, 4)).map(lambda p: power(*p)),
            st.tuples(inner, simple_preds()).map(lambda p: constrained(*p)),
            flows.map(lambda f: cor_ins(*f)),
            flows.map(lambda f: cor_def(*f)),
        )

    return st.recursive(base, compounds, max_leaves=8)


def instances(max_items=3):
    payload = st.one_of(concretes, st.just(ZERO))
    item = st.one_of(payload.map(yielded), payload.map(received))
    return st.lists(item, min_size=0, max_size=max_items).map(lambda f: cor_ins(*f))
