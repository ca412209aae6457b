"""Value semantics of terms, predicates and Go syntax nodes.

Equality is checked against an oracle kept here: a node is its class and
the tuple of its compared fields, and equal nodes hash alike.  A node is
immutable, and a term or predicate shows itself in the notation."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcheck.gofront import parse
from flowcheck.gofront.goast import Ident, IntLit, Send
from flowcheck.notation import render, render_pred
from flowcheck.preds import And, Binding, Cmp, FalsePred, Not, Or, TruePred
from flowcheck.terms import (
    Concrete,
    Constrained,
    CorDef,
    CorIns,
    DefRef,
    Directed,
    InlineApp,
    Power,
    Seq,
    StartApp,
    Tup,
    Union,
    Var,
    ZeroType,
)

from strategies import general_types, instances, simple_preds

# the fields each class compares, in constructor order
COMPARED = {
    ZeroType: (), Concrete: ("name",), Var: ("name",), Seq: ("items",), Tup: ("items",),
    Union: ("left", "right"), Constrained: ("base", "pred"), Power: ("base", "count"),
    Directed: ("direction", "payload"), CorDef: ("flow", "constraint"),
    CorIns: ("flow", "constraint"), DefRef: ("name",), StartApp: ("target", "bindings"),
    InlineApp: ("target", "bindings"), TruePred: (), FalsePred: (), And: ("items",),
    Or: ("items",), Not: ("item",), Cmp: ("lhs", "op", "rhs"), Binding: ("var", "value"),
}
# every field, in constructor order: a coroutine's label is not compared
FIELDS = dict(COMPARED)
FIELDS[CorDef] = FIELDS[CorIns] = ("flow", "constraint", "label")

nodes = st.one_of(general_types(), instances(), simple_preds())


def key(x):
    """The oracle: a node is its class and its compared fields."""
    if type(x) in COMPARED:
        return (type(x),) + tuple(key(getattr(x, f)) for f in COMPARED[type(x)])
    if isinstance(x, tuple):
        return tuple(key(i) for i in x)
    return x


def rebuild(x, label):
    """A fresh copy made through the constructors, every coroutine given
    ``label``."""
    if type(x) in FIELDS:
        values = [rebuild(getattr(x, f), label) for f in FIELDS[type(x)]]
        if isinstance(x, (CorDef, CorIns)):
            values[2] = label
        return type(x)(*values)
    if isinstance(x, tuple):
        return tuple(rebuild(i, label) for i in x)
    return x


@given(nodes, nodes)
def test_equality_is_the_oracle_and_equal_nodes_hash_alike(a, b):
    assert (a == b) == (key(a) == key(b))
    if a == b:
        assert hash(a) == hash(b)


@given(nodes, st.sampled_from([None, "main", "anon@3"]))
def test_a_rebuilt_copy_is_equal_whatever_its_labels(a, label):
    copy = rebuild(a, label)
    assert copy is not a
    assert copy == a and hash(copy) == hash(a)
    assert pickle.loads(pickle.dumps(a)) == a


@given(nodes)
def test_a_node_hashes_as_the_tuple_of_its_compared_fields(a):
    # so the order of sets and dicts of nodes stays what it was
    assert hash(a) == hash(tuple(getattr(a, f) for f in COMPARED[type(a)]))


def test_a_concrete_and_a_variable_of_one_name_differ():
    assert Concrete("x") != Var("x")


@given(nodes)
def test_no_field_can_be_set_or_deleted(a):
    for field in FIELDS[type(a)] or ("name",):
        with pytest.raises(AttributeError):
            setattr(a, field, Concrete("B"))
        with pytest.raises(AttributeError):
            delattr(a, field)


@given(st.one_of(general_types(), instances()))
def test_a_term_shows_itself_in_the_notation(t):
    assert repr(t) == render(t)


@given(simple_preds())
def test_a_predicate_shows_itself_in_the_notation(p):
    assert repr(p) == render_pred(p)


PROGRAM = '''package main

import "fmt"

func f(ch chan int) {
	ch <- 1
}

func main() {
	ch := make(chan int)
	var n int
	x := 3
	x = n
	go f(ch)
	defer f(ch)
	if x > 2 {
		fmt.Println(<-ch)
	} else {
		return
	}
}
'''


def test_a_record_class_declares_its_fields_with_only_trailing_defaults():
    from flowcheck.record import Record

    with pytest.raises(TypeError, match="must declare its fields in __slots__"):
        type("NoSlots", (Record,), {})
    with pytest.raises(TypeError, match="only trailing fields may have defaults"):
        type("LeadingDefault", (Record,), {"__slots__": ("a", "b"), "_defaults": {"a": 1}})


def test_go_statements_that_differ_only_in_line_are_equal():
    body = parse(PROGRAM).functions["main"].body
    shifted = parse("\n\n\n" + PROGRAM).functions["main"].body
    assert [s.line for s in shifted] == [s.line + 3 for s in body]
    assert shifted == body
    assert [hash(s) for s in shifted] == [hash(s) for s in body]


def test_a_go_node_shows_its_fields():
    assert repr(Send(Ident("ch"), IntLit(1), 4)) == (
        "Send(chan=Ident(name='ch', line=0), value=IntLit(value=1, line=0), line=4)"
    )
