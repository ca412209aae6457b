"""The cases of one analysis share what no case changes, and nothing else.

``analyze_source`` reduces all its cases in one run, which forks where
their branches part, so the steps before a fork and the run's tables are
shared.  The reference below reduces each case of ``partition_cases`` on
its own, sharing nothing; every label, verdict, residual, external yield
and trace line must come out the same.  The tables live only as long as
their analysis: no module-level container of ``flowcheck`` grows across
analyses.
"""

import random
import sys

from flowcheck import engine
from flowcheck.engine import EngineError
from flowcheck.gofront import analyze_source
from flowcheck.gofront.lexer import GoSyntaxError
from flowcheck.gofront.parser import Unsupported, parse
from flowcheck.gofront.translate import compute_m, unresolved_condition_preds
from flowcheck.solver import ConstraintError, partition_cases
from flowcheck.terms import DefRef, start_app
from paths import corpus_files
from test_mutants import MUTANTS, SEED, mutate

OPS = ("<", "<=", ">", ">=", "==", "!=")


def guard_program(rng, guards):
    """``main`` with one branch per ``(variable, op, constant)`` guard,
    balanced (``go send; <-ch``) or, one time in four, broken (``<-ch``)."""
    variables = sorted({v for v, _, _ in guards})
    lines = ["package main", "", "func main() {"]
    lines += ["\tvar %s int" % v for v in variables]
    lines.append("\tch := make(chan int)")
    for var, op, const in guards:
        lines.append("\tif %s %s %d {" % (var, op, const))
        if rng.random() >= 0.25:
            lines += ["\t\tgo func() {", "\t\t\tch <- 1", "\t\t}()"]
        lines += ["\t\t<-ch", "\t}"]
    return "\n".join(lines + ["}"]) + "\n"


def guard_programs(count, seed=30):
    """Independent guards with k = 1 to 4, and chains of up to 8 guards on
    one variable, alternately."""
    rng = random.Random(seed)
    for n in range(count):
        if n % 2:
            consts = rng.sample(range(-4, 20), rng.randint(2, 8))
            guards = [("v0", rng.choice(OPS), c) for c in consts]
        else:
            guards = [("v%d" % i, rng.choice(OPS), rng.randint(-2, 5))
                      for i in range(rng.randint(1, 4))]
        yield guard_program(rng, guards)


def sources():
    texts = [path.read_text(encoding="utf-8") for path in corpus_files()]
    yield from texts
    rng = random.Random(SEED)
    for n in range(MUTANTS):
        yield "\n".join(mutate(texts[n % len(texts)].splitlines(), rng)) + "\n"
    yield from guard_programs(60)


def summary(label, verdict, trace):
    return label, verdict, [entry.line() for entry in trace]


def unshared_cases(source):
    """Each case of ``source`` reduced on its own, or None when the analysis
    stops before its reductions or one of them raises."""
    try:
        translation = compute_m(parse(source))
        cordefs = translation.cordefs
        if "main" not in cordefs:
            return None
        guards = unresolved_condition_preds(cordefs) if translation.guarded else []
        return [
            summary(case.label, *engine.reduce(
                [start_app(DefRef("main"))], assumption=case.assumption, defs=cordefs,
                valuation=case.valuation,
            ))
            for case in partition_cases(guards)
        ]
    except (GoSyntaxError, Unsupported, ConstraintError, EngineError):
        return None


def test_sharing_a_table_changes_no_case():
    compared = 0
    for source in sources():
        analysis = analyze_source(source)
        expected = unshared_cases(source)
        if expected is None:
            assert [c.label for c in analysis.cases] == [""], source
            assert analysis.worst() in ("Unsupported", "NoDeadlock"), source
            continue
        assert [summary(c.label, c.verdict, c.trace) for c in analysis.cases] == expected, source
        compared += len(expected)
    # the corpus, about a third of the mutants and every guard program reduce
    assert compared > 300


def module_containers():
    """The size of every module-level dict, list and set of ``flowcheck``."""
    return {
        (name, attr): len(value)
        for name, module in list(sys.modules.items())
        if name == "flowcheck" or name.startswith("flowcheck.")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_no_module_state_grows_across_analyses():
    programs = list(guard_programs(51, seed=49))
    assert len(set(programs)) == 51
    analyze_source(programs.pop())
    before = module_containers()
    assert before
    for source in programs:
        assert analyze_source(source).cases
    assert module_containers() == before
