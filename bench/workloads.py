"""Seeded program generators for the benchmark workloads.

Every program carries its known answer, worked out from Go semantics while
the generator builds the program and never from the analyzer:

- ``corpus``: the checked-in files; the answer is the file's directory.
- ``fanout``: main starts senders and then receives; main blocks for good
  when some channel gets more receives than it has senders.
- ``guards``: each undecided integer variable stands for an unknown input.
  At a sample point, main runs the branches whose guards hold, in order,
  and blocks for good at the first broken branch (a receive with no
  sender).

An answer maps sample points to verdicts.  A point is a tuple of
``(variable, value)`` pairs; the empty point stands for every input.  The
points of a guarded program hit every interval its guards separate.

This module does not import flowcheck, so generating a workload never
touches the analyzer.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("corpus", "fanout", "guards")

DEADLOCK = "Deadlock"
NO_DEADLOCK = "NoDeadlock"
UNSUPPORTED = "Unsupported"

_CORPUS_ANSWERS = {"deadlock": DEADLOCK, "nodeadlock": NO_DEADLOCK, "unsupported": UNSUPPORTED}


@dataclass(frozen=True)
class Program:
    name: str
    family: str
    variant: str
    source: str
    answers: tuple  # ((point, verdict), ...)
    size: int = 0  # fan-out: the N of the program


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple  # analysed once, untimed, during set-up
    # A run analyses whole blocks, cycling through them in order.  Every
    # block has the same make-up, so runs of any length have the same mix.
    blocks: tuple
    # How many blocks a traced run takes, so that two traced runs with the
    # same seed count exactly the same work.
    trace_blocks: int


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate workload ``name`` from ``seed``; ``root`` holds ``corpus/``."""
    if name == "corpus":
        return corpus_workload(seed, root / "corpus")
    if name == "fanout":
        return fanout_workload(seed)
    if name == "guards":
        return guards_workload(seed)
    raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(NAMES)))


# ---------------------------------------------------------------------------
# corpus: real programs, the frontend dominates

CORPUS_REPEATS = 200
CORPUS_TRACE_BLOCKS = 850


def corpus_programs(directory: Path) -> list:
    files = sorted(directory.glob("*/*.go"))
    programs = [
        Program(
            path.relative_to(directory).as_posix(),
            "corpus",
            path.parent.name,
            path.read_text(encoding="utf-8"),
            (((), _CORPUS_ANSWERS[path.parent.name]),),
        )
        for path in files
        if path.parent.name in _CORPUS_ANSWERS
    ]
    if not programs:
        raise FileNotFoundError("no corpus files under %s" % directory)
    return programs


def corpus_workload(seed: int, directory: Path) -> Workload:
    files = corpus_programs(directory)
    rng = random.Random(seed)
    blocks = []
    for _ in range(CORPUS_REPEATS):
        block = list(files)
        rng.shuffle(block)
        blocks.append(tuple(block))
    return Workload("corpus", tuple(files), tuple(blocks), CORPUS_TRACE_BLOCKS)


# ---------------------------------------------------------------------------
# fanout: one long reduction whose cost grows with the number of goroutines

FANOUT_MIN, FANOUT_MAX = 16, 192
# Every block has one program for each N of this geometric ladder, so a
# percentile of a run falls among programs of one size instead of wherever
# random sizes happen to land; the cost of a program grows as N squared.
FANOUT_LADDER = tuple(sorted({
    round(FANOUT_MIN * (FANOUT_MAX / FANOUT_MIN) ** (i / 22)) for i in range(23)}))
FANOUT_BLOCKS = 16
# Rung i of every block has variant FANOUT_VARIANTS[i % 4]: 11 of the 23
# rungs in spawn order, 6 reordered and 6 missing a sender, each spread
# over the whole ladder.  Fixing the variant of each rung gives every block
# the same cost, so a run's mix does not depend on how many blocks it
# takes; the seed sets the order, the element types, the reordering and
# the sender left out.  The median falls on rung 11, in spawn order, and
# the 90th percentile on rung 20, reordered: the two variants whose time
# depends least on the seed.
FANOUT_VARIANTS = ("reordered", "spawn_order", "missing", "spawn_order")
FANOUT_TRACE_BLOCKS = 3

_ELEM = {"i": ("int", "ci", "sendInt"), "s": ("string", "cs", "sendString")}


def fanout_program(rng: random.Random, n: int, variant: str) -> Program:
    """``main`` starts ``n`` senders of int or string, then receives ``n``
    times: in spawn order, reordered so that the channel sequence changes,
    or with one sender left out."""
    kinds = [rng.choice("is") for _ in range(n)]
    if len(set(kinds)) == 1:
        kinds[rng.randrange(n)] = "s" if kinds[0] == "i" else "i"
    receives = list(kinds)
    senders = list(kinds)
    if variant == "reordered":
        while receives == kinds:
            rng.shuffle(receives)
    elif variant == "missing":
        del senders[rng.randrange(n)]
    elif variant != "spawn_order":
        raise ValueError("unknown fanout variant %r" % variant)

    lines = ["package main", ""]
    for elem, _, func in _ELEM.values():
        value = "1" if elem == "int" else '"x"'
        lines += ["func %s(c chan %s) {" % (func, elem), "\tc <- %s" % value, "}", ""]
    lines.append("func main() {")
    for elem, chan, _ in _ELEM.values():
        lines.append("\t%s := make(chan %s)" % (chan, elem))
    lines += ["\tgo %s(%s)" % (_ELEM[k][2], _ELEM[k][1]) for k in senders]
    lines += ["\t<-%s" % _ELEM[k][1] for k in receives]
    lines.append("}")

    # Each sender blocks in its own goroutine until main takes its value, so
    # the order of receives does not matter; only a channel with more
    # receives than senders leaves main blocked.
    short = any(receives.count(k) > senders.count(k) for k in _ELEM)
    answer = DEADLOCK if short else NO_DEADLOCK
    return Program(
        "fanout/%s/N=%d" % (variant, n), "fanout", variant,
        "\n".join(lines) + "\n", (((), answer),), n,
    )


def fanout_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    blocks = []
    for _ in range(FANOUT_BLOCKS):
        block = [
            fanout_program(rng, n, FANOUT_VARIANTS[i % len(FANOUT_VARIANTS)])
            for i, n in enumerate(FANOUT_LADDER)
        ]
        rng.shuffle(block)
        blocks.append(tuple(block))
    warmup = tuple(fanout_program(rng, FANOUT_MIN, v) for v in sorted(set(FANOUT_VARIANTS)))
    return Workload("fanout", warmup, tuple(blocks), FANOUT_TRACE_BLOCKS)


# ---------------------------------------------------------------------------
# guards: many short reductions, one per case of an integer case split

GUARD_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
GUARD_CONST = 3  # one constant for all independent guards keeps the solver grid small
CHAIN_MAX = 16
CHAIN_STRATA = ((2, 6), (7, 11), (12, CHAIN_MAX))
BROKEN_SHARE = 0.25
GUARDS_BLOCKS = 80
# Per block: independent guards with these k, plus one chain whose length
# stratum rotates from block to block.  As many programs are faster than
# the k = 2 ones (k = 1) as are slower (k = 3 and the chain), so the median
# falls in the middle of the k = 2 programs, and the 90th percentile among
# the k = 3 ones.  Chains spend less than half their time in the solver, so
# one per block keeps the workload about the solver.
GUARDS_BLOCK_KS = (1,) * 5 + (2,) * 6 + (3,) * 4
# One k = 4 program goes into the first block.  It has the fixed shape of
# the ROADMAP measurement (every branch balanced, every guard vI <= 3): it
# takes about a quarter of a run on its own, and a seeded shape would let
# its shape rather than the analyzer set the run's throughput.
GUARDS_BIG_K = 4
GUARDS_TRACE_BLOCKS = 11


def guards_program(rng: random.Random, guards: list, family_variant: str,
                   broken_share: float = BROKEN_SHARE) -> Program:
    """``guards`` is a list of ``(variable, op, constant)``; every guard gets
    a branch that is balanced (``go send; <-ch``) or, with probability
    ``broken_share``, broken (``<-ch``)."""
    broken = [rng.random() < broken_share for _ in guards]
    variables = sorted({v for v, _, _ in guards})
    lines = ["package main", "", "func main() {"]
    lines += ["\tvar %s int" % v for v in variables]
    lines.append("\tch := make(chan int)")
    for (var, op, const), bad in zip(guards, broken):
        lines.append("\tif %s %s %d {" % (var, op, const))
        if not bad:
            lines += ["\t\tgo func() {", "\t\t\tch <- 1", "\t\t}()"]
        lines += ["\t\t<-ch", "\t}"]
    lines.append("}")

    # A comparison against c changes value only between c-1 and c or
    # between c and c+1, so these points meet every interval.
    per_var = []
    for var in variables:
        consts = {c for v, _, c in guards if v == var}
        values = sorted({x for c in consts for x in (c - 1, c, c + 1)})
        per_var.append([(var, x) for x in values])
    answers = []
    for point in itertools.product(*per_var):
        env = dict(point)
        blocked = any(
            bad and GUARD_OPS[op](env[var], const)
            for (var, op, const), bad in zip(guards, broken)
        )
        answers.append((point, DEADLOCK if blocked else NO_DEADLOCK))
    pattern = "".join("b" if bad else "." for bad in broken)
    return Program(
        "guards/%s/%s" % (family_variant, pattern), "guards", family_variant,
        "\n".join(lines) + "\n", tuple(answers),
    )


def independent_guards(rng: random.Random, k: int) -> Program:
    guards = [("v%d" % i, rng.choice(list(GUARD_OPS)), GUARD_CONST) for i in range(k)]
    return guards_program(rng, guards, "k=%d" % k)


def guard_chain(rng: random.Random, length: int) -> Program:
    consts = rng.sample(range(0, 4 * CHAIN_MAX), length)
    guards = [("v0", rng.choice(list(GUARD_OPS)), c) for c in consts]
    return guards_program(rng, guards, "chain=%d" % length)


def guards_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    blocks = []
    for index in range(GUARDS_BLOCKS):
        block = [independent_guards(rng, k) for k in GUARDS_BLOCK_KS]
        block.append(guard_chain(rng, rng.randint(*CHAIN_STRATA[index % len(CHAIN_STRATA)])))
        if index == 0:
            reference = [("v%d" % i, "<=", GUARD_CONST) for i in range(GUARDS_BIG_K)]
            block.append(guards_program(rng, reference, "k=%d" % GUARDS_BIG_K, 0.0))
        rng.shuffle(block)
        blocks.append(tuple(block))
    warmup = (independent_guards(rng, 1), independent_guards(rng, 2), guard_chain(rng, 4))
    return Workload("guards", warmup, tuple(blocks), GUARDS_TRACE_BLOCKS)
