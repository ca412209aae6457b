"""Print one digest line per analysed input, to compare two checkouts.

A change that must not move any answer is checked by running this script
in a checkout of the change and in one of its parent, then diffing the two
outputs::

    python tests/identity.py > change.txt

It analyses the checkout's own ``src``.  Each line names the input, then
gives every case's label, verdict kind, residual, externals and reason,
every trace line, the warnings and the step count.  The inputs are the
corpus files, 2000 line mutants of them (``test_mutants.mutate``, seed 27),
the programs of the first 3 blocks of the ``fanout`` and ``guards``
workloads at seeds 1 and 90210, one program of each front-end family of
``test_gofront``, and long flows and chains of calls: a straight-line
``main`` of 40 start/receive pairs, a fan-in of 40 receivers and 40 sends,
and the call, ``go`` and send chains of depth 40.
"""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from flowcheck.gofront import analyze_source  # noqa: E402
from flowcheck.notation import render  # noqa: E402
from paths import corpus_files  # noqa: E402
from test_engine import fan_in_source, straight_line_main  # noqa: E402
from test_gofront import FRONT_END_FAMILIES, TestNestingLimit  # noqa: E402
from test_mutants import mutate  # noqa: E402

MUTANTS = 2000
MUTANT_SEED = 27
BLOCKS = 3
SEEDS = (1, 90210)
FAMILY_SIZE = 40


def inputs():
    """``(name, source)`` for every input, in a fixed order."""
    texts = []
    for path in corpus_files():
        texts.append(path.read_text(encoding="utf-8"))
        yield path.relative_to(ROOT).as_posix(), texts[-1]
    rng = random.Random(MUTANT_SEED)
    for n in range(MUTANTS):
        yield "mutant %d" % n, "\n".join(mutate(texts[n % len(texts)].splitlines(), rng)) + "\n"
    for name in ("fanout", "guards"):
        for seed in SEEDS:
            for index, block in enumerate(workloads.build(name, seed, ROOT).blocks[:BLOCKS]):
                for program in block:
                    yield "%s seed %d block %d %s" % (name, seed, index, program.name), program.source
    for name, family in FRONT_END_FAMILIES.items():
        yield "%s %d" % (name, FAMILY_SIZE), family(FAMILY_SIZE)
    yield "straight-line main %d" % FAMILY_SIZE, straight_line_main(FAMILY_SIZE)
    yield "fan-in %d" % FAMILY_SIZE, fan_in_source(FAMILY_SIZE)
    for shape in ("call", "go", "send"):
        yield "%s chain %d" % (shape, FAMILY_SIZE), TestNestingLimit.call_graph(shape, FAMILY_SIZE)


def digest(source) -> str:
    try:
        analysis = analyze_source(source)
    except Exception as e:  # a crash is an answer to compare too
        return "raised %r" % e
    cases = [
        (c.label, c.verdict.kind, None if c.verdict.residual is None else render(c.verdict.residual),
         [render(t) for t in c.verdict.externals], c.verdict.reason,
         [entry.line() for entry in c.trace])
        for c in analysis.cases
    ]
    return repr((cases, list(analysis.warnings), analysis.steps))


if __name__ == "__main__":
    for name, source in inputs():
        print("%s\t%s" % (name, digest(source)))
