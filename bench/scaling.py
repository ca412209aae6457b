"""Time the two scaling families at the sizes the ROADMAP baseline quotes.

    python3 bench/scaling.py

Fan-out (spawn order) at N = 40, 80, 160 and independent guards (every
branch balanced, every guard ``vI <= 3``) at k = 2, 3, 4, plus one variable
with 16 guards.  Each line gives the median wall time of ``REPEATS``
calls of ``analyze_source`` (k = 4 runs once), the verdict and the steps.
"""

from __future__ import annotations

import random
import statistics
import time

import run
import workloads

REPEATS = 5


def cases():
    rng = random.Random(run.DEFAULT_SEED)
    for n in (40, 80, 160):
        yield "fanout N=%d" % n, workloads.fanout_program(rng, n, "spawn_order"), None
    for k in (2, 3, 4):
        guards = [("v%d" % i, "<=", workloads.GUARD_CONST) for i in range(k)]
        yield "guards k=%d" % k, workloads.guards_program(rng, guards, "k=%d" % k, 0.0), (
            1 if k == 4 else None)
    chain = [("v0", "<=", c) for c in range(0, 32, 2)]
    yield "guards chain=16", workloads.guards_program(rng, chain, "chain=16", 0.0), None


def main() -> int:
    flowcheck = run.import_flowcheck()
    for label, program, repeats in cases():
        times = []
        for _ in range(repeats or REPEATS):
            start = time.perf_counter()
            analysis = flowcheck.analyze_source(program.source)
            times.append(time.perf_counter() - start)
        print("%-16s %8.3f s  %-12s %d steps" % (
            label, statistics.median(times), analysis.worst(), analysis.steps))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
