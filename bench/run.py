"""Run one benchmark workload against flowcheck and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The workload is generated from the seed; each program is analysed
in-process with ``flowcheck.gofront.analyze_source``, one after another on
one thread (a closed loop), and every verdict is checked against the
program's known answer.  With ``--trace 0`` the run analyses for
``--seconds`` and reports the end-to-end metrics, its times scaled to a
nominal machine speed (see ``speed.py``); with ``--trace 1`` it takes the
workload's fixed number of blocks, analyses each program twice, once
untraced and once with a span at every layer boundary (see ``spans.py``),
reports the per-layer metrics and writes the spans to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A program fails
when the analysis raises, is inconclusive, or disagrees with the known
answer.  Failures that match a recorded known defect (``KNOWN_DEFECTS``)
still count in ``failed``; ``correct`` turns false only for any other
failure.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import speed
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 1
# Claims of a gain must also hold on this seed, which is kept out of tuning.
HELDOUT_SEED = 90210
DEFAULT_SECONDS = 30
# A timed run on a slow machine ends after this share of --seconds of
# unscaled analysis time, so that it stays within its time budget.
MAX_WALL_SHARE = 1.25
SETUP_REPEATS = 9
# The 90th percentile needs at least ten samples above it.
MIN_SAMPLES = 100

# Defects of the analyzer that the workloads show at the parent commit.
# They count as failures; the benchmark only refuses failures not listed.
KNOWN_DEFECTS = {
    "fanout-step-cap": "fan-out that needs more than the default 500 "
                       "reduction steps (N >= 167, or 168 with a sender "
                       "missing) ends Inconclusive",
    "fanout-cross-type-reorder": "receives reordered across element types are "
                                 "reported Deadlock, though each sender blocks "
                                 "in its own goroutine",
}
# The default step cap of the engine when the defects were recorded.  A
# step-cap failure of a program that needs fewer steps is not the known
# defect.
STEP_CAP = 500


def import_flowcheck():
    """Import flowcheck afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "flowcheck" / "__init__.py").is_file():
        raise SystemExit("bench: no flowcheck sources under %s" % src)
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "flowcheck" or m.startswith("flowcheck.")]:
        del sys.modules[name]
    flowcheck = importlib.import_module("flowcheck")
    if Path(flowcheck.__file__).resolve().parent != src / "flowcheck":
        raise SystemExit("bench: imported flowcheck from %s" % flowcheck.__file__)
    return flowcheck


def set_up(name: str, seed: int):
    """Import flowcheck, generate the workload and analyse its warm-up
    programs once; returns (flowcheck, workload)."""
    flowcheck = import_flowcheck()
    workload = workloads.build(name, seed, ROOT)
    for program in workload.warmup:
        flowcheck.analyze_source(program.source)
    return flowcheck, workload


class Checker:
    """Compares an analysis with a program's known answer."""

    def __init__(self, flowcheck):
        self._parse = flowcheck.notation.parse_pred
        self._evaluate = flowcheck.preds.pred_evaluate
        self._labels = {}

    def _covers(self, label, point) -> bool:
        if label == "":
            return True
        if label not in self._labels:
            self._labels[label] = self._parse(label)
        return self._evaluate(self._labels[label], dict(point))

    def failure(self, program, analysis):
        """Why the analysis fails the known answer, or None when it agrees.

        For a case split, each sample point is checked against the one case
        whose label covers it."""
        for case in analysis.cases:
            if case.verdict.kind == "Inconclusive":
                return "Inconclusive: %s" % case.verdict.reason
        for point, expected in program.answers:
            if point:
                covering = [c for c in analysis.cases if self._covers(c.label, point)]
                if len(covering) != 1:
                    return "%d cases cover %s" % (len(covering), dict(point))
                got = covering[0].verdict.kind
            else:
                got = analysis.worst()
            if got != expected:
                where = " at %s" % dict(point) if point else ""
                return "%s where Go gives %s%s" % (got, expected, where)
        return None


def fanout_steps(program) -> int:
    """The reduction steps a fan-out program needs: three per sender and
    two more for main."""
    senders = program.size - (program.variant == "missing")
    return 3 * senders + 2


def known_defect(program, failure: str):
    """The KNOWN_DEFECTS key that explains a failure, or None."""
    if program.family != "fanout":
        return None
    if failure.startswith("Inconclusive: step cap") and fanout_steps(program) > STEP_CAP:
        return "fanout-step-cap"
    if program.variant == "reordered" and failure.startswith("Deadlock where Go gives NoDeadlock"):
        return "fanout-cross-type-reorder"
    return None


class Tally:
    """Failures of the programs attempted, by cause."""

    def __init__(self):
        self.attempted = 0
        self.known = Counter()
        self.unexpected = []

    def add(self, program, failure):
        self.attempted += 1
        if failure is None:
            return
        defect = known_defect(program, failure)
        if defect is None:
            self.unexpected.append("%s: %s" % (program.name, failure))
        else:
            self.known[defect] += 1

    @property
    def failed(self) -> int:
        return sum(self.known.values()) + len(self.unexpected)


def attempt(analyze, checker, program, tally):
    """Analyse one program and check it; returns the ``time.perf_counter``
    readings before and after the analysis."""
    start = time.perf_counter()
    try:
        analysis = analyze(program.source)
    except Exception as error:  # a crash is a failed program, not a crashed run
        end = time.perf_counter()
        failure = "raised %s: %s" % (type(error).__name__, error)
    else:
        end = time.perf_counter()
        failure = checker.failure(program, analysis)
    tally.add(program, failure)
    return start, end


def latency_metrics(latencies) -> dict:
    return {
        "verdict_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "verdict_ms.p90": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "programs_per_s": (len(latencies) / sum(latencies), "1/s"),
    }


def timed_run(flowcheck, workload, seconds, probe, checker, tally):
    """Analyse whole blocks until ``seconds`` of analysis time, scaled to
    the nominal machine speed, have passed and there are MIN_SAMPLES;
    returns the (start, end) interval of each analysis.

    Counting scaled time keeps the number of blocks, and so the mix of
    programs, about the same whether the machine runs fast or slow.  On a
    machine much slower than nominal the run stops after MAX_WALL_SHARE
    times ``seconds`` of unscaled analysis time instead."""
    # arrays, so that memory does not grow with the number of samples
    starts, ends = array("d"), array("d")
    busy = wall = 0.0
    for block in itertools.cycle(workload.blocks):
        for program in block:
            start, end = attempt(flowcheck.analyze_source, checker, program, tally)
            starts.append(start)
            ends.append(end)
            took, scale = probe.measure(start, end)
            wall += took
            busy += took * scale
        if (busy >= seconds or wall >= MAX_WALL_SHARE * seconds) and len(starts) >= MIN_SAMPLES:
            return starts, ends


def scaled_metrics(probe, setups, starts, ends) -> dict:
    """The end-to-end metrics, times scaled to the nominal machine speed."""
    setup_s = statistics.median(
        took * scale for took, scale in (probe.measure(start, end) for start, end in setups))
    measured = [probe.measure(start, end) for start, end in zip(starts, ends)]
    print("unscaled: " + ", ".join(
        "%s %.6g %s" % (name, value, unit)
        for name, (value, unit) in latency_metrics([took for took, _ in measured]).items()))
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(latency_metrics([took * scale for took, scale in measured]))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def traced_run(flowcheck, workload, checker, tally) -> dict:
    """Analyse each program untraced and traced, alternating which goes
    first; the per-layer metrics.

    The run takes the workload's fixed number of blocks, not a measured
    time, so two runs with the same seed count exactly the same work."""
    tracer = Tracer()
    analyze = flowcheck.analyze_source
    untraced_s = 0.0
    blocks = itertools.islice(itertools.cycle(workload.blocks), workload.trace_blocks)
    programs = itertools.chain.from_iterable(blocks)
    for index, program in enumerate(programs):
        for traced in (index % 2 == 0, index % 2 == 1):
            if not traced:
                start, end = attempt(analyze, checker, program, Tally())
                untraced_s += end - start
                continue
            tracer.install()
            try:
                attempt(lambda source: tracer.run(index, analyze, source), checker, program, tally)
            finally:
                tracer.uninstall()
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write(SPANS_DIR / ("spans-%s.tsv" % workload.name))
    if tracer.dropped:
        print("spans: %d stored, %d more not stored" % (len(tracer.starts), tracer.dropped))
    return tracer.metrics(untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tally = Tally()
    if args.trace:
        flowcheck, workload = set_up(args.workload, args.seed)
        metrics = traced_run(flowcheck, workload, Checker(flowcheck), tally)
    else:
        with speed.SpeedProbe() as probe:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                flowcheck, workload = set_up(args.workload, args.seed)
                setups.append((start, time.perf_counter()))
            intervals = timed_run(flowcheck, workload, args.seconds, probe, Checker(flowcheck), tally)
        metrics = scaled_metrics(probe, setups, *intervals)

    print("workload %s, seed %d: %d programs, %d failed (failed_ratio %.4f)" % (
        args.workload, args.seed, tally.attempted, tally.failed,
        tally.failed / tally.attempted))
    for defect, count in sorted(tally.known.items()):
        print("  known defect %s: %d (%s)" % (defect, count, KNOWN_DEFECTS[defect]))
    for line in tally.unexpected[:20]:
        print("  unexpected failure: %s" % line, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("  %-28s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
