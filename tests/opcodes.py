"""Count the bytecodes each phase of the analysis executes, per workload.

Takes the root of a checkout and analyses block 0 of each benchmark
workload at seed 1 with that checkout's ``src``, generated by its
``bench/workloads.py``, which is read and not changed.  A ``sys.settrace``
opcode tracer counts the opcodes each phase executes: ``tokenize``,
``parse`` (without the tokenizer it calls), ``compute_m``, and
``reduction``, the rest of ``analyze_source`` (the case split and the
reduction runs).  It counts the second of two passes over the block, both
traced: the first warms the caches, and every interpreter counts the
second in full.  A first pass can miss opcodes: Python 3.12.1 gives none
in a process's first traced run, and 3.13.0 drops some of a code object's
first traced run::

    python tests/opcodes.py [ROOT] [--functions N]

ROOT defaults to this checkout.  Counts are exact for one interpreter
version, so two checkouts compare by running this script on each in the
same interpreter.  One line per workload, phases in that order, then the
total; with ``--functions N``, each phase's N functions that executed the
most opcodes follow their workload's line, one indented line each.  The
script exits non-zero when a workload counts no opcodes at all, since no
analysis runs free: the tracer saw nothing.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

PHASES = ("tokenize", "parse", "compute_m", "reduction")
SEED = 1


def counter():
    """``(trace, counts)``: a global trace function that counts each frame's
    opcodes in ``counts[phase]``, a ``Counter`` keyed by the frame's code,
    under the phase of the entry function below it."""
    from flowcheck.gofront import analyze, lexer, parser, translate

    entries = {
        analyze.analyze_source.__code__: "reduction",
        lexer.tokenize.__code__: "tokenize",
        parser.parse.__code__: "parse",
        translate.compute_m.__code__: "compute_m",
    }
    counts = {phase: Counter() for phase in PHASES}
    stack = []  # the phase of each live traced frame

    def local_for(phase):
        tally = counts[phase]

        def local(frame, event, arg):
            if event == "opcode":
                tally[frame.f_code] += 1
            elif event == "return":
                stack.pop()
            return local
        return local

    locals_ = {phase: local_for(phase) for phase in PHASES}

    def trace(frame, event, arg):
        phase = entries.get(frame.f_code) or (stack[-1] if stack else None)
        if phase is None:
            return None
        frame.f_trace_opcodes = True
        stack.append(phase)
        return locals_[phase]

    return trace, counts


def function_lines(phase, tally, n) -> list:
    """The ``n`` functions of ``tally`` with the most opcodes, most first."""
    return ["    %-9s %9d  %s:%d %s" % (phase, ops, Path(code.co_filename).name, code.co_firstlineno,
                                       getattr(code, "co_qualname", code.co_name))
            for code, ops in tally.most_common(n)]


def main(argv):
    options = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    options.add_argument("root", nargs="?", default=Path(__file__).resolve().parent.parent)
    options.add_argument("--functions", type=int, default=0, metavar="N",
                         help="also list each phase's N functions with the most opcodes")
    args = options.parse_args(argv[1:])
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from flowcheck.gofront import analyze_source

    uncounted = []
    for name in workloads.NAMES:
        block = workloads.build(name, SEED, root).blocks[0]
        for _ in range(2):  # a warm-up pass, then the counted one
            trace, counts = counter()
            sys.settrace(trace)
            try:
                for program in block:
                    analyze_source(program.source)
            finally:
                sys.settrace(None)
        totals = {phase: sum(counts[phase].values()) for phase in PHASES}
        print("%-7s %s total=%d" % (name, " ".join("%s=%d" % (p, totals[p]) for p in PHASES),
                                    sum(totals.values())))
        for phase in PHASES if args.functions > 0 else ():
            print("\n".join(function_lines(phase, counts[phase], args.functions)))
        if not any(totals.values()):
            uncounted.append(name)
    if uncounted:
        sys.exit("no opcodes counted for %s: the tracer saw no events" % ", ".join(uncounted))


if __name__ == "__main__":
    main(sys.argv)
