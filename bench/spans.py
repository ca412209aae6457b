"""Per-layer tracing from outside the analyzer.

The tracer replaces the module attributes that callers look up at each
layer boundary with wrappers that open a span.  Spans live in memory
(name, start, end, parent span, program id) and are written out at exit;
self time, a span's duration minus the time its child spans cover, is
accumulated as spans close.  ``install`` and ``uninstall`` swap the
wrappers in and out, so the same process can run untraced in between.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name, count hook).  Each entry is the name
# callers actually use: analyze_source calls parse, compute_m and the
# partition functions through its own module, the engine calls solve, match
# and render through its own, the parser calls tokenize through its own.
TARGETS = (
    ("flowcheck.gofront.parser", "tokenize", "gofront.lex", "_count_tokens"),
    ("flowcheck.gofront.analyze", "parse", "gofront.parse", None),
    ("flowcheck.gofront.analyze", "compute_m", "gofront.translate", None),
    ("flowcheck.gofront.analyze", "unresolved_condition_preds", "solver.partition", None),
    ("flowcheck.gofront.analyze", "partition_cases", "solver.partition", "_count_cases"),
    ("flowcheck.solver", "solve", "solver.solve", None),
    ("flowcheck.engine", "solve", "solver.solve", None),
    ("flowcheck.engine", "match", "solver.match", "_count_match"),
    ("flowcheck.engine", "render", "notation.render", None),
    ("flowcheck.engine", "reduce", "engine.reduce", "_count_reduction"),
)

ANALYZE = "analyze"
SPAN_NAMES = (ANALYZE,) + tuple(dict.fromkeys(target[2] for target in TARGETS))
RULES = (
    "StartEval", "InlineEval", "RemoveVoid", "Resume", "YieldCo",
    "External", "ResumeCo", "MainExit", "Yield", "CoToExt",
)
# Spans kept for the dump.  A traced fanout run opens about 2.6 million,
# which would take over 80 MB; self times and counts still cover them all.
MAX_STORED_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.program = -1
        self.names = array("b")
        self.parents = array("l")
        self.programs = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.dropped = 0
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [name, start, child seconds, span index]
        self._open = Counter()
        self._saved = []
        self._bottom = sys.modules["flowcheck.solver"].BOTTOM

    # -- installing the wrappers -------------------------------------------

    def install(self):
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            hook = getattr(self, hook) if hook else None
            setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, function, hook):
        def wrapper(*args, **kwargs):
            if self._open[name]:  # a nested call of the same layer counts once
                return function(*args, **kwargs)
            self._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def run(self, program_id, function, *args):
        """Call ``function`` under a top-level span for one program."""
        self.program = program_id
        self._enter(ANALYZE)
        try:
            return function(*args)
        finally:
            self._exit()

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        self._open[name] += 1
        self.calls[name] += 1
        index = len(self.starts)
        if index < MAX_STORED_SPANS:
            # Slots are taken when a span opens, so a parent's index is
            # always known to its children.
            self.names.append(SPAN_NAMES.index(name))
            self.parents.append(self._stack[-1][3] if self._stack else -1)
            self.programs.append(self.program)
            self.ends.append(0.0)
        else:
            index = -1
            self.dropped += 1
        start = time.perf_counter()
        if index >= 0:
            self.starts.append(start - self.origin)
        self._stack.append([name, start, 0.0, index])

    def _exit(self):
        end = time.perf_counter()
        name, start, child_s, index = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.ends[index] = end - self.origin

    # -- counts -------------------------------------------------------------

    def _count_tokens(self, tokens):
        self.counts["gofront.tokens"] += len(tokens)

    def _count_cases(self, cases):
        self.counts["solver.cases"] += len(cases)

    def _count_match(self, result):
        self.counts["solver.match_hits"] += result is not self._bottom

    def _count_reduction(self, result):
        _, trace = result
        self.counts["engine.reductions"] += 1
        self.counts["engine.steps"] += len(trace)
        for entry in trace:
            self.counts["engine.rule." + entry.rule] += 1

    # -- results ------------------------------------------------------------

    def metrics(self, untraced_s: float) -> dict:
        """Per-layer metrics; ``untraced_s`` is the untraced wall time of the
        same programs, the base of ``trace.overhead_ratio``."""
        s, n = self.self_s, self.counts
        traced_s = sum(s.values())
        match_calls = self.calls["solver.match"]
        steps = n["engine.steps"]
        out = {
            "gofront.lex_s": (s["gofront.lex"], "s"),
            "gofront.tokens": (n["gofront.tokens"], "count"),
            "gofront.parse_s": (s["gofront.parse"], "s"),
            "gofront.translate_s": (s["gofront.translate"], "s"),
            "solver.partition_s": (s["solver.partition"], "s"),
            "solver.cases": (n["solver.cases"], "count"),
            "solver.solve_s": (s["solver.solve"], "s"),
            "solver.solve_calls": (self.calls["solver.solve"], "count"),
            "solver.match_s": (s["solver.match"], "s"),
            "solver.match_calls": (match_calls, "count"),
            "solver.match_hit_ratio": (
                n["solver.match_hits"] / match_calls if match_calls else 0.0, "ratio"),
            "notation.render_s": (s["notation.render"], "s"),
            "notation.render_calls": (self.calls["notation.render"], "count"),
            "engine.reduce_s": (s["engine.reduce"], "s"),
            "engine.reductions": (n["engine.reductions"], "count"),
            "engine.steps": (steps, "count"),
            "engine.us_per_step": (
                s["engine.reduce"] * 1e6 / steps if steps else 0.0, "us"),
        }
        for rule in RULES:
            out["engine.rule." + rule] = (n["engine.rule." + rule], "count")
        out["analyze.other_s"] = (s[ANALYZE], "s")
        out["trace.traced_s"] = (traced_s, "s")
        out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        return out

    def write(self, path):
        """Write the stored spans as tab-separated lines, times in seconds
        from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tprogram\n")
            for i in range(len(self.starts)):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, SPAN_NAMES[self.names[i]], self.starts[i], self.ends[i],
                    self.parents[i], self.programs[i]))
            if self.dropped:
                out.write("# %d later spans not stored\n" % self.dropped)
