"""End-to-end analysis of one Go source file.

parse -> coroutine map -> collect the symbol universe -> partition any
unresolved integer conditions -> one reduction per case -> verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import engine
from ..engine import AmbiguousCondition, EngineError, NoSatisfiableBranch, Verdict
from ..preds import TRUE
from ..solver import Case, ConstraintError, Universe, partition_cases
from ..terms import DefRef, start_app
from .lexer import GoSyntaxError
from .parser import Unsupported, parse
from .translate import UnknownChannel, compute_m, unresolved_condition_preds


@dataclass
class CaseResult:
    label: str  # "" when the analysis needed no case split
    verdict: Verdict
    trace: list = field(default_factory=list)


@dataclass
class Analysis:
    cases: list
    warnings: list = field(default_factory=list)
    steps: int = 0

    def worst(self) -> str:
        kinds = {c.verdict.kind for c in self.cases}
        for kind in ("Unsupported", "Deadlock", "Inconclusive"):
            if kind in kinds:
                return kind
        return "NoDeadlock"


def _unsupported(reason) -> Analysis:
    return Analysis([CaseResult("", Verdict("Unsupported", reason=str(reason)))])


def analyze_source(source: str, max_steps: int = engine.DEFAULT_MAX_STEPS) -> Analysis:
    try:
        program = parse(source)
        if "main" not in program.functions:
            return _unsupported("no main function")
        translation = compute_m(program)
    except (Unsupported, UnknownChannel) as e:
        return _unsupported(str(e))
    except GoSyntaxError as e:
        return _unsupported("syntax error: %s" % e)

    cordefs = translation.cordefs
    if "main" not in cordefs:
        # main never touches channels, directly or transitively
        return Analysis(
            [CaseResult("", Verdict("NoDeadlock"))], translation.warnings
        )

    universe = Universe.collect(*cordefs.values())

    try:
        preds = unresolved_condition_preds(cordefs)
        cases = partition_cases(preds) if preds else [Case(TRUE, "")]
    except ConstraintError as e:
        return _unsupported("unresolved condition: %s" % e)

    results = []
    total_steps = 0
    initial = [start_app(DefRef("main"))]
    try:
        for case in cases:
            verdict, trace = engine.reduce(
                initial,
                max_steps=max_steps,
                universe=universe,
                assumption=case.assumption,
                defs=cordefs,
                valuation=case.valuation,
            )
            results.append(CaseResult(case.label, verdict, trace))
            total_steps += len(trace)
    except (AmbiguousCondition, NoSatisfiableBranch, ConstraintError) as e:
        return _unsupported("unresolved condition: %s" % e)
    except EngineError as e:
        return _unsupported(str(e))
    return Analysis(results, translation.warnings, total_steps)


def analyze_file(path, max_steps: int = engine.DEFAULT_MAX_STEPS) -> Analysis:
    with open(path, "r", encoding="utf-8") as handle:
        return analyze_source(handle.read(), max_steps)
