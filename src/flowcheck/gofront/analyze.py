"""End-to-end analysis of one Go source file.

parse -> coroutine map -> partition any unresolved integer conditions ->
one reduction per case -> verdicts.
"""

from __future__ import annotations

from .. import engine
from ..engine import AmbiguousCondition, EngineError, NoSatisfiableBranch, Verdict
from ..record import Record
from ..solver import ConstraintError, partition_cases
from ..terms import DefRef, start_app
from .lexer import GoSyntaxError
from .parser import Unsupported, parse
from .translate import compute_m, unresolved_condition_preds


class CaseResult(Record):
    __slots__ = ("label", "verdict", "trace")  # label: "" when the analysis needed no case split
    _defaults = {"trace": ()}


class Analysis(Record):
    __slots__ = ("cases", "warnings", "steps")  # cases: CaseResults
    _defaults = {"warnings": (), "steps": 0}

    def worst(self) -> str:
        kinds = {c.verdict.kind for c in self.cases}
        for kind in ("Unsupported", "Deadlock", "Inconclusive"):
            if kind in kinds:
                return kind
        return "NoDeadlock"


def _unsupported(reason) -> Analysis:
    return Analysis([CaseResult("", Verdict("Unsupported", reason=str(reason)))])


def analyze_source(source: str | bytes, max_steps: int = engine.DEFAULT_MAX_STEPS) -> Analysis:
    """Analyse Go source given as text, or as the bytes of a file, which
    Go requires to be UTF-8."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError:
            return _unsupported("syntax error: invalid UTF-8 encoding")
    try:
        program = parse(source)
        if "main" not in program.functions:
            return _unsupported("no main function")
        translation = compute_m(program)
        cordefs = translation.cordefs
        if "main" not in cordefs:
            # main never touches channels, directly or transitively
            return Analysis([CaseResult("", Verdict("NoDeadlock"))], translation.warnings)
        results = []
        total_steps = 0
        initial = [start_app(DefRef("main"))]
        # only a union carries a guard that may need a case split
        guards = unresolved_condition_preds(cordefs) if translation.guarded else []
        # what no case changes, worked out by the first case that needs it; a
        # definition in which no conditional became a union starts as it is
        table = {id(d): d for name, d in cordefs.items() if name not in translation.guarded}
        for case in partition_cases(guards):
            verdict, trace = engine.reduce(
                initial,
                max_steps=max_steps,
                assumption=case.assumption,
                defs=cordefs,
                valuation=case.valuation, table=table,
            )
            results.append(CaseResult(case.label, verdict, trace))
            total_steps += len(trace)
    except Unsupported as e:
        return _unsupported(str(e))
    except GoSyntaxError as e:
        return _unsupported("syntax error: %s" % e)
    except (AmbiguousCondition, NoSatisfiableBranch, ConstraintError) as e:
        return _unsupported("unresolved condition: %s" % e)
    except EngineError as e:
        return _unsupported(str(e))
    return Analysis(results, translation.warnings, total_steps)


def analyze_file(path, max_steps: int = engine.DEFAULT_MAX_STEPS) -> Analysis:
    with open(path, "rb") as handle:
        return analyze_source(handle.read(), max_steps)
