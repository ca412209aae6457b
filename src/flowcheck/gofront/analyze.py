"""End-to-end analysis of one Go source file.

parse -> coroutine map -> partition any unresolved integer conditions ->
one reduction run for all the cases, forked where their branches part ->
verdicts.
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
        # only a union carries a guard that may need a case split
        guards = unresolved_condition_preds(cordefs) if translation.guarded else []
        cases = partition_cases(guards)
        runs = engine.reduce_cases([start_app(DefRef("main"))], cases, max_steps, cordefs)
        results = [CaseResult(case.label, verdict, trace)
                   for case, (verdict, trace) in zip(cases, runs)]
    except Unsupported as e:
        return _unsupported(str(e))
    except GoSyntaxError as e:
        return _unsupported("syntax error: %s" % e)
    except (AmbiguousCondition, NoSatisfiableBranch, ConstraintError) as e:
        return _unsupported("unresolved condition: %s" % e)
    except EngineError as e:
        return _unsupported(str(e))
    return Analysis(results, translation.warnings, sum(len(trace) for _, trace in runs))


def analyze_file(path, max_steps: int = engine.DEFAULT_MAX_STEPS) -> Analysis:
    with open(path, "rb") as handle:
        return analyze_source(handle.read(), max_steps)
