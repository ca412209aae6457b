"""Frontend for the supported Go subset."""

from .analyze import Analysis, CaseResult, analyze_file, analyze_source
from .goast import Program
from .lexer import GoSyntaxError
from .parser import Unsupported, parse
from .translate import compute_m, unresolved_condition_preds

__all__ = [
    "Analysis",
    "CaseResult",
    "GoSyntaxError",
    "Program",
    "Unsupported",
    "analyze_file",
    "analyze_source",
    "compute_m",
    "parse",
    "unresolved_condition_preds",
]
