"""Static deadlock analyzer for a Go subset.

Programs are typed into coroutine flow types (ordered lists of yield and
receive items), which a deterministic rule system reduces; an empty
residual means every channel operation pairs up and the program is
deadlock-free.
"""

from . import engine, notation, preds, solver, terms
from .engine import Verdict, reduce, start
from .gofront import analyze_file, analyze_source, compute_m, parse
from .notation import parse as parse_term, parse_pred, render, render_pred
from .solver import BOTTOM, ConditionSet, Universe, match

__all__ = [
    "BOTTOM",
    "ConditionSet",
    "Universe",
    "Verdict",
    "analyze_file",
    "analyze_source",
    "compute_m",
    "engine",
    "match",
    "notation",
    "parse",
    "parse_pred",
    "parse_term",
    "preds",
    "reduce",
    "render",
    "render_pred",
    "solver",
    "start",
    "terms",
]

__version__ = "0.1.0"
