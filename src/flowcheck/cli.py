"""Command-line interface.

``flowcheck analyze file.go`` prints a report (text or JSON) and exits 0
when every case is deadlock-free, 1 on any deadlock, 2 when the file uses
unsupported features, and 3 on usage errors, internal errors or an
inconclusive reduction; with ``--format json`` an internal error still
writes a report, with one Inconclusive verdict naming the exception.
``flowcheck corpus dir`` runs the bundled expectation corpus laid out as
``dir/<expected>/<name>.go``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import engine
from .gofront import Analysis, CaseResult, analyze_file, analyze_source
from .notation import render

EXIT_OK = 0
EXIT_DEADLOCK = 1
EXIT_UNSUPPORTED = 2
EXIT_ERROR = 3

_EXPECTED_DIRS = {
    "nodeadlock": "NoDeadlock",
    "deadlock": "Deadlock",
    "unsupported": "Unsupported",
}


def exit_code_for(worst: str) -> int:
    return {
        "NoDeadlock": EXIT_OK,
        "Deadlock": EXIT_DEADLOCK,
        "Unsupported": EXIT_UNSUPPORTED,
        "Inconclusive": EXIT_ERROR,
    }[worst]


def report_dict(path, analysis, elapsed_ms) -> dict:
    verdicts = []
    for case in analysis.cases:
        verdict = case.verdict
        residual = "" if verdict.residual is None else render(verdict.residual)
        externals = [render(e) for e in verdict.externals]
        verdicts.append(
            {
                "case": case.label,
                "verdict": verdict.kind,
                "residual": residual,
                "externals": externals,
                "reason": verdict.reason,
            }
        )
    return {
        "file": str(path),
        "verdicts": verdicts,
        "warnings": list(analysis.warnings),
        "steps": analysis.steps,
        "elapsed_ms": elapsed_ms,
    }


def crash_report(path, reason) -> dict:
    """The report of an analysis that raised: one Inconclusive verdict."""
    verdict = engine.Verdict("Inconclusive", reason=reason)
    return report_dict(path, Analysis([CaseResult("", verdict)]), 0.0)


def write_json(report, out):
    out.write(json.dumps(report, sort_keys=True, ensure_ascii=False) + "\n")


def print_text_report(report, analysis, show_trace, out):
    print("%s: %s" % (report["file"], analysis.worst()), file=out)
    for case, result in zip(report["verdicts"], analysis.cases):
        label = case["case"] or "-"
        line = "  case %s: %s" % (label, case["verdict"])
        if case["verdict"] == "Deadlock":
            line += "  residual %s" % case["residual"]
        if case["reason"]:
            line += "  (%s)" % case["reason"]
        print(line, file=out)
        if show_trace:
            for entry in result.trace:
                print("    " + entry.line(), file=out)
    for warning in report["warnings"]:
        print("  warning: %s" % warning, file=out)


def run_analyze(path, fmt="text", show_trace=False,
                max_steps=engine.DEFAULT_MAX_STEPS, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        source = Path(path).read_bytes()
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    started = time.perf_counter()
    analysis = analyze_source(source, max_steps=max_steps)
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
    report = report_dict(path, analysis, elapsed_ms)
    if fmt == "json":
        if show_trace:
            report["trace"] = [
                entry.line() for case in analysis.cases for entry in case.trace
            ]
        write_json(report, out)
    else:
        print_text_report(report, analysis, show_trace, out)
    return exit_code_for(analysis.worst())


def run_corpus(directory, max_steps=engine.DEFAULT_MAX_STEPS, out=None) -> int:
    out = out if out is not None else sys.stdout
    root = Path(directory)
    if not root.is_dir():
        print("error: corpus directory %s not found" % root, file=sys.stderr)
        return EXIT_ERROR
    entries = []
    for sub, expected in sorted(_EXPECTED_DIRS.items()):
        folder = root / sub
        if folder.is_dir():
            for path in sorted(folder.glob("*.go")):
                entries.append((path, expected))
    if not entries:
        print("0/0 corpus entries; nothing to check", file=out)
        return EXIT_ERROR
    matched = 0
    for path, expected in entries:
        analysis = analyze_file(path, max_steps=max_steps)
        actual = analysis.worst()
        ok = actual == expected
        matched += ok
        marker = "ok  " if ok else "FAIL"
        print(
            "%s %-34s expected %-11s got %s"
            % (marker, path.name, expected, actual),
            file=out,
        )
    print("%d/%d corpus entries match" % (matched, len(entries)), file=out)
    return EXIT_OK if matched == len(entries) else EXIT_DEADLOCK


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error to ``main`` instead of exiting with argparse's
    code 2, which stands for unsupported features here."""

    def error(self, message):
        raise _UsageError(message)


def _step_cap(text) -> int:
    """A ``--max-steps`` value: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a whole number of at least 1, got %r" % text)
    return value


def main(argv=None) -> int:
    parser = _Parser(
        prog="flowcheck",
        description="Static deadlock analyzer for a Go subset, based on "
        "coroutine flow types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one Go file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.add_argument("--trace", action="store_true",
                           help="print the reduction trace")
    p_analyze.add_argument("--max-steps", type=_step_cap,
                           default=engine.DEFAULT_MAX_STEPS)

    p_corpus = sub.add_parser("corpus", help="run an expectation corpus")
    p_corpus.add_argument("directory")
    p_corpus.add_argument("--max-steps", type=_step_cap,
                          default=engine.DEFAULT_MAX_STEPS)

    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    try:
        if args.command == "analyze":
            return run_analyze(args.file, args.format, args.trace, args.max_steps)
        return run_corpus(args.directory, args.max_steps)
    except Exception as e:  # a crash must never exit with a verdict's code
        reason = "%s: %s" % (type(e).__name__, " ".join(str(e).split()))
        print("error: %s" % reason, file=sys.stderr)
        if args.command == "analyze" and args.format == "json":
            write_json(crash_report(args.file, reason), sys.stdout)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
