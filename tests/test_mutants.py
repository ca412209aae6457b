"""Robustness on damaged input: seeded line and character mutants of the corpus.

A line mutant deletes, duplicates or swaps a few lines of a corpus file; a
character mutant inserts, deletes or replaces one character.  Most no longer
compile as Go; whatever they are, the analysis must return a
verdict rather than raise, and ``flowcheck analyze`` must exit with the code
README maps to that verdict, never with the crash code by accident.
"""

import random

from flowcheck.cli import main
from flowcheck.gofront import analyze_source
from paths import corpus_files

MUTANTS = 200
CHARACTER_MUTANTS = 200
SEED = 7
# quotes, escapes, comment delimiters, line breaks and non-ASCII digits reach
# the lexer's corners
CHARACTERS = "\"'`\\/*\n²٣"
# README: 0 every case deadlock-free, 1 a deadlock in any case, 2 unsupported
# input, 3 inconclusive (or an internal error, which must not happen here)
README_EXIT_CODES = {"NoDeadlock": 0, "Deadlock": 1, "Unsupported": 2, "Inconclusive": 3}


def mutate(lines, rng):
    """One to three line deletions, duplications or swaps."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        k = rng.randrange(len(lines))
        op = rng.choice(("delete", "duplicate", "swap"))
        if op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        else:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
    return lines


def mutate_character(text, rng):
    """One character inserted, deleted or replaced."""
    k = rng.randrange(len(text))
    op = rng.choice(("insert", "delete", "replace"))
    new = "" if op == "delete" else rng.choice(CHARACTERS)
    rest = k if op == "insert" else k + 1
    return text[:k] + new + text[rest:]


def mutants():
    rng = random.Random(SEED)
    texts = [path.read_text(encoding="utf-8") for path in corpus_files()]
    for n in range(MUTANTS):
        yield n, "\n".join(mutate(texts[n % len(texts)].splitlines(), rng)) + "\n"
    for n in range(MUTANTS, MUTANTS + CHARACTER_MUTANTS):
        yield n, mutate_character(texts[n % len(texts)], rng)


def test_mutants_never_crash_and_exit_by_verdict(tmp_path, capsys):
    kinds = set()
    for n, source in mutants():
        try:
            analysis = analyze_source(source)
        except Exception as e:  # report the mutant, not just the exception
            raise AssertionError("mutant %d raised %r:\n%s" % (n, e, source)) from e
        kinds.add(analysis.worst())
        path = tmp_path / ("mutant%d.go" % n)
        path.write_text(source, encoding="utf-8")
        code = main(["analyze", str(path)])
        capsys.readouterr()
        assert code == README_EXIT_CODES[analysis.worst()], "mutant %d:\n%s" % (n, source)
    # the mutants reach more than the parser's refusal
    assert {"NoDeadlock", "Deadlock", "Unsupported"} <= kinds


def test_every_line_prefix_gets_a_verdict():
    """A file cut short anywhere, with or without its final newline, still
    reads a verdict: the parser never looks past the end of its tokens."""
    for path in corpus_files():
        lines = path.read_text(encoding="utf-8").splitlines()
        for k in range(len(lines) + 1):
            prefix = "\n".join(lines[:k])
            for source in (prefix, prefix + "\n"):
                try:
                    analysis = analyze_source(source)
                except Exception as e:
                    raise AssertionError("%s cut after line %d raised %r" % (path.name, k, e)) from e
                assert analysis.worst() in README_EXIT_CODES
