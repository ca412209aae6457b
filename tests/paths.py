"""Files of the repository that the tests read, resolved from this file so
that the suite finds them from any working directory."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden" / "corpus_trace.txt"
CORPUS_SIZE = 26


def corpus_files():
    """Every corpus file, sorted; a loop over them never silently sees none."""
    files = sorted(CORPUS.glob("*/*.go"))
    assert len(files) == CORPUS_SIZE, "expected %d corpus files under %s, found %d" % (
        CORPUS_SIZE, CORPUS, len(files))
    return files


def corpus_source(rel):
    """The text of one corpus file, ``rel`` relative to ``corpus/``."""
    return (CORPUS / rel).read_text(encoding="utf-8")
