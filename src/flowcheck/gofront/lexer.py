"""Tokenizer for the supported Go subset, with automatic semicolon insertion."""

from __future__ import annotations

import re
from typing import NamedTuple


class GoSyntaxError(Exception):
    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


KEYWORDS = {
    "package", "import", "func", "go", "defer", "if", "else", "return",
    "var", "type", "struct", "chan", "for", "select", "switch", "case",
    "map", "interface", "range", "const", "break", "continue", "goto",
    "fallthrough", "default",
}

# tokens that allow a statement to end before a newline
_SEMI_AFTER = {"ident", "int", "string", ")", "}", "]", "return", "break",
               "continue", "fallthrough"}

# Strings, raw strings and runes stay on one line; a float is lexed only to
# be refused by the parser.  ``/`` must not take the start of an unterminated
# ``/*``, which would otherwise lex as ``/`` ``*``.
_TOKEN_RE = re.compile(
    r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+|//[^\n]*)
  | (?P<comment>/\*.*?\*/)
  | (?P<word>[^\W\d]\w*)
  | (?P<float>[0-9]+\.[0-9]*)
  | (?P<int>[0-9]+)
  | (?P<string>"(?:[^"\\\n]|\\[^\n])*"|`[^`\n]*`|'[^'\n]*')
  | (?P<op><-|:=|==|!=|<=|>=|&&|\|\||/(?!\*)|[(){}\[\],;.:<>=!+\-*%&|])
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | keyword or punctuation literal
    value: str
    line: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        ch = source[pos]
        # the word pattern also starts at a numeral such as '²', Go does not
        if m is None or m.lastgroup == "word" and not (ch.isalpha() or ch == "_"):
            if source.startswith("/*", pos):
                raise GoSyntaxError(line, "unterminated comment")
            if ch in "\"'`":
                raise GoSyntaxError(line, "unterminated string literal")
            raise GoSyntaxError(line, "stray character %r" % ch)
        pos = m.end()
        kind, value = m.lastgroup, m.group()
        if kind == "newline" or kind == "comment":
            breaks = value.count("\n")
            if breaks and tokens and tokens[-1].kind in _SEMI_AFTER:
                tokens.append(Token(";", ";", line))
            line += breaks
        elif kind != "skip":
            if kind == "word":
                kind = value if value in KEYWORDS else "ident"
            elif kind == "op":
                kind = value
            tokens.append(Token(kind, value, line))
    if tokens and tokens[-1].kind in _SEMI_AFTER:
        tokens.append(Token(";", ";", line))
    tokens.append(Token("eof", "", line))
    return tokens
