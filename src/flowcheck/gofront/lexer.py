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
_SEMI_AFTER = {"ident", "int", "float", "imaginary", "string", ")", "}", "]",
               "return", "break", "continue", "fallthrough"}

# Strings, raw strings and runes stay on one line; ``_check_quoted`` reads
# the escapes of a string and the one character of a rune.  A number takes
# every character Go's scanner would give it, so that ``0x10`` or ``7e2`` is
# one token; ``_number_kind`` names its kind.  ``/`` must not take the start
# of an unterminated ``/*``, which would otherwise lex as ``/`` ``*``.
_TOKEN_RE = re.compile(
    r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+|//[^\n]*)
  | (?P<comment>/\*.*?\*/)
  | (?P<word>[^\W\d]\w*)
  | (?P<number>(?:0[xX][0-9a-fA-F_]*(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?[0-9_]*)?
                |0[bBoO][0-9_]*
                |(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)(?:[eE][+-]?[0-9_]*)?
               )i?)
  | (?P<string>"(?:[^"\\\n]|\\[^\n])*"|`[^`\n]*`|'(?:[^'\\\n]|\\[^\n])*')
  | (?P<op><-|:=|==|!=|<=|>=|&&|\|\||/(?!\*)|[(){}\[\],;.:<>=!+\-*%&|])
    """,
    re.VERBOSE | re.DOTALL,
)


# The literal forms of the Go spec, with single ``_`` separators between
# digits.  Most files hold only plain decimal numbers, so ``re`` compiles this
# pattern the first time another form is met.
_NUMBER = (
    r"(?P<int>0[bB](?:_?[01])+|0[oO]?(?:_?[0-7])+|0[xX](?:_?[0-9a-fA-F])+|0|[1-9](?:_?[0-9])*)"
    r"|(?P<float>{d}\.(?:{d})?(?:[eE][+-]?{d})?|{d}[eE][+-]?{d}|\.{d}(?:[eE][+-]?{d})?"
    r"|0[xX](?:_?{h}(?:\.(?:{h})?)?|\.{h})[pP][+-]?{d})"
    r"|(?P<digits>{d})"
).format(d=r"[0-9](?:_?[0-9])*", h=r"[0-9a-fA-F](?:_?[0-9a-fA-F])*")


# One character of a literal in a quote: a plain character or one of Go's
# escapes, of which the escaped quote is the literal's own.  Like
# ``_NUMBER``, each is compiled the first time it is needed.
_CHARACTER = {
    quote: r"[^\\]|\\(?:[abfnrtv\\%s]|[0-7]{3}|x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8})"
    % quote
    for quote in "\"'"
}


def _check_quoted(text, line):
    """Refuse an interpreted string or rune with an escape Go does not
    know, or with a value past its range, and a rune that is not exactly
    one character."""
    quote, body = text[0], text[1:-1]
    if quote == '"' and "\\" not in body:
        return
    character = re.compile(_CHARACTER[quote])
    count, pos = 0, 0
    while pos < len(body):
        m = character.match(body, pos)
        if m is None:
            raise GoSyntaxError(line, "unknown escape sequence in %s" % text)
        escape = m.group()
        if escape[1:2].isdigit() and int(escape[1:], 8) > 255:
            raise GoSyntaxError(line, "octal escape value > 255 in %s" % text)
        if escape[1:2] in ("u", "U"):
            code = int(escape[2:], 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise GoSyntaxError(line, "escape is an invalid Unicode code point in %s" % text)
        count, pos = count + 1, m.end()
    if quote == "'" and count != 1:
        raise GoSyntaxError(line, "%s rune literal %s" % (
            "more than one character in" if count else "empty", text))


def plain_decimal(text) -> bool:
    """Whether a number is ``0`` or ``[1-9][0-9]*``, the one form the
    parser gives a value."""
    return text.isdigit() and (text[0] != "0" or text == "0")


def _number_kind(text, line) -> str:
    """``int``, ``float`` or ``imaginary``; a malformed number is an error."""
    if plain_decimal(text):
        return "int"
    imaginary = text.endswith("i")
    m = re.fullmatch(_NUMBER, text[:-1] if imaginary else text)
    if m is None or m.lastgroup == "digits" and not imaginary:
        raise GoSyntaxError(line, "invalid number literal %r" % text)
    return "imaginary" if imaginary else m.lastgroup


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "float" | "imaginary" | "string" | keyword or punctuation
    value: str
    line: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    # a byte order mark may open the file, as Go compilers allow
    pos = 1 if source.startswith("\ufeff") else 0
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
            elif kind == "number":
                kind = _number_kind(value, line)
            elif value[0] != "`":
                _check_quoted(value, line)
            tokens.append(Token(kind, value, line))
    if tokens and tokens[-1].kind in _SEMI_AFTER:
        tokens.append(Token(";", ";", line))
    tokens.append(Token("eof", "", line))
    return tokens
