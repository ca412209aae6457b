"""Tokenizer for the supported Go subset, with automatic semicolon insertion.

One ``findall`` of ``_PIECE`` cuts the source into pieces, blanks dropped,
``map`` over a table names the kind of most, and one loop names the rest by
the first character and fills ``Tokens``, three lists with no object per
token.  Every character is in a piece, so a stray one is refused, not
skipped.  An unterminated quoted literal or ``/*`` is one piece to the end
of its line or of the input, so no text is searched twice.  The pattern
must compile on Python 3.10, which has no possessive or atomic forms, so
its greedy blank prefix would give back a trailing blank as a piece: the
search ends before the trailing blanks instead.
"""

from __future__ import annotations

import re


class GoSyntaxError(Exception):
    def __init__(self, line, message):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


KEYWORDS = set("package import func go defer if else return var type struct chan for select switch "
               "case map interface range const break continue goto fallthrough default".split())

# tokens that allow a statement to end before a newline
_SEMI_AFTER = {"ident", "int", "float", "imaginary", "string", ")", "}", "]", "++", "--",
               "return", "break", "continue", "fallthrough"}

# A word, a newline, a number (all Go's scanner would take, so ``0x10`` is
# one piece), an operator or comment, a quoted literal, or one character.
_PIECE = re.compile(
    r"""[ \t\r]*(
        [^\W\d]\w*
      | \n
      | (?:0[xX][0-9a-fA-F_]*(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?[0-9_]*)?
          |0[bBoO][0-9_]*
          |(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)(?:[eE][+-]?[0-9_]*)?
        )i?
      | <-|:=|==|!=|<=|>=|&&|\|\||\+\+|--|<<|>>|&\^|//[^\n]*|/\*.*?(?:\*/|\Z)
      | [(){}\[\],;.:<>=!+\-*/%&|^]
      | "(?:[^"\\\n]|\\[^\n])*"? | `[^`\n]*`? | '(?:[^'\\\n]|\\[^\n])*'?
      | .
    )""",
    re.VERBOSE | re.DOTALL,
)

# the pieces that name their own kind, and the newline
_OPERATORS = "<- := == != <= >= && || ++ -- << >> &^ ( ) { } [ ] , ; . : < > = ! + - * / % & | ^".split()
_KINDS = {k: k for k in [*KEYWORDS, *_OPERATORS]}
_KINDS["\n"] = "newline"


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
    """Refuse a quoted piece that its closing quote does not end (the last
    quote of an interpreted string or rune may be an escaped one), an
    interpreted string or rune with an escape Go does not know, or with a
    value past its range, and a rune that is not exactly one character."""
    quote, body = text[0], text[1:-1]
    escaped = quote != "`" and (len(body) - len(body.rstrip("\\"))) % 2
    if len(text) < 2 or text[-1] != quote or escaped:
        raise GoSyntaxError(line, "unterminated string literal")
    if quote == "`" or quote == '"' and "\\" not in body:
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


class Tokens:
    """The tokens of a source as three parallel lists, indexed by position:
    each one's kind ("ident", "int", "float", "imaginary", "string", a
    keyword or an operator, ``;`` or ``eof``), its text and its line."""

    def __init__(self, kinds, values, lines):
        self.kinds, self.values, self.lines = kinds, values, lines

    def __len__(self):
        return len(self.kinds)


def tokenize(source: str) -> Tokens:
    kinds, values, lines = [], [], []
    kind_of, value_of, line_of = kinds.append, values.append, lines.append
    line, last = 1, None  # last: the kind of the last token
    # a byte order mark may open the file, as Go compilers allow
    start = 1 if source.startswith("\ufeff") else 0
    pieces = _PIECE.findall(source, start, len(source.rstrip(" \t\r")))
    pieces.append("\n")  # the end of the input ends a statement as a newline does
    for piece, kind in zip(pieces, map(_KINDS.get, pieces)):
        if kind is None:
            first = piece[0]
            # a word may also start at a numeral such as '²', Go's may not
            if first.isalpha() or first == "_":
                kind = "ident"
            elif first in "0123456789.":
                kind = _number_kind(piece, line)
            elif first in "\"'`":
                _check_quoted(piece, line)
                kind = "string"
            elif first != "/":
                raise GoSyntaxError(line, "stray character %r" % first)
            elif piece[1] == "/" or len(piece) > 3 and piece.endswith("*/"):
                kind = "comment"
            else:
                raise GoSyntaxError(line, "unterminated comment")
        if kind == "newline" or kind == "comment":
            breaks = piece.count("\n")
            line += breaks
            if not breaks or last not in _SEMI_AFTER:
                continue
            kind = piece = ";"
            line_of(line - breaks)
        else:
            line_of(line)
        kind_of(kind)
        value_of(piece)
        last = kind
    kind_of("eof")
    value_of("")
    line_of(line - 1)  # the added newline ended no line of the source
    return Tokens(kinds, values, lines)
