"""The lexer contract: tokens, semicolon insertion, lines and syntax errors.

Semicolons follow the Go spec's "Lexical elements": a newline ends a
statement after an identifier, a literal, a closing bracket or one of the
keywords that end a statement, and so does the end of the input.
"""

import random
import re
from typing import NamedTuple

import pytest

from flowcheck.gofront import GoSyntaxError, analyze_source
from flowcheck.gofront.lexer import (
    _PIECE, _SEMI_AFTER, KEYWORDS, Tokens, _check_quoted, _number_kind, tokenize,
)
from paths import corpus_files


class Token(NamedTuple):
    kind: str
    value: str
    line: int


def as_list(lexed: Tokens) -> list:
    """The tokens ``tokenize`` returned, its three lists zipped into ``Token``s."""
    return list(map(Token, lexed.kinds, lexed.values, lexed.lines))


def token_list(source):
    return as_list(tokenize(source))


def kinds(source):
    return tokenize(source).kinds


class TestSemicolons:
    @pytest.mark.parametrize(
        "source, kind",
        [("x", "ident"), ("1", "int"), ('"s"', "string"), ("`s`", "string"),
         ("'s'", "string"), (")", ")"), ("}", "}"), ("]", "]"),
         ("return", "return"), ("break", "break"), ("continue", "continue"),
         ("fallthrough", "fallthrough"), ("++", "++"), ("--", "--")],
    )
    def test_inserted_at_a_newline_after(self, source, kind):
        assert token_list(source + "\ny") == [
            Token(kind, source, 1), Token(";", ";", 1), Token("ident", "y", 2),
            Token(";", ";", 2), Token("eof", "", 2),
        ]

    @pytest.mark.parametrize("source", ["{", ",", "+", "<-", ":=", "&&", "(", "go", "."])
    def test_not_inserted_after(self, source):
        assert kinds(source + "\n") == [source, "eof"]

    def test_inserted_at_the_end_of_input(self):
        assert kinds("x") == ["ident", ";", "eof"]
        assert kinds("") == ["eof"]

    def test_one_for_a_block_comment_that_spans_lines(self):
        assert token_list("x /* a\nb\n\nc */ y") == [
            Token("ident", "x", 1), Token(";", ";", 1), Token("ident", "y", 4),
            Token(";", ";", 4), Token("eof", "", 4),
        ]

    def test_none_for_a_block_comment_on_one_line(self):
        assert kinds("x /* a */ y") == ["ident", "ident", ";", "eof"]

    def test_a_block_comment_after_a_brace_still_counts_its_lines(self):
        assert token_list("{ /*\n*/ x")[1] == Token("ident", "x", 2)

    def test_a_line_comment_ends_at_the_newline(self):
        assert token_list("x // y z\nw") == [
            Token("ident", "x", 1), Token(";", ";", 1), Token("ident", "w", 2),
            Token(";", ";", 2), Token("eof", "", 2),
        ]


class TestTokens:
    def test_keywords_and_identifiers(self):
        assert [(t.kind, t.value) for t in token_list("go gox _a x1 func")[:-1]] == [
            ("go", "go"), ("ident", "gox"), ("ident", "_a"), ("ident", "x1"), ("func", "func"),
        ]

    def test_two_character_operators(self):
        operators = ["<-", ":=", "++", "--", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "&^"]
        assert kinds(" ".join(operators)) == operators + ["eof"]

    def test_one_character_operators(self):
        assert kinds("( ) { } [ ] , ; . : < > = ! + - * / % & | ^")[:-1] == (
            "( ) { } [ ] , ; . : < > = ! + - * / % & | ^".split())

    @pytest.mark.parametrize(
        "literal",
        ['"a\\"b"', '"a\\\\"', '"tab\\t"', "`raw \\ \"`", "'x'", "'\"'", '""'],
    )
    def test_one_string_token(self, literal):
        assert token_list(literal + " x")[0] == Token("string", literal, 1)

    @pytest.mark.parametrize("literal", ["1.5", "1.", "10.25"])
    def test_float(self, literal):
        assert token_list(literal)[0] == Token("float", literal, 1)

    def test_int(self):
        assert token_list("042")[0] == Token("int", "042", 1)


class TestNumbers:
    """A number is one token in the shape of a Go literal, whatever its
    base; the parser refuses all but plain decimal integers."""

    @pytest.mark.parametrize(
        "literal, kind",
        [("0", "int"), ("42", "int"), ("0x10", "int"), ("0X_1F", "int"), ("0b101", "int"),
         ("0o17", "int"), ("010", "int"), ("1_000", "int"), ("7e2", "float"),
         ("1e+3", "float"), ("09.5", "float"), (".5", "float"), ("0x1p-2", "float"),
         ("0x.8p1", "float"), ("1i", "imaginary"), ("2.5i", "imaginary"),
         ("089i", "imaginary")],
    )
    def test_one_token(self, literal, kind):
        assert token_list(literal + "\nx")[:2] == [Token(kind, literal, 1), Token(";", ";", 1)]

    def test_a_hex_literal_ends_before_a_sign(self):
        # in hexadecimal, e is a digit and not an exponent
        assert kinds("0xe+1") == ["int", "+", "int", ";", "eof"]

    @pytest.mark.parametrize("literal", ["0x", "1_", "1__0", "09", "0b102", "0o8", "0x1.8", "1e"])
    def test_a_malformed_literal_is_a_syntax_error(self, literal):
        with pytest.raises(GoSyntaxError) as raised:
            tokenize("x := " + literal)
        assert raised.value.message == "invalid number literal %r" % literal


class TestByteOrderMark:
    def test_one_leading_mark_is_dropped(self):
        assert token_list("\ufeffx") == token_list("x")

    @pytest.mark.parametrize("source", ["\ufeff\ufeffx", "x\ufeff", "x\n\ufeff"])
    def test_any_other_mark_is_a_stray_character(self, source):
        with pytest.raises(GoSyntaxError) as raised:
            tokenize(source)
        assert raised.value.message == "stray character %r" % "\ufeff"


class TestErrors:
    @pytest.mark.parametrize(
        "source, line, message",
        [
            ("x\n/* open", 2, "unterminated comment"),
            ("/*/", 1, "unterminated comment"),
            ('x := "abc', 1, "unterminated string literal"),
            ('"ab\ncd"', 1, "unterminated string literal"),
            ('"ab\\\ncd"', 1, "unterminated string literal"),
            ("`raw\nx`", 1, "unterminated string literal"),
            ("'r\n'", 1, "unterminated string literal"),
            ('s := "a\\', 1, "unterminated string literal"),
            ('s := "a\\"', 1, "unterminated string literal"),
            ("x\n\ty @ z", 2, "stray character '@'"),
            ("x := 2²", 1, "stray character '²'"),
            ("x := ٣", 1, "stray character '٣'"),
            ("²x", 1, "stray character '²'"),
        ],
    )
    def test_message_and_line(self, source, line, message):
        with pytest.raises(GoSyntaxError) as raised:
            tokenize(source)
        assert (raised.value.line, raised.value.message) == (line, message)

    @pytest.mark.parametrize("statement", ['s := "a\\', "x := 2²", "x := ٣"])
    def test_the_analysis_refuses_rather_than_crashes(self, statement):
        analysis = analyze_source("package main\n\nfunc main() {\n\t%s" % statement)
        assert analysis.worst() == "Unsupported"
        assert analysis.cases[0].verdict.reason.startswith("syntax error: line 4: ")


class TestRunesAndEscapes:
    """A rune is exactly one character or one Go escape, and an interpreted
    string escapes by the same rule, with ``\\"`` in place of ``\\'``."""

    @pytest.mark.parametrize(
        "literal",
        ["'\\''", "'\\\\'", "'\\a'", "'\\b'", "'\\f'", "'\\n'", "'\\r'", "'\\t'", "'\\v'",
         "'\\101'", "'\\377'", "'\\x41'", "'\\u00e9'", "'\\U0001F600'", "'é'", "'\"'",
         '"\\a\\b\\f\\n\\r\\t\\v\\\\\\""', '"\\000\\x7f\\u2318\\U0010FFFF"', '"\'"'],
    )
    def test_a_valid_literal_is_one_string_token(self, literal):
        assert token_list(literal + " x")[0] == Token("string", literal, 1)

    @pytest.mark.parametrize(
        "literal, message",
        [("'ab'", "more than one character in rune literal 'ab'"),
         ("'\\n\\n'", "more than one character in rune literal '\\n\\n'"),
         ("''", "empty rune literal ''"),
         ("'\\q'", "unknown escape sequence in '\\q'"),
         ('"\\q"', 'unknown escape sequence in "\\q"'),
         ("'\\\"'", "unknown escape sequence in '\\\"'"),
         ('"\\\'"', 'unknown escape sequence in "\\\'"'),
         ("'\\x4'", "unknown escape sequence in '\\x4'"),
         ('"\\u12"', 'unknown escape sequence in "\\u12"'),
         ('"\\12"', 'unknown escape sequence in "\\12"'),
         ("'\\400'", "octal escape value > 255 in '\\400'"),
         ('"\\ud800"', 'escape is an invalid Unicode code point in "\\ud800"'),
         ('"\\U00110000"', 'escape is an invalid Unicode code point in "\\U00110000"')],
    )
    def test_an_invalid_literal_is_a_syntax_error(self, literal, message):
        with pytest.raises(GoSyntaxError) as raised:
            tokenize("x\nr := " + literal)
        assert (raised.value.line, raised.value.message) == (2, message)

    def test_a_raw_string_has_no_escapes(self):
        assert token_list("`\\q`")[0] == Token("string", "`\\q`", 1)

    @pytest.mark.parametrize("literal", ["'ab'", "''", '"\\q"', "'\\q'"])
    def test_the_analysis_refuses_the_program(self, literal):
        analysis = analyze_source(
            'package main\n\nimport "fmt"\n\nfunc main() {\n\tr := %s\n\tfmt.Println(r)\n}\n'
            % literal
        )
        assert analysis.worst() == "Unsupported"
        assert analysis.cases[0].verdict.reason.startswith("syntax error: line 6: ")

    def test_an_escaped_quote_rune_is_analysed(self):
        analysis = analyze_source(
            "package main\n\nimport \"fmt\"\n\nfunc main() {\n\tfmt.Println('\\'')\n}\n"
        )
        assert analysis.worst() == "NoDeadlock"


# The tokenizer that matched one token, or one run of blanks, at a time,
# kept as the reference the one-pass ``tokenize`` must agree with.
_REFERENCE_RE = re.compile(
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
  | (?P<op><-|:=|==|!=|<=|>=|&&|\|\||\+\+|--|<<|>>|&\^|/(?!\*)|[(){}\[\],;.:<>=!+\-*%&|^])
    """,
    re.VERBOSE | re.DOTALL,
)


def reference_tokenize(source):
    tokens = []
    line = 1
    pos = 1 if source.startswith("\ufeff") else 0
    while pos < len(source):
        m = _REFERENCE_RE.match(source, pos)
        ch = source[pos]
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


def outcome(lex, source):
    """The tokens of ``source`` and their count, ``len`` of what ``lex``
    returns, or the line and message it is refused with."""
    try:
        lexed = lex(source)
    except GoSyntaxError as e:
        return (e.line, e.message)
    return (as_list(lexed) if isinstance(lexed, Tokens) else lexed), len(lexed)


# characters that start, end or break a piece, or that no piece takes
_MUTANT_CHARACTERS = list("\n\r\t /*\"'`\\_x9.e+-<:=@") + ["²", "٣", "\ufeff", "é"]


def mutants(sources, count, seed):
    """``count`` copies of the sources, each with one to four characters
    inserted, deleted or replaced."""
    rng = random.Random(seed)
    for _ in range(count):
        text = list(rng.choice(sources))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(text) + 1)
            if rng.random() < 0.4 or i == len(text):
                text.insert(i, rng.choice(_MUTANT_CHARACTERS))
            elif rng.random() < 0.5:
                del text[i]
            else:
                text[i] = rng.choice(_MUTANT_CHARACTERS)
        yield "".join(text)


class TestAgreesWithTheReference:
    """The one-pass lexer gives the tokens, or the error, that matching one
    token at a time gives."""

    def test_on_the_corpus(self):
        for path in corpus_files():
            source = path.read_text(encoding="utf-8")
            assert outcome(tokenize, source) == outcome(reference_tokenize, source), path.name

    def test_on_every_line_prefix(self):
        for path in corpus_files():
            lines = path.read_text(encoding="utf-8").split("\n")
            for end in range(len(lines)):
                for tail in ("", "\n", " \r\t"):
                    source = "\n".join(lines[:end]) + tail
                    assert outcome(tokenize, source) == outcome(reference_tokenize, source)

    def test_on_seeded_mutants(self):
        sources = [path.read_text(encoding="utf-8") for path in corpus_files()]
        for source in mutants(sources, 2000, seed=22):
            assert outcome(tokenize, source) == outcome(reference_tokenize, source), source


class TestPieceEdges:
    """Inputs on which a naive one-pass lexer goes wrong."""

    @pytest.mark.parametrize("source", ["x\r", "x \r", "x  ", "x\t", "x \r\t ", "x // c\r"])
    def test_trailing_blanks_are_no_piece(self, source):
        assert token_list(source) == token_list("x")
        assert token_list(source + "\n \r") == token_list("x\n")

    @pytest.mark.parametrize("source", ["x // c", "x //", "x // c \r"])
    def test_a_line_comment_may_end_the_input(self, source):
        assert kinds(source) == ["ident", ";", "eof"]

    @pytest.mark.parametrize("source", ["/* open text", "x /* a */ y /* b", "/*/ x"])
    def test_an_unterminated_block_comment_followed_by_text(self, source):
        with pytest.raises(GoSyntaxError) as raised:
            tokenize(source)
        assert raised.value.message == "unterminated comment"

    @pytest.mark.parametrize("source", ["²", "²x", "x ²1", "²_"])
    def test_a_word_from_a_numeral_is_a_stray_character(self, source):
        with pytest.raises(GoSyntaxError) as raised:
            tokenize(source)
        assert raised.value.message == "stray character '²'"

    @pytest.mark.parametrize("source", ["\ufeffx  ", "\ufeff", "\ufeff  \r", "\ufeff// c"])
    def test_a_byte_order_mark_then_blanks(self, source):
        assert token_list(source) == token_list(source[1:])

    @pytest.mark.parametrize("source, pieces", [
        ("/* a /* b", ["/* a /* b"]),
        ('"a\\" "b\nc', ['"a\\" "', "b", "\n", "c"]),
        ('x := "a\\"\ny', ["x", ":=", '"a\\"', "\n", "y"]),
        ("'ab\n", ["'ab", "\n"]),
    ])
    def test_an_unterminated_literal_is_one_piece(self, source, pieces):
        # so no text after it is searched again, however long the input
        assert _PIECE.findall(source) == pieces
