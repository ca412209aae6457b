"""The lexer contract: tokens, semicolon insertion, lines and syntax errors.

Semicolons follow the Go spec's "Lexical elements": a newline ends a
statement after an identifier, a literal, a closing bracket or one of the
keywords that end a statement, and so does the end of the input.
"""

import pytest

from flowcheck.gofront import GoSyntaxError, analyze_source
from flowcheck.gofront.lexer import Token, tokenize


def kinds(source):
    return [tok.kind for tok in tokenize(source)]


class TestSemicolons:
    @pytest.mark.parametrize(
        "source, kind",
        [("x", "ident"), ("1", "int"), ('"s"', "string"), ("`s`", "string"),
         ("'s'", "string"), (")", ")"), ("}", "}"), ("]", "]"),
         ("return", "return"), ("break", "break"), ("continue", "continue"),
         ("fallthrough", "fallthrough")],
    )
    def test_inserted_at_a_newline_after(self, source, kind):
        assert tokenize(source + "\ny") == [
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
        tokens = tokenize("x /* a\nb\n\nc */ y")
        assert tokens == [Token("ident", "x", 1), Token(";", ";", 1),
                          Token("ident", "y", 4), Token(";", ";", 4), Token("eof", "", 4)]

    def test_none_for_a_block_comment_on_one_line(self):
        assert kinds("x /* a */ y") == ["ident", "ident", ";", "eof"]

    def test_a_block_comment_after_a_brace_still_counts_its_lines(self):
        assert tokenize("{ /*\n*/ x")[1] == Token("ident", "x", 2)

    def test_a_line_comment_ends_at_the_newline(self):
        assert tokenize("x // y z\nw") == [
            Token("ident", "x", 1), Token(";", ";", 1), Token("ident", "w", 2),
            Token(";", ";", 2), Token("eof", "", 2),
        ]


class TestTokens:
    def test_keywords_and_identifiers(self):
        assert [(t.kind, t.value) for t in tokenize("go gox _a x1 func")[:-1]] == [
            ("go", "go"), ("ident", "gox"), ("ident", "_a"), ("ident", "x1"), ("func", "func"),
        ]

    def test_two_character_operators(self):
        operators = ["<-", ":=", "==", "!=", "<=", ">=", "&&", "||"]
        assert kinds(" ".join(operators)) == operators + ["eof"]

    def test_one_character_operators(self):
        assert kinds("( ) { } [ ] , ; . : < > = ! + - * / % & |")[:-1] == (
            "( ) { } [ ] , ; . : < > = ! + - * / % & |".split())

    @pytest.mark.parametrize(
        "literal",
        ['"a\\"b"', '"a\\\\"', '"tab\\t"', "`raw \\ \"`", "'x'", "'\"'", '""'],
    )
    def test_one_string_token(self, literal):
        assert tokenize(literal + " x")[0] == Token("string", literal, 1)

    @pytest.mark.parametrize("literal", ["1.5", "1.", "10.25"])
    def test_float(self, literal):
        assert tokenize(literal)[0] == Token("float", literal, 1)

    def test_int(self):
        assert tokenize("042")[0] == Token("int", "042", 1)


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
        assert tokenize(literal + "\nx")[:2] == [Token(kind, literal, 1), Token(";", ";", 1)]

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
        assert tokenize("\ufeffx") == tokenize("x")

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
        assert tokenize(literal + " x")[0] == Token("string", literal, 1)

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
        assert tokenize("`\\q`")[0] == Token("string", "`\\q`", 1)

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
