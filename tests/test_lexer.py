"""Unit tests for the C tokenizer."""

import pytest

from repro.cfront.lexer import (
    Lexer,
    TokenKind,
    parse_char_constant,
    parse_int_constant,
    parse_string_literal,
    tokenize,
)
from repro.cfront.source import LexError


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_identifiers(self):
        assert values("foo _bar baz123") == ["foo", "_bar", "baz123"]
        assert kinds("foo") == [TokenKind.IDENT]

    def test_keywords(self):
        tokens = tokenize("int while return")[:-1]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens)

    def test_keyword_prefix_is_identifier(self):
        assert kinds("integer whilenot") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_eof_is_last(self):
        assert tokenize("x")[-1].kind is TokenKind.EOF
        assert tokenize("")[-1].kind is TokenKind.EOF

    def test_punctuation_maximal_munch(self):
        assert values("a>>=b") == ["a", ">>=", "b"]
        assert values("a>>b") == ["a", ">>", "b"]
        assert values("a->b") == ["a", "->", "b"]
        assert values("a--b") == ["a", "--", "b"]
        assert values("a- -b") == ["a", "-", "-", "b"]
        assert values("...") == ["..."]

    def test_ellipsis_vs_dots(self):
        assert values("a.b") == ["a", ".", "b"]


class TestNumbers:
    def test_decimal(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT_CONST
        assert parse_int_constant(token.value) == 42

    def test_hex(self):
        assert parse_int_constant(tokenize("0xFF")[0].value) == 255
        assert parse_int_constant(tokenize("0x0")[0].value) == 0

    def test_octal(self):
        assert parse_int_constant(tokenize("0755")[0].value) == 0o755

    def test_suffixes(self):
        for text in ("42u", "42UL", "42ull", "42L"):
            token = tokenize(text)[0]
            assert token.kind is TokenKind.INT_CONST
            assert parse_int_constant(token.value) == 42

    def test_floats(self):
        for text in ("1.5", "1.", ".5", "1e3", "1.5e-3", "2.5f"):
            assert tokenize(text)[0].kind is TokenKind.FLOAT_CONST

    def test_int_then_member_not_float(self):
        assert kinds("a[1].x") == [
            TokenKind.IDENT,
            TokenKind.PUNCT,
            TokenKind.INT_CONST,
            TokenKind.PUNCT,
            TokenKind.PUNCT,
            TokenKind.IDENT,
        ]


class TestStringsAndChars:
    def test_string(self):
        token = tokenize('"hello"')[0]
        assert token.kind is TokenKind.STRING
        assert parse_string_literal(token.value) == "hello"

    def test_string_escapes(self):
        assert parse_string_literal('"a\\nb"') == "a\nb"
        assert parse_string_literal('"a\\tb"') == "a\tb"
        assert parse_string_literal('"\\x41"') == "A"
        assert parse_string_literal('"\\101"') == "A"
        assert parse_string_literal('"q\\"q"') == 'q"q'

    def test_only_octal_digits_form_octal_escapes(self):
        assert parse_string_literal('"\\8"') == "8"
        assert parse_string_literal('"\\18"') == "\x018"

    def test_char(self):
        assert parse_char_constant(tokenize("'a'")[0].value) == ord("a")
        assert parse_char_constant(tokenize("'\\n'")[0].value) == ord("\n")
        assert parse_char_constant(tokenize("'\\0'")[0].value) == 0

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')


class TestCommentsAndSpace:
    def test_line_comment(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x */ b") == ["a", "b"]
        assert values("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_line_continuation(self):
        assert values("ab\\\ncd") == ["ab", "cd"]


class TestLocations:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_preceded_by_space(self):
        tokens = tokenize("a b(c)")
        assert not tokens[0].preceded_by_space
        assert tokens[1].preceded_by_space
        assert not tokens[2].preceded_by_space  # '(' hugs 'b'


class TestPreprocessorMode:
    def test_newlines_emitted(self):
        tokens = Lexer("a\nb", emit_newlines=True).tokens()
        assert [t.kind for t in tokens] == [
            TokenKind.IDENT,
            TokenKind.NEWLINE,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_hash_at_line_start(self):
        tokens = Lexer("#define X 1", emit_newlines=True).tokens()
        assert tokens[0].kind is TokenKind.HASH

    def test_hash_mid_line_is_punct(self):
        tokens = Lexer("a # b", emit_newlines=True).tokens()
        assert tokens[1].kind is TokenKind.PUNCT


class TestNonAsciiClassification:
    """Names and numbers follow ``str.isalpha``/``isalnum``/``isdigit``,
    not the regex classes ``\\w`` and ``\\d`` (``²`` is a digit but not a
    decimal; ``½`` and ``Ⅻ`` are numeric but neither letter nor digit)."""

    @pytest.mark.parametrize("text, expected", [
        ("x² = 1", [("IDENT", "x²"), ("PUNCT", "="), ("INT_CONST", "1")]),
        ("ñame", [("IDENT", "ñame")]),
        ("a.ñ", [("IDENT", "a"), ("PUNCT", "."), ("IDENT", "ñ")]),
        ("²", [("INT_CONST", "²")]),
        ("1²", [("INT_CONST", "1²")]),
        (".²", [("FLOAT_CONST", ".²")]),
        ("1e²", [("FLOAT_CONST", "1e²")]),
        ("1e+²", [("FLOAT_CONST", "1e+²")]),
        ("0x1²", [("INT_CONST", "0x1"), ("INT_CONST", "²")]),
        ("٣.٣", [("FLOAT_CONST", "٣.٣")]),
    ])
    def test_tokens(self, text, expected):
        assert [(t.kind.name, t.value) for t in tokenize(text)[:-1]] == expected

    @pytest.mark.parametrize("char", ["½", "Ⅻ", " "])
    def test_numeric_non_digits_are_unexpected(self, char):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("int %s;" % char)


class TestDirectiveHashes:
    def test_paste_at_line_start_is_hash_then_punct(self):
        tokens = Lexer("##\n###", emit_newlines=True).tokens()
        assert [(t.kind.name, t.value) for t in tokens] == [
            ("HASH", "#"), ("PUNCT", "#"), ("NEWLINE", "\n"),
            ("HASH", "#"), ("PUNCT", "##"), ("EOF", ""),
        ]

    def test_comment_before_hash_keeps_line_start(self):
        tokens = Lexer("/* c\n */ # define X", emit_newlines=True).tokens()
        assert tokens[0].kind is TokenKind.HASH
        assert (tokens[0].location.line, tokens[0].location.column) == (2, 5)
