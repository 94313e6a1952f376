"""The character-at-a-time C tokenizer, kept as a test oracle.

This is the lexer ``repro.cfront.lexer`` used before it moved to one
master regex per mode, copied verbatim, less the literal decoders, which
stay in ``lexer.py``.  ``tests/test_frontend_fuzz.py`` checks that both give
the same token streams -- kind, spelling, location, ``preceded_by_space``
and the NEWLINE/HASH marks -- or raise the same :class:`LexError`.
"""

import enum
from dataclasses import dataclass, field

from repro.cfront.source import LexError, Location


class TokenKind(enum.Enum):
    """Lexical categories."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT_CONST = "int"
    FLOAT_CONST = "float"
    CHAR_CONST = "char"
    STRING = "string"
    PUNCT = "punct"
    NEWLINE = "newline"  # only emitted in preprocessor mode
    HASH = "hash"  # '#' at the start of a directive (preprocessor mode)
    EOF = "eof"


KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool
    """.split()
)

# Punctuators ordered longest-first so maximal munch is a simple scan.
PUNCTUATORS = (
    "...",
    "<<=",
    ">>=",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "^=",
    "|=",
    "##",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    ".",
    "&",
    "*",
    "+",
    "-",
    "~",
    "!",
    "/",
    "%",
    "<",
    ">",
    "^",
    "|",
    "?",
    ":",
    ";",
    "=",
    ",",
    "#",
    "$",  # used by metal callout syntax ${...} and $end_of_path$
    "@",
)

@dataclass
class Token:
    """A single lexical token.

    ``value`` is the exact source spelling; semantic values (e.g. the integer
    a constant denotes) are computed lazily by the parser.
    """

    kind: TokenKind
    value: str
    location: Location = field(default_factory=Location)
    # True when whitespace preceded the token; the preprocessor needs this to
    # stringize correctly and to tell function-like macro invocations apart.
    preceded_by_space: bool = False

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind.name, self.value)

    def is_punct(self, *values):
        return self.kind is TokenKind.PUNCT and self.value in values

    def is_keyword(self, *values):
        return self.kind is TokenKind.KEYWORD and self.value in values

    def is_ident(self, *values):
        if self.kind is not TokenKind.IDENT:
            return False
        return not values or self.value in values


class Lexer:
    """Converts C source text into a list of :class:`Token`.

    In preprocessor mode (``emit_newlines=True``) the lexer also emits
    NEWLINE tokens and marks a ``#`` that begins a directive line as HASH, so
    the preprocessor can recover line structure.
    """

    def __init__(self, text, filename="<string>", emit_newlines=False):
        self.text = text
        self.filename = filename
        self.emit_newlines = emit_newlines
        self.pos = 0
        self.line = 1
        self.column = 1
        self._at_line_start = True

    def location(self):
        return Location(self.filename, self.line, self.column)

    def tokens(self):
        """Tokenize the whole input, ending with a single EOF token."""
        out = []
        while True:
            token = self.next_token()
            out.append(token)
            if token.kind is TokenKind.EOF:
                return out

    # -- character helpers -------------------------------------------------

    def _peek(self, offset=0):
        index = self.pos + offset
        if index < len(self.text):
            return self.text[index]
        return ""

    def _advance(self, count=1):
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            char = self.text[self.pos]
            self.pos += 1
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1

    def _skip_whitespace_and_comments(self):
        """Skip spaces and comments; return (saw_space, saw_newline)."""
        saw_space = False
        saw_newline = False
        while self.pos < len(self.text):
            char = self._peek()
            if char == "\\" and self._peek(1) == "\n":
                # Line continuation: splice.
                self._advance(2)
                saw_space = True
            elif char == "\n":
                if self.emit_newlines:
                    return saw_space, True
                saw_newline = True
                saw_space = True
                self._advance()
            elif char in " \t\r\f\v":
                saw_space = True
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
                saw_space = True
            elif char == "/" and self._peek(1) == "*":
                start = self.location()
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start)
                saw_space = True
            else:
                break
        return saw_space, saw_newline

    # -- token scanners ----------------------------------------------------

    def next_token(self):
        saw_space, _ = self._skip_whitespace_and_comments()
        location = self.location()

        if self.emit_newlines and self._peek() == "\n":
            self._advance()
            self._at_line_start = True
            return Token(TokenKind.NEWLINE, "\n", location, saw_space)

        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", location, saw_space)

        char = self._peek()
        at_line_start = self._at_line_start
        self._at_line_start = False

        if char.isalpha() or char == "_":
            return self._lex_identifier(location, saw_space)
        if char.isdigit() or (char == "." and self._peek(1).isdigit()):
            return self._lex_number(location, saw_space)
        if char == '"':
            return self._lex_string(location, saw_space)
        if char == "'":
            return self._lex_char(location, saw_space)
        if char == "#" and at_line_start and self.emit_newlines:
            self._advance()
            return Token(TokenKind.HASH, "#", location, saw_space)
        return self._lex_punct(location, saw_space)

    def _lex_identifier(self, location, saw_space):
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        name = self.text[start : self.pos]
        kind = TokenKind.KEYWORD if name in KEYWORDS else TokenKind.IDENT
        return Token(kind, name, location, saw_space)

    def _lex_number(self, location, saw_space):
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == ".":
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() and self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) and self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() and self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        # Suffixes: integer (u/l combinations) or float (f/l).
        # (note: _peek() returns "" at EOF, and "" is "in" any string, so
        # every suffix check must also require a nonempty peek)
        if is_float:
            while self._peek() and self._peek() in "fFlL":
                self._advance()
        else:
            while self._peek() and self._peek() in "uUlL":
                self._advance()
        text = self.text[start : self.pos]
        kind = TokenKind.FLOAT_CONST if is_float else TokenKind.INT_CONST
        return Token(kind, text, location, saw_space)

    def _lex_string(self, location, saw_space):
        start = self.pos
        self._advance()  # opening quote
        while True:
            if self.pos >= len(self.text) or self._peek() == "\n":
                raise LexError("unterminated string literal", location)
            char = self._peek()
            if char == "\\":
                self._advance(2)
            elif char == '"':
                self._advance()
                break
            else:
                self._advance()
        return Token(TokenKind.STRING, self.text[start : self.pos], location, saw_space)

    def _lex_char(self, location, saw_space):
        start = self.pos
        self._advance()  # opening quote
        while True:
            if self.pos >= len(self.text) or self._peek() == "\n":
                raise LexError("unterminated character constant", location)
            char = self._peek()
            if char == "\\":
                self._advance(2)
            elif char == "'":
                self._advance()
                break
            else:
                self._advance()
        return Token(TokenKind.CHAR_CONST, self.text[start : self.pos], location, saw_space)

    def _lex_punct(self, location, saw_space):
        for punct in PUNCTUATORS:
            if self.text.startswith(punct, self.pos):
                self._advance(len(punct))
                return Token(TokenKind.PUNCT, punct, location, saw_space)
        raise LexError("unexpected character %r" % self._peek(), location)
