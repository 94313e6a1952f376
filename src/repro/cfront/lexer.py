"""A C tokenizer.

Covers the token set of C89 plus the C99 additions the parser understands
(``//`` comments, ``inline``, ``restrict``, ``_Bool``).  The lexer is shared
by three clients: the preprocessor (which works on raw token lines), the
parser, and the metal pattern compiler (which extends the identifier space
with hole variables).
"""

import enum
import re
import sys
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


# The kinds as module globals, for the hot paths: up to Python 3.11 every
# ``TokenKind.X`` goes through the slow attribute hook that
# ``EnumType.__getattr__`` installs, about ten times a global's cost.
IDENT, KEYWORD, PUNCT = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
INT_CONST, FLOAT_CONST = TokenKind.INT_CONST, TokenKind.FLOAT_CONST
CHAR_CONST, STRING = TokenKind.CHAR_CONST, TokenKind.STRING
NEWLINE, HASH, EOF = TokenKind.NEWLINE, TokenKind.HASH, TokenKind.EOF


KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool
    """.split()
)

# Punctuators ordered longest-first, so the first that matches is the
# maximal munch.  ``$`` and ``@`` belong to metal: callouts ``${...}`` and
# ``$end_of_path$``.
PUNCTUATORS = tuple(
    """
    ... <<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &= ^= |= ##
    [ ] ( ) { } . & * + - ~ ! / % < > ^ | ? : ; = , # $ @
    """.split()
)

_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}


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
        return self.kind is PUNCT and self.value in values

    def is_keyword(self, *values):
        return self.kind is KEYWORD and self.value in values

    def is_ident(self, *values):
        if self.kind is not IDENT:
            return False
        return not values or self.value in values


def _master(newline_is_token):
    """The token regex of one lexer mode.

    Group 1 is the whitespace and comments before the token; exactly one
    named group then matches the token.  ``slow`` takes every token that
    starts with (or is a ``.`` before) a non-ASCII character, because
    identifier starts and digits are classified by ``str.isalpha`` and
    ``str.isdigit``, which no regex class matches.  ``unterminated`` and
    ``unexpected`` never form tokens: they become :class:`LexError`.
    """
    space = r"[ \t\r\f\v]" if newline_is_token else r"[ \t\r\f\v\n]"
    groups = [
        ("ident", r"[A-Za-z_]\w*"),
        ("float", r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFlL]*"
                  r"|[0-9]+[eE][+-]?[0-9]+[fFlL]*"),
        ("int", r"0[xX][0-9a-fA-F]*[uUlL]*|[0-9]+[uUlL]*"),
        ("string", r'"(?:[^"\\\n]|\\[\s\S])*"'),
        ("char", r"'(?:[^'\\\n]|\\[\s\S])*'"),
        ("newline", r"\n" if newline_is_token else None),
        ("slow", r"\.?[^\x00-\x7f]"),
        ("unterminated", r"""/\*|["']"""),
        ("punct", "|".join(re.escape(p) for p in PUNCTUATORS)),
        ("eof", r"\Z"),
        ("unexpected", r"[\s\S]"),
    ]
    return re.compile(
        r"((?:%s|\\\n|//[^\n]*|/\*[\s\S]*?\*/)*)(?:%s)" % (space, "|".join(
            "(?P<%s>%s)" % (name, pattern)
            for name, pattern in groups if pattern is not None
        ))
    ).match


_C_TOKEN = _master(newline_is_token=False)
_PP_TOKEN = _master(newline_is_token=True)
_WORD = re.compile(r"\w*").match
_SUFFIX = {True: re.compile("[fFlL]*").match, False: re.compile("[uUlL]*").match}
_HEX_DIGITS = re.compile("[0-9a-fA-F]*").match
_UNTERMINATED = {
    '"': "unterminated string literal",
    "'": "unterminated character constant",
    "/": "unterminated block comment",
}
_KINDS = {
    "float": FLOAT_CONST,
    "int": INT_CONST,
    "string": STRING,
    "char": CHAR_CONST,
}
# One string object per spelling, as a scan over PUNCTUATORS produced:
# pickled AST frames memoize an operator seen twice.
_PUNCT_SPELLINGS = {p: p for p in PUNCTUATORS}
# Locations are built the way the frozen dataclass's __init__ builds
# them, object.__setattr__ per field, minus that Python-level call.
_new = object.__new__
_set = object.__setattr__


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

    def tokens(self):
        """Tokenize the whole input, ending with a single EOF token."""
        text = self.text
        filename = self.filename
        emit_newlines = self.emit_newlines
        match = _PP_TOKEN if emit_newlines else _C_TOKEN
        out = []
        append = out.append
        pos = line_start = 0
        line = 1
        # Lines are counted lazily: only a token that starts past the
        # next newline pays for counting the newlines it skipped.
        next_newline = text.find("\n")
        if next_newline < 0:
            next_newline = len(text)
        at_line_start = True
        while True:
            found = match(text, pos)
            start = found.end(1)
            if start > next_newline:
                line += text.count("\n", next_newline, start)
                line_start = text.rfind("\n", 0, start) + 1
                next_newline = text.find("\n", start)
                if next_newline < 0:
                    next_newline = len(text)
            location = _new(Location)
            _set(location, "filename", filename)
            _set(location, "line", line)
            _set(location, "column", start - line_start + 1)
            space = start != pos
            group = found.lastgroup
            pos = found.end()
            if group == "ident":
                value = found.group(group)
                kind = KEYWORD if value in KEYWORDS else IDENT
            elif group == "punct":
                value = _PUNCT_SPELLINGS[found.group(group)]
                kind = PUNCT
                if at_line_start and emit_newlines and value[0] == "#":
                    kind, value, pos = HASH, "#", start + 1
            elif group == "newline":
                append(Token(NEWLINE, "\n", location, space))
                at_line_start = True
                continue
            elif group == "eof":
                append(Token(EOF, "", location, space))
                return out
            elif group == "slow":
                kind, pos = _slow_token(text, start, location)
                value = text[start:pos]
            elif group in _KINDS:
                kind = _KINDS[group]
                if group in ("int", "float") and not text[pos : pos + 3].isascii():
                    # A non-ASCII digit may extend the number.
                    kind, pos = _scan_number(text, start)
                value = text[start:pos]
            elif group == "unterminated":
                raise LexError(_UNTERMINATED[text[start]], location)
            else:
                raise LexError("unexpected character %r" % text[start], location)
            at_line_start = False
            append(Token(kind, value, location, space))


def _slow_token(text, start, location):
    """``(kind, end)`` of a token at a non-ASCII character, or of a ``.``
    before one."""
    char = text[start]
    if char.isalpha():
        return IDENT, _WORD(text, start + 1).end()
    if char.isdigit() or (char == "." and text[start + 1].isdigit()):
        return _scan_number(text, start)
    if char == ".":
        return PUNCT, start + 1
    raise LexError("unexpected character %r" % char, location)


def _scan_number(text, pos):
    """``(kind, end)`` of the number at ``pos``, with digits classified by
    ``str.isdigit`` (which the master regex's ``[0-9]`` is only for ASCII)."""
    def at(index):
        return text[index : index + 1]

    is_float = False
    if at(pos) == "0" and at(pos + 1) in ("x", "X"):
        end = _HEX_DIGITS(text, pos + 2).end()
    else:
        end = pos
        while at(end).isdigit():
            end += 1
        if at(end) == ".":
            is_float = True
            end += 1
            while at(end).isdigit():
                end += 1
        if at(end) in ("e", "E") and (
            at(end + 1).isdigit()
            or (at(end + 1) in ("+", "-") and at(end + 2).isdigit())
        ):
            is_float = True
            end += 2  # the exponent mark and its sign or first digit
            while at(end).isdigit():
                end += 1
    end = _SUFFIX[is_float](text, end).end()
    return (FLOAT_CONST if is_float else INT_CONST), end


def token_text(tokens):
    """The text that content hashes of a token run digest: each token's
    kind, spelling, line and column, with its file marked once per run
    of tokens from it.

    Each token costs one f-string: its kind's name comes from the enum
    member's ``_name_`` attribute, since ``TokenKind.name`` is a
    property call and a dict keyed by the kind calls ``Enum.__hash__``.
    """
    parts = []
    append = parts.append
    current = None
    for token in tokens:
        location = token.location
        if location.filename != current:
            current = location.filename
            append("\x1c%s\x1e" % current)
        append(f"{token.kind._name_}\x1f{token.value}\x1f{location.line}"
               f"\x1f{location.column}\x1e")
    return "".join(parts)


def tokenize(text, filename="<string>"):
    """Tokenize ``text`` (without preprocessing); returns tokens incl. EOF."""
    return Lexer(text, filename).tokens()


def parse_string_literal(spelling, location=None):
    """Decode the spelling of a C string literal into its value; raises
    :class:`LexError` at ``location`` for an out-of-range escape."""
    assert spelling.startswith('"') and spelling.endswith('"')
    return _decode_escapes(spelling[1:-1], location)


def parse_char_constant(spelling, location=None):
    """Decode a character constant spelling into its integer value;
    raises :class:`LexError` at ``location`` for an empty one."""
    assert spelling.startswith("'") and spelling.endswith("'")
    body = _decode_escapes(spelling[1:-1], location)
    if not body:
        raise LexError("empty character constant", location)
    return ord(body[0])


def _decode_escapes(body, location):
    out = []
    index = 0
    while index < len(body):
        char = body[index]
        if char != "\\":
            out.append(char)
            index += 1
            continue
        index += 1
        escape = body[index] if index < len(body) else ""
        if escape == "x":
            index += 1
            start = index
            while index < len(body) and body[index] in "0123456789abcdefABCDEF":
                index += 1
            code = int(body[start:index] or "0", 16)
            if code > sys.maxunicode:
                raise LexError(
                    "hex escape \\x%s out of range" % body[start:index], location
                )
            out.append(chr(code))
        elif escape and escape in "01234567":
            start = index
            while index < len(body) and body[index] in "01234567" and index - start < 3:
                index += 1
            out.append(chr(int(body[start:index], 8)))
        else:
            out.append(_SIMPLE_ESCAPES.get(escape, escape))
            index += 1
    return "".join(out)


def parse_float_constant(spelling, location=None):
    """Decode a floating constant spelling (suffixes dropped); raises
    :class:`LexError` at ``location`` for a malformed one."""
    try:
        return float(spelling.rstrip("fFlL"))
    except ValueError:
        raise LexError(
            "invalid floating constant %r" % spelling, location
        ) from None


def parse_int_constant(spelling, location=None):
    """Decode an integer constant spelling (handles 0x, octal, suffixes);
    raises :class:`LexError` at ``location`` for a malformed one."""
    text = spelling.rstrip("uUlL")
    base = 10
    if text.lower().startswith("0x"):
        base = 16
    elif text.startswith("0") and len(text) > 1:
        base = 8
    try:
        return int(text, base)
    except ValueError:
        raise LexError(
            "invalid integer constant %r" % spelling, location
        ) from None
