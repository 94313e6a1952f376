"""Source locations and diagnostics for the C front end."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Location:
    """A position in a source file (1-based line and column)."""

    filename: str = "<string>"
    line: int = 1
    column: int = 1

    def __str__(self):
        return "%s:%d:%d" % (self.filename, self.line, self.column)


UNKNOWN_LOCATION = Location("<unknown>", 0, 0)


class SourceError(Exception):
    """An error tied to a source location (lex, preprocess, or parse)."""

    def __init__(self, message, location=None):
        self.message = message
        self.location = location or UNKNOWN_LOCATION
        super().__init__("%s: %s" % (self.location, message))


class LexError(SourceError):
    """A tokenization failure."""


class PreprocessorError(SourceError):
    """A preprocessing failure (bad directive, unterminated conditional...)."""


class ParseError(SourceError):
    """A parse failure."""


def read_source(path):
    """The text of the source file at ``path``; raises a located
    :class:`LexError` when it does not decode."""
    try:
        with open(path) as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode(err.encoding)
            start = 0
        except UnicodeDecodeError as located:
            start = located.start
        line_start = data.rfind(b"\n", 0, start) + 1
        column = len(data[line_start:start].decode(err.encoding)) + 1
        raise LexError(
            "invalid %s byte 0x%02x" % (err.encoding.upper(), data[start]),
            Location(path, data.count(b"\n", 0, start) + 1, column),
        )
