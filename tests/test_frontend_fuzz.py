"""Frontend fuzz lane.

Two hypothesis properties over the same inputs:

- the master-regex lexer gives the same token streams as the
  character-at-a-time lexer it replaced (``tests/lexer_oracle.py``) --
  kind, spelling, location, ``preceded_by_space`` and the NEWLINE/HASH
  marks, in both modes -- or both raise the same :class:`LexError`;
- preprocessing and parsing either build an AST or raise a
  :class:`SourceError` that points at a real line, never any other
  exception, also for constructs nested past the parsers' bound.

The inputs are byte-level mutations of ``repro.codegen`` output, of
``tests/data`` and of every registered checker's metal text, a small
directive grammar, and identifiers and numbers with non-ASCII letters
and digits.  The examples per property come from the hypothesis
profile: ``--hypothesis-profile=frontend`` (``tests/conftest.py``) runs
many more than the default.
"""

import glob
import os
import sys

import lexer_oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkers import FREE_CHECKER_SOURCE, LOCK_CHECKER_SOURCE
from repro.cfront.lexer import Lexer
from repro.cfront.parser import MAX_NESTING, Parser
from repro.cfront.preproc import Preprocessor
from repro.cfront.source import LexError, SourceError
from repro.codegen.generator import generate_kernel_module
from repro.codegen.project_gen import generate_global_project, generate_project

HERE = os.path.dirname(os.path.abspath(__file__))
METAL_DIR = os.path.join(
    HERE, os.pardir, "src", "repro", "checkers", "metal"
)


def _read_all(pattern):
    texts = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as handle:
            texts.append(handle.read())
    return texts


#: Files an ``#include`` may find (everything else is absent).
HEADERS = dict(generate_project(seed=3, n_modules=1).files)
HEADERS["h.h"] = "#define H(x) ((x) + 1)\nint h_counter;\n"
CODEGEN = (
    [generate_kernel_module(seed, n_functions=4).source for seed in range(3)]
    + [generate_kernel_module(9, n_functions=3, suppression_idioms=True).source]
    + sorted(generate_project(seed=3, n_modules=2).files.values())
    + sorted(generate_global_project(seed=3, n_modules=2).files.values())
)
DATA = _read_all(os.path.join(HERE, "data", "*.c"))
METAL = [FREE_CHECKER_SOURCE, LOCK_CHECKER_SOURCE] + _read_all(
    os.path.join(METAL_DIR, "*.metal")
)

#: A window of at most this many characters is cut from a seed text,
#: so each example stays cheap under the slow oracle.
WINDOW = 3000

FUZZ = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def mutated(draw, texts):
    """A window of one of ``texts`` with up to eight byte-level edits
    (insert, replace, delete), decoded as Latin-1 so every byte is one
    character, the 128 non-ASCII ones included."""
    text = draw(st.sampled_from(texts))
    start = draw(st.integers(0, max(0, len(text) - 1)))
    data = bytearray(text[start : start + WINDOW].encode("utf-8"))
    for __ in range(draw(st.integers(0, 8))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("insert", "replace", "delete")))
        chunk = draw(st.binary(min_size=1, max_size=3))
        if op == "insert":
            data[at:at] = chunk
        elif op == "replace":
            data[at : at + len(chunk)] = chunk
        else:
            del data[at : at + len(chunk)]
    return data.decode("latin-1")


_DIRECTIVES = (
    "define", "undef", "if", "ifdef", "ifndef", "elif", "else", "endif",
    "include", "error", "pragma", "line", "",
)
_PIECES = (
    "F", "X", "Y", "H", "defined", "__VA_ARGS__", "(", ")", ",", "...",
    "0", "1", "7", "63", "64", "0x10", "-1", "'a'", "'\\n'",
    "<<", ">>", "+", "-", "*", "/", "%", "!", "~", "?", ":", "&&", "||",
    "==", "!=", "<", ">", "&", "|", "^", "#", "##",
    '"h.h"', '"shared.h"', '"gone.h"', "<h.h>", "<gone.h>",
    "int", "x", ";", "=", "{", "}", "/* c */", "/*\n*/", "// c", "\\\n",
)


@st.composite
def directive_file(draw):
    """Lines from a small directive grammar, mixed with plain C."""
    lines = []
    for __ in range(draw(st.integers(1, 8))):
        pieces = draw(st.lists(st.sampled_from(_PIECES), max_size=8))
        separator = draw(st.sampled_from((" ", "", "\t")))
        body = separator.join(pieces)
        if draw(st.booleans()):
            lines.append("#%s %s" % (draw(st.sampled_from(_DIRECTIVES)), body))
        else:
            lines.append(body)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


#: Letters, digits and numerics outside ASCII that ``str.isalpha`` /
#: ``isdigit`` / ``isalnum`` classify differently from ``\w`` and ``\d``
#: (``²`` is a digit but not a decimal, ``½`` numeric only, ``Ⅻ`` a
#: letter number), next to the ASCII that builds numbers and names.
_ALPHABET = tuple("abeExXfFuUlL_019.+-'\"\\/*#() \n") + (
    "é", "ñ", "µ", "ª", "²", "³", "¹",
    "½", "٣", "١", "Ⅻ", "ⅰ", "\u00a0", "\u2028",
    "﹏", "\U0001d7d8", "\U0001d538",
)
non_ascii = st.one_of(
    st.text(alphabet=st.sampled_from(_ALPHABET), max_size=60),
    st.text(max_size=40),
)

#: Constructs the recursive-descent parsers nest on: a template with
#: room for the openers and the closers.
_NESTS = (
    ("int x = %s1%s;", "(", ")"),
    ("int x[] = %s1%s;", "{", "}"),
    ("void f(void) %s%s", "{", "}"),
    ("int f(int *a) { return %s0%s; }", "a[", "]"),
    ("int f(int a) { return %sa%s; }", "f(", ")"),
    ("int f(int a) { return %sa%s; }", "- ", ""),
    ("int f(int a) { return %sa%s; }", "(int)", ""),
    ("int f(int a) { return a%s%s; }", " ? a : a", ""),
    ("int %sx%s;", "(", ")"),
    ("struct s %sint x;%s;", "{ struct t ", "} y;"),
    ("#if %s1%s\nint x;\n#endif\n", "(", ")"),
    ("#if %s1%s\nint x;\n#endif\n", "!", ""),
)


@st.composite
def deep_nesting(draw):
    """One construct nested around the parsers' bound, with up to two
    closers missing."""
    template, opener, closer = draw(st.sampled_from(_NESTS))
    depth = draw(st.sampled_from(
        (1, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1)
    ))
    closers = max(0, depth - draw(st.integers(0, 2))) if closer else 0
    return template % (opener * depth, closer * closers)


frontend_inputs = st.one_of(
    mutated(CODEGEN), mutated(DATA), mutated(METAL), directive_file(),
    non_ascii,
)


def _stream(lexer_class, text, emit_newlines):
    try:
        tokens = lexer_class(text, "fuzz.c", emit_newlines).tokens()
    except LexError as err:
        return ("LexError", err.message, err.location)
    return [
        (token.kind.name, token.value, token.location, token.preceded_by_space)
        for token in tokens
    ]


def assert_same_tokens(text):
    for emit_newlines in (False, True):
        assert _stream(Lexer, text, emit_newlines) == _stream(
            lexer_oracle.Lexer, text, emit_newlines
        ), (text, emit_newlines)


def _reader(path):
    try:
        return HEADERS[os.path.basename(path)]
    except KeyError:
        raise OSError(path) from None


def assert_frontend_total(text):
    try:
        pp = Preprocessor(["include"], {"CMD": "1"}, file_reader=_reader)
        tokens = pp.preprocess_text(text, "fuzz.c")
        Parser(None, "fuzz.c", tokens=tokens).parse_translation_unit()
    except SourceError as err:
        assert err.location.line >= 1, err


class TestLexerMatchesOracle:
    @FUZZ
    @given(mutated(CODEGEN))
    def test_codegen_mutations(self, text):
        assert_same_tokens(text)

    @FUZZ
    @given(directive_file())
    def test_directive_grammar(self, text):
        assert_same_tokens(text)

    @FUZZ
    @given(non_ascii)
    def test_non_ascii_names_and_digits(self, text):
        assert_same_tokens(text)

    @FUZZ
    @given(mutated(DATA))
    def test_data_mutations(self, text):
        assert_same_tokens(text)

    @FUZZ
    @given(mutated(METAL))
    def test_metal_text_mutations(self, text):
        assert_same_tokens(text)

    def test_unmutated_seed_texts(self):
        for text in CODEGEN + DATA + METAL + list(HEADERS.values()):
            assert_same_tokens(text)


class TestFrontendIsTotal:
    @FUZZ
    @given(frontend_inputs)
    def test_ast_or_located_source_error(self, text):
        assert_frontend_total(text)

    @FUZZ
    @given(directive_file())
    def test_directives_ast_or_located_source_error(self, text):
        assert_frontend_total(text)

    @FUZZ
    @given(deep_nesting())
    def test_deep_nesting_ast_or_located_source_error(self, text):
        # Hypothesis runs a property at about 2000 frames; xgcc runs at
        # the limit repro.engine.analysis sets, which the bound is for.
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(100000)
        try:
            assert_frontend_total(text)
        finally:
            sys.setrecursionlimit(saved)
