"""A lightweight C preprocessor.

Implements the directives systems code actually leans on: object- and
function-like ``#define`` (with ``#``/``##`` left out -- stringize/paste are
rare in the code the analyses target and are rejected loudly rather than
mis-expanded), ``#undef``, ``#include`` (with an include-path search),
``#if``/``#ifdef``/``#ifndef``/``#elif``/``#else``/``#endif`` with
``defined()``, and ``#error``.  Unknown directives (``#pragma`` ...) are
skipped.

The output is a token list suitable for :class:`repro.cfront.parser.Parser`
plus the text form (for size accounting in the two-pass driver).
"""

import operator
import os
import time

from repro.cfront.lexer import (
    CHAR_CONST,
    EOF,
    HASH,
    IDENT,
    INT_CONST,
    KEYWORD,
    NEWLINE,
    PUNCT,
    STRING,
    Lexer,
    Token,
    parse_char_constant,
    parse_int_constant,
)
from repro.cfront.parser import BINARY_LEVELS, MAX_NESTING
from repro.cfront.source import PreprocessorError, read_source


#: path -> ``(text, lines)``: the logical lines of the header last read
#: at ``path``, kept for the life of the process.  A header included by
#: many files is lexed once while its text stays the same; the entry is
#: replaced when the text read differs, so a long-lived process holds one
#: entry per header path and an edited header is lexed again.  Threads
#: need no lock: a read or a store of one entry is atomic, and a reader
#: checks the entry's text, so a race costs at most a second lexing.
_HEADER_LINES = {}


class Macro:
    """A macro definition."""

    def __init__(self, name, body, params=None, varargs=False):
        self.name = name
        self.body = list(body)  # tokens
        self.params = params  # None => object-like
        self.varargs = varargs

    @property
    def function_like(self):
        return self.params is not None


class Preprocessor:
    """Expands one file (and its includes) into a flat token stream."""

    def __init__(self, include_paths=(), defines=None, file_reader=None):
        self.include_paths = list(include_paths)
        self.macros = {}
        self.file_reader = file_reader or read_source
        self.included = set()
        #: path -> text (None when absent) for every include candidate
        #: probed, in probe order.
        self.dependencies = {}
        #: Seconds spent in the lexer, and the tokens it produced (NEWLINE
        #: and EOF marks included), over this preprocessor's lifetime; a
        #: header served from the process memo adds to neither.
        self.lex_s = 0.0
        self.tokens_lexed = 0
        for name, value in (defines or {}).items():
            body = self._lex(str(value), "<cmdline>")[:-1]
            self.macros[name] = Macro(name, body)

    # -- public API ---------------------------------------------------------

    def preprocess_text(self, text, filename="<string>"):
        """Preprocess source text; returns the output token list (no EOF)."""
        lines = self._directive_lines(text, filename)
        return self._process_lines(lines, filename)

    # -- line splitting -------------------------------------------------------

    def _lex(self, text, filename, emit_newlines=False):
        start = time.perf_counter()
        tokens = Lexer(text, filename, emit_newlines).tokens()
        self.lex_s += time.perf_counter() - start
        self.tokens_lexed += len(tokens)
        return tokens

    def _directive_lines(self, text, filename):
        """Split the token stream into logical lines, tagging directives."""
        tokens = self._lex(text, filename, emit_newlines=True)
        lines = []
        current = []
        is_directive = False
        for token in tokens:
            kind = token.kind
            if kind is NEWLINE or kind is EOF:
                if current or is_directive:
                    lines.append((is_directive, current))
                current = []
                is_directive = False
            elif kind is HASH and not current:
                is_directive = True
            else:
                current.append(token)
        return lines

    # -- conditional / directive machinery ---------------------------------------

    def _process_lines(self, lines, filename):
        output = []
        # Conditional stack entries:
        # [taken_now, ever_taken, seen_else, opening location]
        stack = []

        def active():
            return all(entry[0] for entry in stack)

        for is_directive, tokens in lines:
            if is_directive:
                name = tokens[0].value if tokens else ""
                rest = tokens[1:]
                if name == "ifdef" or name == "ifndef":
                    defined = bool(rest) and rest[0].value in self.macros
                    taken = defined if name == "ifdef" else not defined
                    stack.append([taken and active(), taken, False,
                                  _loc(tokens)])
                elif name == "if":
                    taken = (
                        bool(self._evaluate_condition(rest, _loc(tokens)))
                        if active() else False
                    )
                    stack.append([taken and active(), taken, False,
                                  _loc(tokens)])
                elif name == "elif":
                    if not stack:
                        raise PreprocessorError("#elif without #if", _loc(tokens))
                    entry = stack.pop()
                    if entry[2]:
                        raise PreprocessorError("#elif after #else", _loc(tokens))
                    parent_active = all(e[0] for e in stack)
                    taken = (
                        not entry[1]
                        and parent_active
                        and bool(self._evaluate_condition(rest, _loc(tokens)))
                    )
                    stack.append([taken, entry[1] or taken, False, entry[3]])
                elif name == "else":
                    if not stack:
                        raise PreprocessorError("#else without #if", _loc(tokens))
                    entry = stack.pop()
                    parent_active = all(e[0] for e in stack)
                    stack.append([not entry[1] and parent_active, True, True,
                                  entry[3]])
                elif name == "endif":
                    if not stack:
                        raise PreprocessorError("#endif without #if", _loc(tokens))
                    stack.pop()
                elif not active():
                    continue
                elif name == "define":
                    self._handle_define(rest, _loc(tokens))
                elif name == "undef":
                    if rest:
                        self.macros.pop(rest[0].value, None)
                elif name == "include":
                    output.extend(self._handle_include(rest, _loc(tokens)))
                elif name == "error":
                    message = " ".join(t.value for t in rest)
                    raise PreprocessorError("#error %s" % message, _loc(tokens))
                else:
                    pass  # pragma, line, warning: ignore
            else:
                if active():
                    output.extend(self._expand(tokens))
        if stack:
            raise PreprocessorError("unterminated conditional", stack[-1][3])
        return output

    def _handle_define(self, tokens, location):
        if not tokens:
            raise PreprocessorError("empty #define", location)
        name_token = tokens[0]
        name = name_token.value
        rest = tokens[1:]
        # Function-like iff '(' immediately follows the name (no space).
        if rest and rest[0].is_punct("(") and not rest[0].preceded_by_space:
            params = []
            varargs = False
            index = 1
            if index < len(rest) and not rest[index].is_punct(")"):
                while index < len(rest):
                    token = rest[index]
                    if token.is_punct("..."):
                        varargs = True
                        index += 1
                        break
                    params.append(token.value)
                    index += 1
                    if index < len(rest) and rest[index].is_punct(","):
                        index += 1
                    else:
                        break
            if index >= len(rest) or not rest[index].is_punct(")"):
                raise PreprocessorError(
                    "malformed macro parameter list for %r" % name, name_token.location
                )
            body = rest[index + 1 :]
            self.macros[name] = Macro(name, body, params, varargs)
        else:
            self.macros[name] = Macro(name, rest)

    def _handle_include(self, tokens, location):
        if not tokens:
            raise PreprocessorError("empty #include", location)
        first = tokens[0]
        if first.kind is STRING:
            target = first.value[1:-1]
            system = False
        elif first.is_punct("<") and len(tokens) > 2 and tokens[-1].is_punct(">"):
            target = "".join(t.value for t in tokens[1:-1])
            system = True
        else:
            raise PreprocessorError("malformed #include", first.location)
        found = self._find_include(target)
        if found is None:
            if system:
                return []  # unresolved system headers are silently skipped
            raise PreprocessorError("cannot find include file %r" % target, first.location)
        path, text = found
        if path in self.included:
            return []  # simple include-once; sufficient for our workloads
        self.included.add(path)
        return self._process_lines(self._header_lines(path, text), path)

    def _header_lines(self, path, text):
        """:meth:`_directive_lines` of the header ``text`` read at
        ``path``, from the process memo when that text was seen last."""
        entry = _HEADER_LINES.get(path)
        if entry is not None and entry[0] == text:
            return entry[1]
        lines = self._directive_lines(text, path)
        _HEADER_LINES[path] = (text, lines)
        return lines

    def _find_include(self, target):
        """``(path, text)`` of the first readable candidate, or None."""
        candidates = [os.path.join(base, target) for base in self.include_paths]
        for candidate in candidates + [target]:
            text = self._probe(candidate)
            if text is not None:
                return candidate, text
        return None

    def _probe(self, path):
        """The text at ``path``, or None when it cannot be read.

        Each path is read at most once per preprocessor; the outcome is
        kept in :attr:`dependencies`, in probe order, which is what the
        AST cache's dependency records are built from.  A file that
        exists but does not decode is not absent: the reader's located
        diagnostic propagates.
        """
        if path not in self.dependencies:
            try:
                self.dependencies[path] = self.file_reader(path)
            except (OSError, KeyError):
                self.dependencies[path] = None
        return self.dependencies[path]

    # -- macro expansion -----------------------------------------------------------

    def _expand(self, tokens, hide=frozenset()):
        """Expand macros in a token list (with recursion hiding)."""
        output = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token.kind is not IDENT or token.value in hide:
                output.append(token)
                index += 1
                continue
            macro = self.macros.get(token.value)
            if macro is None:
                output.append(token)
                index += 1
                continue
            if macro.function_like:
                # Needs a following '('; otherwise the name is ordinary.
                if index + 1 >= len(tokens) or not tokens[index + 1].is_punct("("):
                    output.append(token)
                    index += 1
                    continue
                args, consumed = self._collect_arguments(tokens, index + 1, token)
                expanded = self._substitute(macro, args, token)
                output.extend(self._expand(expanded, hide | {macro.name}))
                index += consumed + 1
            else:
                body = [_relocate(t, token.location) for t in macro.body]
                output.extend(self._expand(body, hide | {macro.name}))
                index += 1
        return output

    def _collect_arguments(self, tokens, open_index, name_token):
        """Collect macro call arguments; returns (args, tokens_consumed)."""
        assert tokens[open_index].is_punct("(")
        args = [[]]
        depth = 0
        index = open_index
        while index < len(tokens):
            token = tokens[index]
            if token.is_punct("("):
                depth += 1
                if depth > 1:
                    args[-1].append(token)
            elif token.is_punct(")"):
                depth -= 1
                if depth == 0:
                    consumed = index - open_index + 1
                    if args == [[]]:
                        args = []
                    return args, consumed
                args[-1].append(token)
            elif token.is_punct(",") and depth == 1:
                args.append([])
            else:
                args[-1].append(token)
            index += 1
        raise PreprocessorError(
            "unterminated macro invocation of %r" % name_token.value, name_token.location
        )

    def _substitute(self, macro, args, name_token):
        if macro.varargs:
            fixed = len(macro.params)
            va = args[fixed:]
            args = args[:fixed]
            va_tokens = []
            for i, arg in enumerate(va):
                if i:
                    va_tokens.append(Token(PUNCT, ",", name_token.location))
                va_tokens.extend(arg)
        if len(args) < len(macro.params):
            args = args + [[] for _ in range(len(macro.params) - len(args))]
        mapping = dict(zip(macro.params, args))
        output = []
        for token in macro.body:
            if token.is_punct("#", "##"):
                raise PreprocessorError(
                    "stringize/paste (#/##) not supported in macro %r" % macro.name,
                    name_token.location,
                )
            if token.kind is IDENT and token.value in mapping:
                output.extend(
                    _relocate(t, name_token.location) for t in self._expand(mapping[token.value])
                )
            elif macro.varargs and token.is_ident("__VA_ARGS__"):
                output.extend(_relocate(t, name_token.location) for t in va_tokens)
            else:
                output.append(_relocate(token, name_token.location))
        return output

    # -- conditional expressions ------------------------------------------------------

    def _evaluate_condition(self, tokens, location):
        """Evaluate a #if expression after macro expansion and defined();
        ``location`` is the directive's, for errors at its end."""
        tokens = self._expand_defined(tokens, location)
        tokens = self._expand(tokens)
        return _CondParser(tokens, location).parse()

    def _expand_defined(self, tokens, location):
        output = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if token.is_ident("defined"):
                operand = tokens[index + 1 : index + 4]
                if operand and operand[0].is_punct("("):
                    if len(operand) < 3 or not operand[2].is_punct(")"):
                        raise PreprocessorError(
                            "expected 'defined(NAME)' in #if expression",
                            location,
                        )
                    name = operand[1].value
                    index += 4
                elif operand:
                    name = operand[0].value
                    index += 2
                else:
                    raise PreprocessorError(
                        "'defined' without a macro name in #if expression",
                        location,
                    )
                value = "1" if name in self.macros else "0"
                output.append(Token(INT_CONST, value, token.location))
            else:
                output.append(token)
                index += 1
        return output


class _CondParser:
    """A tiny precedence-climbing evaluator for integer #if expressions;
    errors past the last token point at ``location``, the directive's."""

    def __init__(self, tokens, location):
        self.tokens = tokens
        self.pos = 0
        self.end = Token(EOF, "", location)
        #: How many enclosing operands C leaves unevaluated (the right of
        #: a decided ``&&``/``||``, the arm of ``?:`` not taken): a shift
        #: out of range there is no error.
        self.skipping = 0
        self.depth = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return self.end

    def advance(self):
        token = self.peek()
        self.pos += 1
        return token

    def _nested(self, parse):
        """``parse()`` one nesting level deeper, or a located error past
        :data:`repro.cfront.parser.MAX_NESTING` levels."""
        if self.depth >= MAX_NESTING:
            raise PreprocessorError(
                "#if expression nests deeper than %d levels" % MAX_NESTING,
                self.peek().location,
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self._ternary()
        token = self.peek()
        if token is not self.end:
            raise PreprocessorError(
                "trailing %r in #if expression" % token.value, token.location
            )
        return value

    def _ternary(self):
        cond = self._binary()
        if self.peek().is_punct("?"):
            self.advance()
            self.skipping += not cond
            then = self._ternary()
            self.skipping -= not cond
            if not self.peek().is_punct(":"):
                raise PreprocessorError("expected ':' in #if expression", self.peek().location)
            self.advance()
            self.skipping += bool(cond)
            otherwise = self._ternary()
            self.skipping -= bool(cond)
            return then if cond else otherwise
        return cond

    def _binary(self, min_level=1):
        left = self._unary()
        while True:
            token = self.peek()
            level = (
                BINARY_LEVELS.get(token.value)
                if token.kind is PUNCT else None
            )
            if level is None or level < min_level:
                return left
            self.advance()
            skip = (token.value == "&&" and not left) or (
                token.value == "||" and bool(left)
            )
            self.skipping += skip
            right = self._binary(level + 1)
            self.skipping -= skip
            left = _apply_binop(token, left, right, self.skipping)

    def _unary(self):
        token = self.peek()
        if token.is_punct("!"):
            self.advance()
            return int(not self._nested(self._unary))
        if token.is_punct("-"):
            self.advance()
            return -self._nested(self._unary)
        if token.is_punct("+"):
            self.advance()
            return self._nested(self._unary)
        if token.is_punct("~"):
            self.advance()
            return ~self._nested(self._unary)
        if token.is_punct("("):
            self.advance()
            value = self._nested(self._ternary)
            if not self.peek().is_punct(")"):
                raise PreprocessorError("expected ')' in #if expression", token.location)
            self.advance()
            return value
        if token.kind is INT_CONST:
            self.advance()
            return parse_int_constant(token.value, token.location)
        if token.kind is CHAR_CONST:
            self.advance()
            return parse_char_constant(token.value, token.location)
        if token.kind in (IDENT, KEYWORD):
            # Undefined identifiers evaluate to 0, per the standard.
            self.advance()
            return 0
        raise PreprocessorError("bad token in #if expression: %r" % token.value, token.location)


#: The ``#if`` operators that are one Python operator each.
_ARITHMETIC = {
    "|": operator.or_, "^": operator.xor, "&": operator.and_,
    "<<": operator.lshift, ">>": operator.rshift,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
}


def _apply_binop(token, left, right, skipping):
    op = token.value
    if op in ("<<", ">>") and not 0 <= right < 64:
        if skipping:
            return 0
        raise PreprocessorError(
            "shift count %d out of range in #if expression" % right,
            token.location,
        )
    if op == "||":
        return int(bool(left) or bool(right))
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == ">":
        return int(left > right)
    if op == "<=":
        return int(left <= right)
    if op == ">=":
        return int(left >= right)
    if op in ("/", "%"):
        if not right:
            if skipping:
                return 0
            raise PreprocessorError(
                "division by zero in #if expression", token.location
            )
        # C truncates toward zero (C99 6.5.5p6); Python floors.
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        return quotient if op == "/" else left - quotient * right
    # Only the operator's own value: ``1 & -1`` must not compute a shift.
    return _ARITHMETIC[op](left, right)


def _relocate(token, location):
    return Token(token.kind, token.value, location, token.preceded_by_space)


def _loc(tokens):
    return tokens[0].location if tokens else None


def preprocess(text, filename="<string>", include_paths=(), defines=None, file_reader=None):
    """Preprocess text and return it re-rendered as parseable C source."""
    pp = Preprocessor(include_paths, defines, file_reader)
    tokens = pp.preprocess_text(text, filename)
    return render_tokens(tokens)


def render_tokens(tokens):
    """Render a token list back to compilable text (space-separated)."""
    parts = []
    previous = None
    for token in tokens:
        if previous is not None:
            parts.append(" ")
        parts.append(token.value)
        previous = token
    return "".join(parts)
