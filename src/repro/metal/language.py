"""The textual metal DSL (Figures 1 and 3).

Grammar (reconstructed from the paper's figures)::

    checker     := 'sm' IDENT '{' item* '}'
    item        := decl | severity | clause
    decl        := 'state'? 'decl' type-words IDENT ';'
    severity    := 'severity' ('SECURITY' | 'ERROR' | 'MINOR') ';'
    clause      := state-label ':' rule ('|' rule)* ';'
    state-label := IDENT ('.' IDENT)?
    rule        := pattern ('==>' targets)? (',' action)?
    targets     := 'true' '=' state-ref ',' 'false' '=' state-ref
                 | state-ref
    state-ref   := IDENT ('.' IDENT)?
    pattern     := pat-or
    pat-or      := pat-and ('||' pat-and)*
    pat-and     := pat-atom ('&&' pat-atom)*
    pat-atom    := '{' C-fragment '}'         -- base pattern
                 | '$' '{' C-expression '}'   -- callout
                 | '$end_of_path$'            -- also '$end of path$'
                 | '(' pattern ')'
    action      := '{' C-statements '}'

C code actions and callout bodies are parsed with the C front end (holes
included) and run by a small interpreter with the callout library
(:mod:`repro.metal.callouts`) in scope.  This substitutes for the original
system's compiled-C escapes; Python-API extensions are the full-power
escape hatch (see DESIGN.md).  A fragment that fails when it runs is a
:class:`MetalError` at its position in the metal text.
"""

import functools
import operator
import re

from repro.cfront import astnodes as ast
from repro.cfront.lexer import (
    Lexer,
    TokenKind,
    parse_char_constant,
    parse_int_constant,
    parse_string_literal,
)
from repro.cfront.parser import Parser, TokenCursor
from repro.cfront.source import ParseError, SourceError
from repro.metal.callouts import LIBRARY, SEVERITIES
from repro.metal.metatypes import metatype_by_name
from repro.metal.patterns import Callout, EndOfPath, compile_pattern
from repro.metal.sm import Extension


class MetalError(SourceError):
    """A malformed metal extension."""


class MetalParser(TokenCursor):
    """Parses metal text into an :class:`Extension`."""

    def __init__(self, text, filename="<metal>"):
        super().__init__(Lexer(text, filename).tokens())
        self.filename = filename

    def error(self, message):
        raise MetalError(
            "%s (at %r)" % (message, self.peek().value or "<eof>"), self.peek().location
        )

    def expect(self, value):
        token = self.peek()
        if token.value != value:
            self.error("expected %r" % value)
        return self.advance()

    def accept(self, value):
        if self.peek().value == value:
            return self.advance()
        return None

    # -- top level -------------------------------------------------------------

    def parse(self):
        self.expect("sm")
        name_token = self.peek()
        if name_token.kind is not TokenKind.IDENT:
            self.error("expected checker name after 'sm'")
        self.advance()
        extension = Extension(name_token.value)
        self.expect("{")
        while not self.peek().is_punct("}"):
            if self.peek().kind is TokenKind.EOF:
                self.error("unterminated checker body")
            if self.peek().value in ("state", "decl"):
                self._parse_decl(extension)
            elif (self.peek().value == "severity"
                  and not self.peek(1).is_punct(":")):
                self._parse_severity(extension)
            else:
                self._parse_clause(extension)
        self.expect("}")
        return extension

    def _parse_decl(self, extension):
        is_state = bool(self.accept("state"))
        self.expect("decl")
        # Type words up to the variable name: the name is the last IDENT
        # before ';'.
        words = []
        while not self.peek().is_punct(";"):
            if self.peek().kind is TokenKind.EOF:
                self.error("unterminated decl")
            words.append(self.advance().value)
        self.expect(";")
        if len(words) < 2:
            self.error("decl needs a type and a name")
        name = words[-1]
        type_words = " ".join(words[:-1])
        metatype = metatype_by_name(type_words)
        if metatype is None:
            from repro.cfront.parser import Parser as CParser
            from repro.metal.metatypes import ConcreteType

            try:
                type_parser = CParser(type_words + " x;")
                decls = type_parser.parse_external_declaration()
                metatype = ConcreteType(decls[0].ctype)
            except (ParseError, IndexError):
                self.error("unknown hole type %r" % type_words)
        if is_state:
            extension.state_var(name, metatype)
        else:
            extension.decl(name, metatype)

    def _parse_severity(self, extension):
        self.expect("severity")
        if self.peek().value not in SEVERITIES:
            self.error("severity must be one of %s" % ", ".join(SEVERITIES))
        extension.default_severity = self.advance().value
        self.expect(";")

    def _parse_clause(self, extension):
        source = self._parse_state_ref()
        self.expect(":")
        while True:
            self._parse_rule(extension, source)
            if not self.accept("|"):
                break
        self.expect(";")

    def _parse_state_ref(self):
        token = self.peek()
        if token.kind is not TokenKind.IDENT:
            self.error("expected state name")
        name = self.advance().value
        if self.accept("."):
            value = self.advance().value
            return "%s.%s" % (name, value)
        return name

    def _parse_rule(self, extension, source):
        pattern = self._parse_pattern(extension)
        to = true_to = false_to = None
        action = None
        if self.peek().is_punct("==") and self.peek(1).is_punct(">"):
            self.advance()
            self.advance()
            if self.peek().value == "true" and self.peek(1).is_punct("="):
                self.advance()
                self.advance()
                true_to = self._parse_state_ref()
                self.expect(",")
                if self.peek().value != "false":
                    self.error("expected 'false=' arm of path-specific target")
                self.advance()
                self.expect("=")
                false_to = self._parse_state_ref()
            else:
                to = self._parse_state_ref()
        if self.accept(","):
            if not self.peek().is_punct("{"):
                self.error("expected '{' action block")
            tokens = self._collect_braced()
            action = _action(
                _statements(self._fragment(tokens, extension)), _text(tokens)
            )
        extension.transition(
            source, pattern, to=to, action=action, true_to=true_to, false_to=false_to
        )

    # -- patterns ----------------------------------------------------------------

    def _parse_pattern(self, extension):
        left = self._parse_pattern_and(extension)
        while self.peek().is_punct("||"):
            self.advance()
            right = self._parse_pattern_and(extension)
            left = left | right
        return left

    def _parse_pattern_and(self, extension):
        left = self._parse_pattern_atom(extension)
        while self.peek().is_punct("&&"):
            self.advance()
            right = self._parse_pattern_atom(extension)
            left = left & right
        return left

    def _parse_pattern_atom(self, extension):
        token = self.peek()
        if token.is_punct("("):
            self.advance()
            inner = self._parse_pattern(extension)
            self.expect(")")
            return inner
        if token.is_punct("{"):
            body = _text(self._collect_braced())
            return compile_pattern(body, extension.hole_types)
        if token.is_punct("$"):
            self.advance()
            if self.peek().is_punct("{"):
                tokens = self._collect_braced()
                return _callout(self._fragment(tokens, extension), _text(tokens))
            # $end_of_path$ (also the spelled-out '$end of path$').
            words = []
            while not self.peek().is_punct("$"):
                if self.peek().kind is TokenKind.EOF:
                    self.error("unterminated $...$ pattern")
                words.append(self.advance().value)
            self.expect("$")
            name = "_".join(words)
            if name == "end_of_path":
                return EndOfPath()
            self.error("unknown special pattern $%s$" % " ".join(words))
        self.error("expected a pattern")

    def _fragment(self, tokens, extension):
        """A C parser over a fragment's tokens: its nodes keep their
        positions in the metal text."""
        return Parser(None, self.filename, hole_types=extension.hole_types,
                      tokens=tokens)

    def _collect_braced(self):
        """Consume a balanced ``{...}`` and return the body's tokens."""
        open_token = self.expect("{")
        depth = 1
        tokens = []
        while depth:
            token = self.advance()
            if token.kind is TokenKind.EOF:
                raise MetalError("unterminated '{'", open_token.location)
            if token.is_punct("{"):
                depth += 1
            elif token.is_punct("}"):
                depth -= 1
                if depth == 0:
                    break
            tokens.append(token)
        return tokens


def _text(tokens):
    return " ".join(token.value for token in tokens)


# ---------------------------------------------------------------------------
# The action / callout interpreter
# ---------------------------------------------------------------------------

#: What a C fragment raises when it goes wrong at run time: a call with
#: the wrong arity or operand types, a division by zero, a bad format.
_FRAGMENT_FAILURES = (ArithmeticError, LookupError, TypeError, ValueError,
                      AttributeError)


class _Unbound(Exception):
    """A hole the fragment reads is not bound at this match."""

    def __init__(self, hole):
        self.hole = hole


class _ReturnValue(Exception):
    def __init__(self, value):
        self.value = value


class _Interpreter:
    """Evaluates the C fragments inside ``${...}`` and action blocks.

    Identifier resolution order: hole bindings, the callout library, the
    context's own operations (``err``, ``get_data``, ...), then the
    per-extension user-global dictionary (``ctx.globals``).  A failure
    is a :class:`MetalError` at the innermost failing node's position in
    the ``.metal`` text.
    """

    __slots__ = ("context", "bindings")

    def __init__(self, context):
        self.context = context
        self.bindings = getattr(context, "bindings", None) or {}

    def lookup(self, node):
        name = node.name
        if name in self.bindings:
            return self.bindings[name]
        if name in LIBRARY:
            return LIBRARY[name]
        builtin = getattr(self.context, name, None)
        if builtin is not None:
            return builtin
        user_globals = getattr(self.context, "globals", None)
        if user_globals is not None and name in user_globals:
            return user_globals[name]
        raise MetalError(
            "unknown identifier %r in metal C fragment" % name, node.location
        )

    def run_stmt(self, stmt):
        if isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, ast.Compound):
            for item in stmt.items:
                self.run_stmt(item)
        elif isinstance(stmt, ast.If):
            if _truthy(self.eval(stmt.cond)):
                self.run_stmt(stmt.then)
            elif stmt.otherwise is not None:
                self.run_stmt(stmt.otherwise)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.Return):
            raise _ReturnValue(self.eval(stmt.expr) if stmt.expr else None)
        else:
            raise MetalError(
                "unsupported statement in metal C fragment: %s"
                % type(stmt).__name__, stmt.location,
            )

    def eval(self, expr):
        try:
            if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StringLit,
                                 ast.CharLit)):
                return expr.value
            if isinstance(expr, ast.Hole):
                if expr.name in self.bindings:
                    return self.bindings[expr.name]
                raise _Unbound(expr)
            if isinstance(expr, ast.Ident):
                value = self.lookup(expr)
                if getattr(value, "_needs_context", False):
                    # A bare mention of e.g. mc_stmt: evaluate it now.
                    return value(self.context)
                return value
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Ident):
                    fn = self.lookup(func)
                else:
                    fn = self.eval(func)
                args = [self.eval(a) for a in expr.args]
                if getattr(fn, "_needs_context", False):
                    return fn(self.context, *args)
                return fn(*args)
            if isinstance(expr, ast.Unary):
                value = self.eval(expr.operand)
                if expr.op == "!":
                    return int(not _truthy(value))
                if expr.op == "-":
                    return -value
                if expr.op == "+":
                    return value
                if expr.op == "~":
                    return ~value
                raise MetalError("unsupported unary %r in metal C fragment"
                                 % expr.op, expr.location)
            if isinstance(expr, ast.Binary):
                if expr.op == "&&":
                    return int(_truthy(self.eval(expr.left))
                               and _truthy(self.eval(expr.right)))
                if expr.op == "||":
                    return int(_truthy(self.eval(expr.left))
                               or _truthy(self.eval(expr.right)))
                apply = _BINARY.get(expr.op)
                if apply is None:
                    raise MetalError("unsupported binary %r in metal C "
                                     "fragment" % expr.op, expr.location)
                return apply(self.eval(expr.left), self.eval(expr.right))
            if isinstance(expr, ast.Conditional):
                if _truthy(self.eval(expr.cond)):
                    return self.eval(expr.then)
                return self.eval(expr.otherwise)
            if (isinstance(expr, ast.Assign) and expr.op == "="
                    and isinstance(expr.target, ast.Ident)):
                user_globals = getattr(self.context, "globals", None)
                if user_globals is None:
                    raise MetalError("no globals store for assignment in "
                                     "fragment", expr.location)
                value = self.eval(expr.value)
                user_globals[expr.target.name] = value
                return value
            raise MetalError(
                "unsupported expression in metal C fragment: %s"
                % type(expr).__name__, expr.location,
            )
        except _FRAGMENT_FAILURES as error:
            # A failed call is placed at its callee's name.
            where = expr.func if isinstance(expr, ast.Call) else expr
            raise MetalError(
                "%s: %s" % (type(error).__name__, error), where.location
            ) from error


def _truthy(value):
    if value is None:
        return False
    if isinstance(value, (int, float, str, list)):
        return bool(value)
    return True  # AST nodes etc. are truthy


def _divide(left, right):
    return left // right if isinstance(left, int) else left / right


_BINARY = {
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": operator.mod,
    "|": operator.or_,
    "&": operator.and_,
    "^": operator.xor,
    "<<": operator.lshift,
    ">>": operator.rshift,
}


def _action(stmts, source):
    def action(context):
        interpreter = _Interpreter(context)
        try:
            for stmt in stmts:
                interpreter.run_stmt(stmt)
        except _ReturnValue:
            pass
        except _Unbound as unbound:
            raise MetalError("hole %r is unbound in this fragment"
                             % unbound.hole.name, unbound.hole.location)

    action.source = source
    return action


def _callout(parser, source):
    expr = parser.parse_expression()
    if not parser.at_eof():
        parser.error("trailing tokens in callout")

    def predicate(context):
        try:
            return _truthy(_Interpreter(context).eval(expr))
        except _Unbound:
            return False  # an unbound hole in a standalone callout: no match

    return Callout(predicate, source)


def _statements(parser):
    stmts = []
    while not parser.at_eof():
        stmts.append(parser.parse_statement())
    return stmts


def compile_action(body, hole_types):
    """Compile a C code action (§3.2) into an engine action callable."""
    parser = Parser(body, "<metal-action>", hole_types=hole_types)
    return _action(_statements(parser), body)


def compile_callout(body, hole_types):
    """Compile a ``${...}`` callout body into a :class:`Callout` pattern."""
    body = body.strip()
    return _callout(Parser(body, "<metal-callout>", hole_types=hole_types), body)


@functools.lru_cache(maxsize=64)
def _parse(text, filename):
    extension = MetalParser(text, filename).parse()
    extension.source = text
    return extension


def compile_metal(text, filename="<metal>"):
    """Compile metal source text into an :class:`Extension`.

    A text is parsed once per process; each call returns its own copy,
    which the caller may extend or reorder freely.
    """
    return _parse(text, filename).copy()


#: A C string literal or comment, and a brace block holding no braces.
_LITERAL_OR_COMMENT = re.compile(r'("(?:[^"\\\n]|\\.)*"|/\*.*?\*/)', re.S)
_BLOCK = re.compile(r"\{[^{}]*\}")


def instantiate(text, params):
    """Bind a checker's parameters in its metal text.

    ``params`` maps an identifier of the text to a function name, or to
    several.  Every mention outside literals and comments is renamed; a base
    pattern ``{...}`` that names a parameter bound to several names
    becomes the disjunction of one copy per name, so ``{ kfree(v) }``
    with ``kfree=("kfree", "vfree")`` reads ``({ kfree(v) } || { vfree(v)
    })``.  With nothing to rename the text comes back unchanged.
    """
    bound = {}
    for name, value in params.items():
        if not isinstance(value, str) and len(value) == 1:
            value = value[0]
        if value != name:
            bound[name] = value
    if not bound:
        return text
    word = re.compile(r"\b(%s)\b" % "|".join(map(re.escape, bound)))

    def rename(code, name, value):
        return word.sub(
            lambda m: value if m.group(1) == name else m.group(0), code)

    def expand(match):
        block = match.group(0)
        for name in word.findall(block):
            if not isinstance(bound[name], str):
                return "(%s)" % " || ".join(
                    rename(block, name, value) for value in bound[name])
        return block

    def single(match):
        value = bound[match.group(1)]
        return value if isinstance(value, str) else match.group(0)

    def fill(code):
        return word.sub(single, _BLOCK.sub(expand, code))

    parts = _LITERAL_OR_COMMENT.split(text)
    parts[::2] = [fill(part) for part in parts[::2]]
    return "".join(parts)
