"""A recursive-descent parser for a practical subset of C.

The subset covers everything the paper's checkers and figures exercise:
function definitions and prototypes, typedefs, structs/unions/enums,
pointers and arrays, the full expression grammar with C precedence, and all
statements (including ``goto``/labels and ``switch``).

The parser doubles as the metal *pattern* parser: constructing it with a
``hole_types`` mapping turns identifiers that name hole variables into
:class:`repro.cfront.astnodes.Hole` nodes (§4 of the paper).

A best-effort type checker runs inline: expressions get a ``ctype`` when it
can be computed from declarations in scope.  Pattern matching of typed holes
(Table 1) relies on this.
"""

import hashlib

from repro.cfront import astnodes as ast
from repro.cfront import types as ctypes
from repro.cfront.lexer import (
    CHAR_CONST,
    EOF,
    FLOAT_CONST,
    IDENT,
    INT_CONST,
    KEYWORD,
    PUNCT,
    STRING,
    Lexer,
    Token,
    parse_char_constant,
    parse_float_constant,
    parse_int_constant,
    parse_string_literal,
    token_text,
)
from repro.cfront.source import Location, ParseError

_TYPE_SPECIFIER_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned _Bool struct union enum".split()
)
_STORAGE_KEYWORDS = frozenset("typedef extern static auto register".split())
_QUALIFIER_KEYWORDS = frozenset("const volatile restrict inline".split())

#: GCC spellings the parser drops; those in ``_GCC_GROUPED`` take a
#: parenthesized operand, which is dropped with them.
_GCC_NOISE = frozenset(
    ["__attribute__", "__extension__", "__restrict", "__restrict__",
     "__inline", "__inline__", "__volatile__", "__asm__", "__asm"]
)
_GCC_GROUPED = ("__attribute__", "__asm__", "__asm")

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>=")

#: How deep brackets, blocks, prefix operators, casts, assignments and
#: ``?:`` arms may nest (here and in ``#if`` expressions) before a located
#: error: the recursive descent then stays far below Python's recursion
#: limit.  Statement chains (``else if``, case labels) do not count.
MAX_NESTING = 1000

#: The farthest :meth:`Parser.peek` looks past the current token.
LOOKAHEAD = 2

#: Binary operator -> precedence level, loosest first (C's order).
BINARY_LEVELS = {
    op: level
    for level, ops in enumerate(
        ["||", "&&", "|", "^", "&", "== !=", "< > <= >=", "<< >>", "+ -",
         "* / %"],
        start=1,
    )
    for op in ops.split()
}


def definition_hash(tokens):
    """The local content hash of a function definition: a SHA-256 over
    the :func:`repro.cfront.lexer.token_text` of its tokens.  Positions
    matter because every report carries one: moving a single token
    inside the body must change the hash (:mod:`repro.cfg.fingerprint`)."""
    return hashlib.sha256(token_text(tokens).encode()).hexdigest()


class Scope:
    """A lexical scope mapping names to types (variables and functions)."""

    def __init__(self, parent=None):
        self.parent = parent
        self.names = {}

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def define(self, name, ctype):
        self.names[name] = ctype


class TokenCursor:
    """A position in a token list that ends with its EOF token.

    The cursor takes the list over and pads it with :data:`LOOKAHEAD`
    more references to that EOF token, and ``pos`` never passes ``end``
    (the EOF token's index), so ``peek(offset)`` for any ``offset <=
    LOOKAHEAD`` is one index, with no clamp, and reads EOF at and past the
    end of input.
    """

    def __init__(self, tokens):
        self.end = len(tokens) - 1
        tokens.extend([tokens[-1]] * LOOKAHEAD)
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset=0):
        return self.tokens[self.pos + offset]

    def advance(self):
        pos = self.pos
        if pos < self.end:
            self.pos = pos + 1
        return self.tokens[pos]


class Parser(TokenCursor):
    """Parses token streams into ASTs.

    Parameters
    ----------
    text:
        the source text (already preprocessed, or plain C).
    filename:
        for locations and diagnostics.
    typedefs:
        optional initial typedef table ``{name: CType}``; extended as the
        parse encounters ``typedef`` declarations.
    hole_types:
        optional ``{name: metatype}``; identifiers with these names parse as
        :class:`Hole` nodes.  Used by the metal pattern compiler only.
    """

    def __init__(self, text, filename="<string>", typedefs=None, hole_types=None,
                 tokens=None):
        if tokens is not None:
            tokens = list(tokens)
            if not tokens or tokens[-1].kind is not EOF:
                last = tokens[-1].location if tokens else None
                tokens.append(Token(EOF, "", last or Location(filename)))
        else:
            tokens = Lexer(text, filename).tokens()
        super().__init__(tokens)
        self.filename = filename
        self.typedefs = dict(typedefs or {})
        self.hole_types = dict(hole_types or {})
        self.scope = Scope()
        self.record_tags = {}  # tag -> RecordType (completed as defs are seen)
        self.enum_tags = {}
        self.enum_constants = {}
        self.depth = 0

    # -- token stream helpers ------------------------------------------------
    #
    # A token that matched a punctuator, keyword or identifier is not the
    # EOF token, so the helpers (and the hot loops below) that consume one
    # step ``pos`` without the ``end`` check.

    def at_eof(self):
        return self.peek().kind is EOF

    def error(self, message):
        token = self.peek()
        raise ParseError("%s (at %r)" % (message, token.value or "<eof>"), token.location)

    def _nested(self, parse, *args):
        """``parse(*args)`` one nesting level deeper, or a located
        ParseError past :data:`MAX_NESTING` levels."""
        if self.depth >= MAX_NESTING:
            self.error("nesting deeper than %d levels" % MAX_NESTING)
        self.depth += 1
        result = parse(*args)
        self.depth -= 1
        return result

    def expect_punct(self, value):
        pos = self.pos
        token = self.tokens[pos]
        if token.kind is not PUNCT or token.value != value:
            self.error("expected %r" % value)
        self.pos = pos + 1
        return token

    def expect_keyword(self, value):
        pos = self.pos
        token = self.tokens[pos]
        if token.kind is not KEYWORD or token.value != value:
            self.error("expected keyword %r" % value)
        self.pos = pos + 1
        return token

    def expect_ident(self):
        pos = self.pos
        token = self.tokens[pos]
        if token.kind is not IDENT:
            self.error("expected identifier")
        self.pos = pos + 1
        return token

    def accept_punct(self, *values):
        pos = self.pos
        token = self.tokens[pos]
        if token.kind is PUNCT and token.value in values:
            self.pos = pos + 1
            return token
        return None

    def accept_keyword(self, *values):
        pos = self.pos
        token = self.tokens[pos]
        if token.kind is KEYWORD and token.value in values:
            self.pos = pos + 1
            return token
        return None

    # -- GCC extension tolerance ------------------------------------------------

    def _skip_gcc_extensions(self):
        """Skip ``__attribute__((...))`` and friends wherever they appear.

        Kernel code is saturated with these; the analyses never consult
        them, so the parser tolerates and drops them.
        """
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind is not IDENT or token.value not in _GCC_NOISE:
                return
            name = token.value
            self.pos += 1
            token = tokens[self.pos]
            if (token.kind is PUNCT and token.value == "("
                    and name in _GCC_GROUPED):
                depth = 0
                while True:
                    inner = self.advance()
                    if inner.kind is PUNCT:
                        if inner.value == "(":
                            depth += 1
                        elif inner.value == ")":
                            depth -= 1
                            if depth == 0:
                                break
                    elif inner.kind is EOF:
                        self.error("unterminated %s" % name)

    # -- type recognition ------------------------------------------------------

    def _is_typedef_name(self, token):
        return (
            token.kind is IDENT
            and token.value in self.typedefs
            and token.value not in self.hole_types
        )

    def starts_type(self, offset=0):
        """Whether the token at ``offset`` begins a type (for decl/cast tests)."""
        token = self.tokens[self.pos + offset]
        if token.kind is KEYWORD:
            return (
                token.value in _TYPE_SPECIFIER_KEYWORDS
                or token.value in _STORAGE_KEYWORDS
                or token.value in _QUALIFIER_KEYWORDS
            )
        if token.kind is IDENT and token.value in _GCC_NOISE:
            return True
        return self._is_typedef_name(token)

    # -- declarations ----------------------------------------------------------

    def parse_translation_unit(self):
        decls = []
        while not self.at_eof():
            if self.accept_punct(";"):
                continue
            decls.extend(self.parse_external_declaration())
        return ast.TranslationUnit(decls, self.filename)

    def parse_external_declaration(self):
        """One external declaration; may expand to several Decl nodes."""
        start = self.pos
        location = self.peek().location
        storage, base_type = self.parse_declaration_specifiers()

        # Bare "struct S { ... };" or "enum E { ... };"
        if self.peek().is_punct(";"):
            self.advance()
            if isinstance(base_type, ctypes.RecordType):
                return [ast.RecordDecl(base_type, location)]
            if isinstance(base_type, ctypes.EnumType):
                return [ast.EnumDecl(base_type, location)]
            return []

        decls = []
        while True:
            name, full_type, params = self.parse_declarator(base_type)
            self._skip_gcc_extensions()
            if name is None:
                self.error("expected declarator name")
            if storage == "typedef":
                self.typedefs[name] = full_type
                decls.append(ast.TypedefDecl(name, full_type, location))
            elif full_type.is_function():
                fn_type = full_type.resolve()
                self.scope.define(name, fn_type)
                if self.peek().is_punct("{"):
                    body = self._parse_function_body(params)
                    decl = ast.FunctionDecl(
                        name,
                        fn_type.return_type,
                        params or [],
                        body,
                        fn_type.varargs,
                        storage,
                        location,
                    )
                    decl.token_hash = definition_hash(
                        self.tokens[start:self.pos]
                    )
                    decls.append(decl)
                    return decls
                decls.append(
                    ast.FunctionDecl(
                        name,
                        fn_type.return_type,
                        params or [],
                        None,
                        fn_type.varargs,
                        storage,
                        location,
                    )
                )
            else:
                init = None
                if self.accept_punct("="):
                    init = self.parse_initializer()
                self.scope.define(name, full_type)
                decls.append(ast.VarDecl(name, full_type, init, storage, location))
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        return decls

    def _parse_function_body(self, params):
        self.scope = Scope(self.scope)
        for param in params or []:
            if param.name:
                self.scope.define(param.name, param.ctype)
        body = self.parse_compound()
        self.scope = self.scope.parent
        return body

    def parse_declaration_specifiers(self):
        """Parse storage/qualifier/type specifiers; return (storage, CType)."""
        storage = None
        qualifiers = set()
        specifier_words = []
        record = None
        while True:
            self._skip_gcc_extensions()
            token = self.tokens[self.pos]
            value = token.value
            if token.kind is KEYWORD:
                if value in _STORAGE_KEYWORDS:
                    if value in ("typedef", "static", "extern"):
                        storage = value
                    self.pos += 1
                elif value in _QUALIFIER_KEYWORDS:
                    qualifiers.add(value)
                    self.pos += 1
                elif value == "struct" or value == "union":
                    record = self._nested(self.parse_record_specifier)
                elif value == "enum":
                    record = self.parse_enum_specifier()
                elif value in _TYPE_SPECIFIER_KEYWORDS:
                    specifier_words.append(value)
                    self.pos += 1
                else:
                    break
            elif self._is_typedef_name(token) and not specifier_words and record is None:
                record = self.typedefs[value]
                record = ctypes.TypedefType(value, record)
                self.pos += 1
            else:
                break
        if record is not None:
            return storage, record
        if not specifier_words:
            if storage or qualifiers:
                return storage, ctypes.INT  # implicit int
            self.error("expected type specifier")
        return storage, _canonical_basic_type(specifier_words, self)

    def parse_record_specifier(self):
        kind_token = self.advance()  # struct | union
        kind = kind_token.value
        tag = None
        if self.peek().kind is IDENT:
            tag = self.advance().value
        record = None
        if tag is not None:
            record = self.record_tags.get((kind, tag))
        if record is None:
            record = ctypes.RecordType(kind, tag)
            if tag is not None:
                self.record_tags[(kind, tag)] = record
        if self.accept_punct("{"):
            fields = []
            while not self.peek().is_punct("}"):
                __, field_base = self.parse_declaration_specifiers()
                while True:
                    name, field_type, __ = self.parse_declarator(field_base)
                    if self.accept_punct(":"):  # bitfield width
                        self.parse_conditional()
                    if name is not None:
                        fields.append((name, field_type))
                    if not self.accept_punct(","):
                        break
                self.expect_punct(";")
            self.expect_punct("}")
            record.fields = fields
        return record

    def parse_enum_specifier(self):
        self.advance()  # enum
        tag = None
        if self.peek().kind is IDENT:
            tag = self.advance().value
        enum = None
        if tag is not None:
            enum = self.enum_tags.get(tag)
        if enum is None:
            enum = ctypes.EnumType(tag)
            if tag is not None:
                self.enum_tags[tag] = enum
        if self.accept_punct("{"):
            enumerators = []
            next_value = 0
            while not self.peek().is_punct("}"):
                name = self.expect_ident().value
                value = None
                if self.accept_punct("="):
                    value_expr = self.parse_conditional()
                    value = _fold_constant(value_expr, self)
                if value is None:
                    value = next_value
                next_value = value + 1
                enumerators.append((name, value))
                self.enum_constants[name] = value
                self.scope.define(name, enum)
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            enum.enumerators = tuple(enumerators)
        return enum

    def parse_declarator(self, base_type, abstract=False):
        """Parse a (possibly abstract) declarator.

        Returns ``(name, type, params)`` where ``params`` is the parameter
        list if the declarator declared a function, else None.
        """
        self._skip_gcc_extensions()
        while self.accept_punct("*"):
            quals = []
            while self.peek().is_keyword("const", "volatile", "restrict"):
                quals.append(self.advance().value)
            self._skip_gcc_extensions()
            base_type = ctypes.PointerType(base_type, quals)

        name = None
        inner_marker = None
        params_out = [None]

        if self.peek().is_punct("(") and self._paren_is_declarator():
            self.advance()
            inner_marker = self.pos
            depth = 1
            while depth:
                token = self.advance()
                if token.is_punct("("):
                    depth += 1
                    # Each level rescans what it encloses: stop early.
                    if self.depth + depth > MAX_NESTING:
                        self.error("nesting deeper than %d levels"
                                   % MAX_NESTING)
                elif token.is_punct(")"):
                    depth -= 1
                elif token.kind is EOF:
                    self.error("unterminated declarator")
        elif self.peek().kind is IDENT:
            name = self.advance().value
        elif not abstract and not self.peek().is_punct("(", "["):
            self.error("expected declarator")

        # Suffixes: arrays and function parameter lists, innermost-first.
        suffix_type = base_type
        while True:
            if self.accept_punct("["):
                size = None
                if not self.peek().is_punct("]"):
                    size = self._nested(self.parse_expression)
                self.expect_punct("]")
                suffix_type = _append_array(suffix_type, size)
            elif self.peek().is_punct("("):
                self.advance()
                params, varargs = self._nested(self.parse_parameter_list)
                suffix_type = ctypes.FunctionType(
                    suffix_type, tuple(p.ctype for p in params), varargs
                )
                params_out[0] = params
            else:
                break

        if inner_marker is not None:
            saved = self.pos
            self.pos = inner_marker
            name, suffix_type, inner_params = self._nested(
                self.parse_declarator, suffix_type, abstract
            )
            if inner_params is not None:
                params_out[0] = inner_params
            self.expect_punct(")")
            self.pos = saved

        return name, suffix_type, params_out[0]

    def _paren_is_declarator(self):
        """Disambiguate ``(*f)(...)`` declarators from parameter lists."""
        token = self.peek(1)
        if token.is_punct("*", "("):
            return True
        # "(ident)" is a declarator unless ident is a typedef name (then it's
        # a parameter list "(size_t)").
        if token.kind is IDENT and not self._is_typedef_name(token):
            return self.peek(2).is_punct(")", "[", "(")
        return False

    def parse_parameter_list(self):
        params = []
        varargs = False
        if self.accept_punct(")"):
            return params, varargs
        if self.peek().is_keyword("void") and self.peek(1).is_punct(")"):
            self.advance()
            self.advance()
            return params, varargs
        while True:
            if self.accept_punct("..."):
                varargs = True
                break
            location = self.peek().location
            __, base = self.parse_declaration_specifiers()
            name, full_type, __ = self.parse_declarator(base, abstract=True)
            if isinstance(full_type, ctypes.ArrayType):
                full_type = full_type.decay()
            if full_type.is_function():
                full_type = ctypes.PointerType(full_type)
            params.append(ast.ParamDecl(name, full_type, location))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return params, varargs

    def parse_initializer(self):
        if self.peek().is_punct("{"):
            location = self.advance().location
            items = []
            while not self.peek().is_punct("}"):
                if self.accept_punct("."):  # designated initializer: skip name
                    self.expect_ident()
                    self.expect_punct("=")
                elif self.peek().is_punct("["):
                    self.advance()
                    self.parse_conditional()
                    self.expect_punct("]")
                    self.expect_punct("=")
                items.append(self._nested(self.parse_initializer))
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            return ast.InitList(items, location)
        return self.parse_assignment()

    # -- statements --------------------------------------------------------------

    def parse_compound(self):
        location = self.expect_punct("{").location
        self.scope = Scope(self.scope)
        items = []
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind is PUNCT and token.value == "}":
                break
            if token.kind is EOF:
                self.error("unterminated compound statement")
            items.extend(self.parse_block_item())
        self.expect_punct("}")
        self.scope = self.scope.parent
        return ast.Compound(items, location)

    def parse_block_item(self):
        """A declaration (may split into several) or a single statement."""
        if self.starts_type() and not self._label_ahead():
            return self.parse_local_declaration()
        return [self.parse_statement()]

    def _label_ahead(self):
        return (
            self.peek().kind is IDENT and self.peek(1).is_punct(":")
        )

    def parse_local_declaration(self):
        location = self.peek().location
        storage, base_type = self.parse_declaration_specifiers()
        if self.accept_punct(";"):
            if isinstance(base_type, ctypes.RecordType):
                return [ast.RecordDecl(base_type, location)]
            if isinstance(base_type, ctypes.EnumType):
                return [ast.EnumDecl(base_type, location)]
            return []
        decls = []
        while True:
            name, full_type, __ = self.parse_declarator(base_type)
            if storage == "typedef":
                self.typedefs[name] = full_type
                decls.append(ast.TypedefDecl(name, full_type, location))
            else:
                init = None
                if self.accept_punct("="):
                    init = self.parse_initializer()
                self.scope.define(name, full_type)
                decls.append(ast.VarDecl(name, full_type, init, storage, location))
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        return decls

    def parse_statement(self):
        token = self.tokens[self.pos]
        location = token.location
        kind = token.kind
        if kind is PUNCT:
            if token.value == "{":
                return self._nested(self.parse_compound)
            if token.value == ";":
                self.pos += 1
                return ast.EmptyStmt(location)
        elif kind is KEYWORD:
            parse = self._KEYWORD_STATEMENTS.get(token.value)
            if parse is not None:
                self.pos += 1
                return parse(self, location)
        elif kind is IDENT:
            following = self.tokens[self.pos + 1]
            if following.kind is PUNCT and following.value == ":":
                self.pos += 2
                return ast.Label(token.value, self.parse_statement(), location)

        expr = self.parse_expression()
        self.expect_punct(";")
        return ast.ExprStmt(expr, location)

    def _parse_if(self, location):
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then = self.parse_statement()
        otherwise = None
        if self.accept_keyword("else"):
            otherwise = self.parse_statement()
        return ast.If(cond, then, otherwise, location)

    def _parse_while(self, location):
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.While(cond, body, location)

    def _parse_do(self, location):
        body = self.parse_statement()
        self.expect_keyword("while")
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.DoWhile(body, cond, location)

    def _parse_for(self, location):
        self.expect_punct("(")
        init = None
        if self.starts_type():
            init = ast.Compound(self.parse_local_declaration(), location)
        elif not self.peek().is_punct(";"):
            init = ast.ExprStmt(self.parse_expression(), location)
            self.expect_punct(";")
        else:
            self.advance()
        cond = None
        if not self.peek().is_punct(";"):
            cond = self.parse_expression()
        self.expect_punct(";")
        step = None
        if not self.peek().is_punct(")"):
            step = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.For(init, cond, step, body, location)

    def _parse_switch(self, location):
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.Switch(cond, body, location)

    def _parse_case(self, location):
        expr = self.parse_conditional()
        self.expect_punct(":")
        return ast.Case(expr, self.parse_statement(), location)

    def _parse_default(self, location):
        self.expect_punct(":")
        return ast.Default(self.parse_statement(), location)

    def _parse_break(self, location):
        self.expect_punct(";")
        return ast.Break(location)

    def _parse_continue(self, location):
        self.expect_punct(";")
        return ast.Continue(location)

    def _parse_return(self, location):
        expr = None
        if not self.peek().is_punct(";"):
            expr = self.parse_expression()
        self.expect_punct(";")
        return ast.Return(expr, location)

    def _parse_goto(self, location):
        label = self.expect_ident().value
        self.expect_punct(";")
        return ast.Goto(label, location)

    #: Statement keyword -> the method that parses the rest of the
    #: statement once the keyword is consumed.
    _KEYWORD_STATEMENTS = {
        "if": _parse_if, "while": _parse_while, "do": _parse_do,
        "for": _parse_for, "switch": _parse_switch, "case": _parse_case,
        "default": _parse_default, "break": _parse_break,
        "continue": _parse_continue, "return": _parse_return,
        "goto": _parse_goto,
    }

    # -- expressions ---------------------------------------------------------------

    def parse_expression(self):
        """Full expression including the comma operator."""
        expr = self.parse_assignment()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind is not PUNCT or token.value != ",":
                return expr
            self.pos += 1
            right = self.parse_assignment()
            expr = ast.Comma(expr, right, token.location)

    def parse_assignment(self):
        left = self.parse_conditional()
        token = self.tokens[self.pos]
        if token.kind is PUNCT and token.value in _ASSIGN_OPS:
            self.pos += 1
            op = token.value
            right = self._nested(self.parse_assignment)
            node = ast.Assign(op, left, right, token.location)
            node.ctype = left.ctype
            return node
        return left

    def parse_conditional(self):
        cond = self.parse_binary()
        token = self.tokens[self.pos]
        if token.kind is PUNCT and token.value == "?":
            self.pos += 1
            location = token.location
            then = self._nested(self.parse_expression)
            self.expect_punct(":")
            otherwise = self._nested(self.parse_conditional)
            node = ast.Conditional(cond, then, otherwise, location)
            node.ctype = then.ctype or otherwise.ctype
            return node
        return cond

    def parse_binary(self, min_level=1):
        """Binary operators by precedence climbing: each operand binds
        operators of higher :data:`BINARY_LEVELS` only, so equal levels
        associate to the left."""
        left = self.parse_cast()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind is not PUNCT:
                return left
            level = BINARY_LEVELS.get(token.value)
            if level is None or level < min_level:
                return left
            self.pos += 1
            op = token.value
            right = self.parse_binary(level + 1)
            node = ast.Binary(op, left, right, token.location)
            node.ctype = self._binary_type(op, left, right)
            left = node

    def _binary_type(self, op, left, right):
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return ctypes.INT
        left_type = left.ctype.resolve() if left.ctype else None
        right_type = right.ctype.resolve() if right.ctype else None
        if op in ("+", "-"):
            if left_type is not None and left_type.is_pointer():
                return left.ctype
            if right_type is not None and right_type.is_pointer():
                return right.ctype
        return left.ctype or right.ctype

    def parse_cast(self):
        token = self.tokens[self.pos]
        if (token.kind is PUNCT and token.value == "("
                and self.starts_type(1)):
            self.pos += 1
            location = token.location
            to_type = self.parse_type_name()
            self.expect_punct(")")
            # "(int){...}" compound literals are not supported; a cast of a
            # brace would be one, so reject early for clarity.
            operand = self._nested(self.parse_cast)
            node = ast.Cast(to_type, operand, location)
            node.ctype = to_type
            return node
        return self.parse_unary()

    def parse_type_name(self):
        __, base = self.parse_declaration_specifiers()
        __, full_type, __ = self.parse_declarator(base, abstract=True)
        return full_type

    def parse_unary(self):
        token = self.tokens[self.pos]
        location = token.location
        kind = token.kind
        if kind is PUNCT:
            op = token.value
            if op == "++" or op == "--":
                self.pos += 1
                operand = self._nested(self.parse_unary)
                node = ast.Unary(op, operand, postfix=False, location=location)
                node.ctype = operand.ctype
                return node
            if op == "+" or op == "-" or op == "~" or op == "!":
                self.pos += 1
                operand = self._nested(self.parse_cast)
                node = ast.Unary(op, operand, location=location)
                node.ctype = ctypes.INT if op == "!" else operand.ctype
                return node
            if op == "*":
                self.pos += 1
                operand = self._nested(self.parse_cast)
                node = ast.Unary("*", operand, location=location)
                if operand.ctype is not None:
                    resolved = operand.ctype.resolve()
                    if isinstance(resolved, (ctypes.PointerType,)):
                        node.ctype = resolved.target
                    elif isinstance(resolved, ctypes.ArrayType):
                        node.ctype = resolved.element
                return node
            if op == "&":
                self.pos += 1
                operand = self._nested(self.parse_cast)
                node = ast.Unary("&", operand, location=location)
                if operand.ctype is not None:
                    node.ctype = ctypes.PointerType(operand.ctype)
                return node
        elif kind is KEYWORD and token.value == "sizeof":
            self.pos += 1
            token = self.tokens[self.pos]
            if (token.kind is PUNCT and token.value == "("
                    and self.starts_type(1)):
                self.pos += 1
                of_type = self.parse_type_name()
                self.expect_punct(")")
                node = ast.SizeofType(of_type, location)
            else:
                node = ast.SizeofExpr(self._nested(self.parse_unary), location)
            node.ctype = ctypes.UNSIGNED_LONG
            return node
        return self.parse_postfix()

    def parse_postfix(self):
        expr = self.parse_primary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.kind is not PUNCT:
                return expr
            value = token.value
            if value == "(":
                self.pos += 1
                args = []
                following = tokens[self.pos]
                if following.kind is not PUNCT or following.value != ")":
                    while True:
                        args.append(self._nested(self.parse_assignment))
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                node = ast.Call(expr, args, token.location)
                node.ctype = self._call_type(expr)
                expr = node
            elif value == "[":
                self.pos += 1
                index = self._nested(self.parse_expression)
                self.expect_punct("]")
                node = ast.Index(expr, index, token.location)
                if expr.ctype is not None:
                    resolved = expr.ctype.resolve()
                    if isinstance(resolved, ctypes.PointerType):
                        node.ctype = resolved.target
                    elif isinstance(resolved, ctypes.ArrayType):
                        node.ctype = resolved.element
                expr = node
            elif value == "." or value == "->":
                self.pos += 1
                arrow = value == "->"
                name = self.expect_ident().value
                node = ast.Member(expr, name, arrow, token.location)
                node.ctype = self._member_type(expr, name, arrow)
                expr = node
            elif value == "++" or value == "--":
                self.pos += 1
                node = ast.Unary(value, expr, postfix=True, location=token.location)
                node.ctype = expr.ctype
                expr = node
            else:
                return expr

    def _call_type(self, func):
        if func.ctype is not None:
            resolved = func.ctype.resolve()
            if isinstance(resolved, ctypes.FunctionType):
                return resolved.return_type
            if isinstance(resolved, ctypes.PointerType) and isinstance(
                resolved.target.resolve(), ctypes.FunctionType
            ):
                return resolved.target.resolve().return_type
        return None

    def _member_type(self, obj, name, arrow):
        if obj.ctype is None:
            return None
        resolved = obj.ctype.resolve()
        if arrow:
            if not isinstance(resolved, ctypes.PointerType):
                return None
            resolved = resolved.target.resolve()
        if isinstance(resolved, ctypes.RecordType) and resolved.fields:
            return resolved.field_type(name)
        return None

    def parse_primary(self):
        token = self.tokens[self.pos]
        location = token.location
        kind = token.kind
        if kind is IDENT:
            self.pos += 1
            name = token.value
            if name in self.hole_types:
                return ast.Hole(name, self.hole_types[name], location)
            if name in self.enum_constants:
                node = ast.Ident(name, location)
                node.ctype = ctypes.INT
                return node
            node = ast.Ident(name, location)
            node.ctype = self.scope.lookup(name)
            return node
        if kind is PUNCT and token.value == "(":
            self.pos += 1
            expr = self._nested(self.parse_expression)
            self.expect_punct(")")
            return expr
        if kind is INT_CONST:
            self.pos += 1
            return self._typed_int(token, location)
        if kind is FLOAT_CONST:
            self.pos += 1
            node = ast.FloatLit(
                parse_float_constant(token.value, location), token.value,
                location,
            )
            node.ctype = ctypes.DOUBLE
            return node
        if kind is CHAR_CONST:
            self.pos += 1
            node = ast.CharLit(
                parse_char_constant(token.value, location), token.value,
                location,
            )
            node.ctype = ctypes.CHAR
            return node
        if kind is STRING:
            self.pos += 1
            value = parse_string_literal(token.value, location)
            spelling = token.value
            # Adjacent string literal concatenation.
            while self.tokens[self.pos].kind is STRING:
                extra = self.advance()
                value += parse_string_literal(extra.value, extra.location)
                spelling += " " + extra.value
            node = ast.StringLit(value, spelling, location)
            node.ctype = ctypes.CHAR_PTR
            return node
        self.error("expected expression")

    def _typed_int(self, token, location):
        node = ast.IntLit(
            parse_int_constant(token.value, location), token.value, location
        )
        spelling = token.value.lower()
        if "u" in spelling and "ll" in spelling:
            node.ctype = ctypes.BasicType("unsigned long long")
        elif "u" in spelling and "l" in spelling:
            node.ctype = ctypes.UNSIGNED_LONG
        elif "u" in spelling:
            node.ctype = ctypes.UNSIGNED_INT
        elif "ll" in spelling:
            node.ctype = ctypes.BasicType("long long")
        elif "l" in spelling and not spelling.startswith("0x"):
            node.ctype = ctypes.LONG
        else:
            node.ctype = ctypes.INT
        return node


def _canonical_basic_type(words, parser):
    """Canonicalize a multiset of basic type specifier words."""
    counts = {}
    for word in words:
        counts[word] = counts.get(word, 0) + 1

    if counts.get("void"):
        return ctypes.VOID
    if counts.get("_Bool"):
        return ctypes.BOOL
    if counts.get("float"):
        return ctypes.FLOAT
    if counts.get("double"):
        if counts.get("long"):
            return ctypes.BasicType("long double")
        return ctypes.DOUBLE

    unsigned = bool(counts.get("unsigned"))
    signed = bool(counts.get("signed"))
    if counts.get("char"):
        if unsigned:
            return ctypes.BasicType("unsigned char")
        if signed:
            return ctypes.BasicType("signed char")
        return ctypes.CHAR
    if counts.get("short"):
        return ctypes.BasicType("unsigned short" if unsigned else "short")
    longs = counts.get("long", 0)
    if longs >= 2:
        return ctypes.BasicType("unsigned long long" if unsigned else "long long")
    if longs == 1:
        return ctypes.UNSIGNED_LONG if unsigned else ctypes.LONG
    return ctypes.UNSIGNED_INT if unsigned else ctypes.INT


def _fold_constant(expr, parser):
    """Best-effort constant folding for enum values and array sizes."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.CharLit):
        return expr.value
    if isinstance(expr, ast.Ident) and expr.name in parser.enum_constants:
        return parser.enum_constants[expr.name]
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _fold_constant(expr.operand, parser)
        return -inner if inner is not None else None
    if isinstance(expr, ast.Binary):
        left = _fold_constant(expr.left, parser)
        right = _fold_constant(expr.right, parser)
        if left is None or right is None:
            return None
        if expr.op in ("<<", ">>") and not 0 <= right < 64:
            return None  # undefined in C; a huge count would exhaust memory
        try:
            return {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else None,
                "%": lambda: left % right if right else None,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "|": lambda: left | right,
                "&": lambda: left & right,
                "^": lambda: left ^ right,
            }[expr.op]()
        except KeyError:
            return None
    return None


def _append_array(base, size):
    """Append an array dimension *inside* existing array dimensions so that
    ``int a[2][3]`` parses as array-of-arrays in the right order."""
    if isinstance(base, ctypes.ArrayType):
        return ctypes.ArrayType(_append_array(base.element, size), base.size)
    return ctypes.ArrayType(base, size)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def parse(text, filename="<string>", typedefs=None):
    """Parse a full translation unit."""
    return Parser(text, filename, typedefs=typedefs).parse_translation_unit()


def parse_expression(text, hole_types=None, typedefs=None, scope=None):
    """Parse a single expression (used by the pattern compiler and tests)."""
    parser = Parser(text, typedefs=typedefs, hole_types=hole_types)
    if scope:
        for name, ctype in scope.items():
            parser.scope.define(name, ctype)
    expr = parser.parse_expression()
    if not parser.at_eof():
        parser.error("trailing tokens after expression")
    return expr


def parse_statement(text, hole_types=None, typedefs=None):
    """Parse a single statement (used by the pattern compiler and tests)."""
    parser = Parser(text, typedefs=typedefs, hole_types=hole_types)
    stmt = parser.parse_statement()
    if not parser.at_eof():
        parser.error("trailing tokens after statement")
    return stmt
