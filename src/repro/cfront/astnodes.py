"""AST node classes for the C front end.

Design notes
------------

*Identity vs. structure.*  Nodes compare by identity (they are used as
dictionary keys for AST annotations, the mechanism extensions use to compose
-- see §3.2 of the paper).  Structural comparison, which metal pattern
matching needs for repeated holes ("each appearance must contain equivalent
ASTs"), is provided by :func:`structurally_equal` and :func:`structural_key`.

*Execution order.*  The paper applies extensions "to each AST in a single
path in execution order ... a function call's arguments are visited before
the call; an assignment's right-hand side is visited first, then the
left-hand side, then the assignment" (§5).  :func:`execution_order`
implements exactly that visit.
"""

from repro.cfront.source import UNKNOWN_LOCATION


class Node:
    """Base class of all AST nodes.

    Subclasses declare ``_fields``; child nodes (and lists of nodes) are
    discovered through it generically, which keeps traversal, unparsing and
    structural comparison in one place.
    """

    _fields = ()

    def __init__(self, location=None):
        self.location = location or UNKNOWN_LOCATION

    def children(self):
        """The direct child nodes, in field order (list-valued fields
        flattened)."""
        found = []
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                found.append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        found.append(item)
        return found

    def walk(self):
        """Yield this node and all descendants, preorder.

        An explicit stack, not recursive generators: a node at depth d
        would otherwise pass through d suspended generators."""
        stack = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            children = node.children()
            if children:
                children.reverse()
                stack.extend(children)

    def __repr__(self):
        parts = []
        for name in self._fields:
            value = getattr(self, name)
            parts.append("%s=%r" % (name, value))
        return "%s(%s)" % (type(self).__name__, ", ".join(parts))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions.  ``ctype`` is filled by the parser's
    best-effort type inference (None when unknown)."""

    def __init__(self, location=None):
        super().__init__(location)
        self.ctype = None


class Ident(Expr):
    """An identifier use."""

    _fields = ("name",)

    def __init__(self, name, location=None):
        super().__init__(location)
        self.name = name


class IntLit(Expr):
    """Integer constant."""

    _fields = ("value",)

    def __init__(self, value, spelling=None, location=None):
        super().__init__(location)
        self.value = value
        self.spelling = spelling if spelling is not None else str(value)


class FloatLit(Expr):
    """Floating constant."""

    _fields = ("value",)

    def __init__(self, value, spelling=None, location=None):
        super().__init__(location)
        self.value = value
        self.spelling = spelling if spelling is not None else repr(value)


class CharLit(Expr):
    """Character constant; ``value`` is the integer code point."""

    _fields = ("value",)

    def __init__(self, value, spelling=None, location=None):
        super().__init__(location)
        self.value = value
        self.spelling = spelling if spelling is not None else "'%s'" % chr(value)


class StringLit(Expr):
    """String literal; ``value`` is the decoded text."""

    _fields = ("value",)

    def __init__(self, value, spelling=None, location=None):
        super().__init__(location)
        self.value = value
        self.spelling = spelling if spelling is not None else '"%s"' % value


class Unary(Expr):
    """A unary operation.

    ``op`` is one of ``+ - ~ ! * & ++ --``; ``postfix`` distinguishes
    ``p++`` from ``++p``.  ``*`` is pointer dereference, ``&`` address-of.
    """

    _fields = ("op", "operand")

    def __init__(self, op, operand, postfix=False, location=None):
        super().__init__(location)
        self.op = op
        self.operand = operand
        self.postfix = postfix


class Binary(Expr):
    """A binary operation (no assignments; see :class:`Assign`)."""

    _fields = ("op", "left", "right")

    def __init__(self, op, left, right, location=None):
        super().__init__(location)
        self.op = op
        self.left = left
        self.right = right


class Assign(Expr):
    """Assignment, simple (``=``) or compound (``+=`` ...)."""

    _fields = ("op", "target", "value")

    def __init__(self, op, target, value, location=None):
        super().__init__(location)
        self.op = op
        self.target = target
        self.value = value


class Conditional(Expr):
    """The ternary ``cond ? then : otherwise``."""

    _fields = ("cond", "then", "otherwise")

    def __init__(self, cond, then, otherwise, location=None):
        super().__init__(location)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class Call(Expr):
    """A function call."""

    _fields = ("func", "args")

    def __init__(self, func, args, location=None):
        super().__init__(location)
        self.func = func
        self.args = list(args)

    def callee_name(self):
        """The called function's name for direct calls, else None."""
        if isinstance(self.func, Ident):
            return self.func.name
        return None


class Member(Expr):
    """``obj.name`` (``arrow=False``) or ``obj->name`` (``arrow=True``)."""

    _fields = ("obj", "name")

    def __init__(self, obj, name, arrow, location=None):
        super().__init__(location)
        self.obj = obj
        self.name = name
        self.arrow = arrow


class Index(Expr):
    """Array subscript ``array[index]``."""

    _fields = ("array", "index")

    def __init__(self, array, index, location=None):
        super().__init__(location)
        self.array = array
        self.index = index


class Cast(Expr):
    """``(type) operand``; ``to_type`` is a :class:`repro.cfront.types.CType`."""

    _fields = ("operand",)

    def __init__(self, to_type, operand, location=None):
        super().__init__(location)
        self.to_type = to_type
        self.operand = operand


class SizeofExpr(Expr):
    """``sizeof expr``."""

    _fields = ("operand",)

    def __init__(self, operand, location=None):
        super().__init__(location)
        self.operand = operand


class SizeofType(Expr):
    """``sizeof(type)``."""

    _fields = ()

    def __init__(self, of_type, location=None):
        super().__init__(location)
        self.of_type = of_type


class Comma(Expr):
    """The comma operator ``left, right``."""

    _fields = ("left", "right")

    def __init__(self, left, right, location=None):
        super().__init__(location)
        self.left = left
        self.right = right


class InitList(Expr):
    """A braced initializer list ``{a, b, c}``."""

    _fields = ("items",)

    def __init__(self, items, location=None):
        super().__init__(location)
        self.items = list(items)


class Hole(Expr):
    """A metal hole variable occurring inside a pattern AST.

    Never produced by the C parser proper; the metal pattern compiler
    rewrites identifiers that name hole variables into :class:`Hole` nodes.
    ``metatype`` is a :class:`repro.metal.metatypes.MetaType` or a concrete
    :class:`repro.cfront.types.CType`.
    """

    _fields = ("name",)

    def __init__(self, name, metatype, location=None):
        super().__init__(location)
        self.name = name
        self.metatype = metatype


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""


class ExprStmt(Stmt):
    """An expression statement ``expr;``."""

    _fields = ("expr",)

    def __init__(self, expr, location=None):
        super().__init__(location)
        self.expr = expr


class EmptyStmt(Stmt):
    """A lone ``;``."""

    _fields = ()


class Compound(Stmt):
    """A ``{ ... }`` block; items are declarations and statements."""

    _fields = ("items",)

    def __init__(self, items, location=None):
        super().__init__(location)
        self.items = list(items)


class If(Stmt):
    _fields = ("cond", "then", "otherwise")

    def __init__(self, cond, then, otherwise=None, location=None):
        super().__init__(location)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class While(Stmt):
    _fields = ("cond", "body")

    def __init__(self, cond, body, location=None):
        super().__init__(location)
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    _fields = ("body", "cond")

    def __init__(self, body, cond, location=None):
        super().__init__(location)
        self.body = body
        self.cond = cond


class For(Stmt):
    """``for (init; cond; step) body``; init may be a declaration."""

    _fields = ("init", "cond", "step", "body")

    def __init__(self, init, cond, step, body, location=None):
        super().__init__(location)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Switch(Stmt):
    _fields = ("cond", "body")

    def __init__(self, cond, body, location=None):
        super().__init__(location)
        self.cond = cond
        self.body = body


class Case(Stmt):
    _fields = ("expr", "stmt")

    def __init__(self, expr, stmt, location=None):
        super().__init__(location)
        self.expr = expr
        self.stmt = stmt


class Default(Stmt):
    _fields = ("stmt",)

    def __init__(self, stmt, location=None):
        super().__init__(location)
        self.stmt = stmt


class Break(Stmt):
    _fields = ()


class Continue(Stmt):
    _fields = ()


class Return(Stmt):
    _fields = ("expr",)

    def __init__(self, expr=None, location=None):
        super().__init__(location)
        self.expr = expr


class Goto(Stmt):
    _fields = ()

    def __init__(self, label, location=None):
        super().__init__(location)
        self.label = label


class Label(Stmt):
    _fields = ("stmt",)

    def __init__(self, name, stmt, location=None):
        super().__init__(location)
        self.name = name
        self.stmt = stmt


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Decl(Node):
    """Base class for declarations."""


class VarDecl(Decl):
    """A variable declaration (one declarator; the parser splits lists)."""

    _fields = ("init",)

    def __init__(self, name, ctype, init=None, storage=None, location=None):
        super().__init__(location)
        self.name = name
        self.ctype = ctype
        self.init = init
        self.storage = storage  # 'static' | 'extern' | 'typedef-expanded' | None

    def __repr__(self):
        return "VarDecl(%r, %r)" % (self.name, self.ctype)


class TypedefDecl(Decl):
    _fields = ()

    def __init__(self, name, ctype, location=None):
        super().__init__(location)
        self.name = name
        self.ctype = ctype

    def __repr__(self):
        return "TypedefDecl(%r, %r)" % (self.name, self.ctype)


class RecordDecl(Decl):
    """A standalone ``struct S { ... };`` / ``union U { ... };``."""

    _fields = ()

    def __init__(self, record_type, location=None):
        super().__init__(location)
        self.record_type = record_type

    def __repr__(self):
        return "RecordDecl(%r)" % (self.record_type,)


class EnumDecl(Decl):
    _fields = ()

    def __init__(self, enum_type, location=None):
        super().__init__(location)
        self.enum_type = enum_type

    def __repr__(self):
        return "EnumDecl(%r)" % (self.enum_type,)


class ParamDecl(Decl):
    _fields = ()

    def __init__(self, name, ctype, location=None):
        super().__init__(location)
        self.name = name
        self.ctype = ctype

    def __repr__(self):
        return "ParamDecl(%r, %r)" % (self.name, self.ctype)


class FunctionDecl(Decl):
    """A function declaration or definition (``body`` is None for protos)."""

    _fields = ("params", "body")

    #: Derived per-definition values computed once at parse time and then
    #: carried by the AST frame: the local content hash of the
    #: definition's tokens (:func:`repro.cfront.parser.definition_hash`)
    #: and the sorted tuple of direct callee names
    #: (:func:`repro.cfg.fingerprint.stamp_unit`).  ``token_hash`` is None
    #: only on a decl built without the parser; ``direct_callees`` is None
    #: on one that never went through pass 1, and readers compute it.
    token_hash = None
    direct_callees = None

    def __init__(self, name, return_type, params, body=None, varargs=False,
                 storage=None, location=None):
        super().__init__(location)
        self.name = name
        self.return_type = return_type
        self.params = list(params)
        self.body = body
        self.varargs = varargs
        self.storage = storage

    @property
    def is_definition(self):
        return self.body is not None

    def __repr__(self):
        return "FunctionDecl(%r)" % self.name


class TranslationUnit(Node):
    """All top-level declarations of one source file."""

    _fields = ("decls",)

    def __init__(self, decls, filename="<string>", location=None):
        super().__init__(location)
        self.decls = list(decls)
        self.filename = filename

    def functions(self):
        """All function definitions in the unit."""
        return [d for d in self.decls if isinstance(d, FunctionDecl) and d.is_definition]

    def function(self, name):
        for decl in self.decls:
            if isinstance(decl, FunctionDecl) and decl.name == name and decl.is_definition:
                return decl
        return None


# ---------------------------------------------------------------------------
# Structural comparison and hashing
# ---------------------------------------------------------------------------

# Fields that take part in structural identity but are not Node-valued.
_ATOM_FIELDS = {
    Ident: ("name",),
    IntLit: ("value",),
    FloatLit: ("value",),
    CharLit: ("value",),
    StringLit: ("value",),
    Unary: ("op", "postfix"),
    Binary: ("op",),
    Assign: ("op",),
    Member: ("name", "arrow"),
    Hole: ("name",),
    Goto: ("label",),
    Label: ("name",),
    VarDecl: ("name",),
    ParamDecl: ("name",),
    FunctionDecl: ("name",),
}


def structural_key(node):
    """A hashable key such that two nodes are structurally equal iff their
    keys are equal.  Non-node leaves are included verbatim."""
    if node is None:
        return None
    if not isinstance(node, Node):
        return node
    atoms = tuple(getattr(node, f) for f in _ATOM_FIELDS.get(type(node), ()))
    parts = [type(node).__name__, atoms]
    if isinstance(node, Cast):
        parts.append(str(node.to_type))
    if isinstance(node, SizeofType):
        parts.append(str(node.of_type))
    for field in node._fields:
        value = getattr(node, field)
        if isinstance(value, (list, tuple)):
            parts.append(tuple(structural_key(v) for v in value))
        elif isinstance(value, Node):
            parts.append(structural_key(value))
        # atom fields already captured
    return tuple(parts)


def structurally_equal(a, b):
    """Structural AST equality, the notion repeated holes use: the pattern
    ``{foo(x,x)}`` matches ``foo(a[i],a[i])`` but not ``foo(0,1)`` (§4)."""
    return structural_key(a) == structural_key(b)


# ---------------------------------------------------------------------------
# Execution-order traversal (§5)
# ---------------------------------------------------------------------------


def execution_order(node):
    """Yield the program points of an expression tree in execution order.

    The rules from §5 of the paper:

    * a call's arguments are visited before the call itself;
    * an assignment's right-hand side first, then the left-hand side, then
      the assignment;
    * everything else: operands before the operator (postorder).

    Short-circuit operands and ``?:`` arms are *not* descended into here --
    the CFG builder lowers those into explicit control flow, so by the time
    the engine sees a tree it is branch-free.
    """
    if node is None:
        return
    if isinstance(node, Assign):
        yield from execution_order(node.value)
        yield from execution_order(node.target)
        yield node
    elif isinstance(node, Call):
        for arg in node.args:
            yield from execution_order(arg)
        yield from execution_order(node.func)
        yield node
    else:
        for child in node.children():
            yield from execution_order(child)
        yield node


def contains_identifier(node, name):
    """True if identifier ``name`` occurs anywhere inside ``node``."""
    if isinstance(node, Ident):
        # Leaf node: walk() would yield only the node itself, so skip the
        # generator machinery -- tracked objects are usually bare idents.
        return node.name == name
    return any(isinstance(n, Ident) and n.name == name for n in node.walk())


def identifiers_in(node):
    """The set of identifier names occurring in ``node``."""
    return {n.name for n in node.walk() if isinstance(n, Ident)}


def is_lvalue(node):
    """A conservative l-value test (assignable expressions)."""
    if isinstance(node, (Ident, Member, Index)):
        return True
    if isinstance(node, Unary) and node.op == "*" and not node.postfix:
        return True
    return False
