"""Metal patterns (§4): pattern compilation and AST unification.

A *base pattern* is a bracketed code fragment in an extended C where
identifiers declared as hole variables match whole subtrees.  Base patterns
compose with ``&&`` and ``||``; *callouts* (``${...}``) are boolean escapes;
``$end_of_path$`` matches path ends.

Matching is structural over ASTs ("because we match ASTs, spaces and other
lexical artifacts do not interfere with matching").  Repeated holes must
bind structurally equal subtrees.
"""

from repro.cfront import astnodes as ast
from repro.cfront.parser import Parser
from repro.cfront.source import ParseError
from repro.cfg.blocks import ReturnMarker
from repro.metal.metatypes import ANY_ARGUMENTS, ANY_FN_CALL


class MatchContext:
    """Everything a callout may consult during a match attempt.

    ``point`` is the current program point (``mc_stmt`` in the paper's
    callout library); ``bindings`` maps hole names to matched subtrees;
    ``engine`` exposes the analysis state (may be None in unit tests).
    """

    def __init__(self, point, bindings=None, engine=None, end_of_path=False):
        self.point = point
        self.bindings = bindings if bindings is not None else {}
        self.engine = engine
        self.end_of_path = end_of_path


class Pattern:
    """Base class; patterns report whether they match at a program point."""

    def match(self, point, bindings, context):
        """Try to match ``point``; extend ``bindings`` in place and return
        True, or leave them unchanged and return False."""
        raise NotImplementedError

    def mentions_end_of_path(self):
        return False

    def anchors(self):
        """The callee names every match must call: a frozenset such
        that each point this pattern matches contains a direct call to
        one of them, or None when no such set is known (docs/ENGINE.md,
        "Live roots")."""
        return None

    def __and__(self, other):
        return AndPattern(self, other)

    def __or__(self, other):
        return OrPattern(self, other)


class BasePattern(Pattern):
    """A bracketed code fragment compiled to a pattern AST."""

    def __init__(self, pattern_ast, source=None):
        self.pattern_ast = pattern_ast
        self.source = source
        # Hole-free patterns cannot extend bindings, so matching them
        # needs no trial-copy/commit dance (precomputed once: the
        # pattern AST is immutable after construction).
        self.has_holes = pattern_ast is not None and any(
            isinstance(node, ast.Hole) for node in pattern_ast.walk()
        )

    def match(self, point, bindings, context):
        if not self.has_holes:
            return _unify(self.pattern_ast, point, bindings)
        trial = dict(bindings)
        if _unify(self.pattern_ast, point, trial):
            bindings.clear()
            bindings.update(trial)
            return True
        return False

    def anchors(self):
        # Every non-hole node of the pattern must match, so any one call
        # with a named callee anchors it.
        if self.pattern_ast is None:
            return None
        for node in self.pattern_ast.walk():
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Ident):
                return frozenset((node.func.name,))
        return None

    def __repr__(self):
        return "BasePattern(%r)" % (self.source or self.pattern_ast)


class AndPattern(Pattern):
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def match(self, point, bindings, context):
        trial = dict(bindings)
        if self.left.match(point, trial, context):
            if self.right.match(point, trial, context):
                bindings.clear()
                bindings.update(trial)
                return True
        return False

    def mentions_end_of_path(self):
        return self.left.mentions_end_of_path() or self.right.mentions_end_of_path()

    def anchors(self):
        left = self.left.anchors()
        return left if left is not None else self.right.anchors()

    def __repr__(self):
        return "(%r && %r)" % (self.left, self.right)


class OrPattern(Pattern):
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def match(self, point, bindings, context):
        trial = dict(bindings)
        if self.left.match(point, trial, context):
            bindings.clear()
            bindings.update(trial)
            return True
        trial = dict(bindings)
        if self.right.match(point, trial, context):
            bindings.clear()
            bindings.update(trial)
            return True
        return False

    def mentions_end_of_path(self):
        return self.left.mentions_end_of_path() or self.right.mentions_end_of_path()

    def anchors(self):
        left = self.left.anchors()
        right = self.right.anchors()
        if left is None or right is None:
            return None
        return left | right

    def __repr__(self):
        return "(%r || %r)" % (self.left, self.right)


class NotPattern(Pattern):
    """Negation; provided for Python-API checkers (metal composes callouts
    for this, but the convenience costs nothing)."""

    def __init__(self, inner):
        self.inner = inner

    def match(self, point, bindings, context):
        trial = dict(bindings)
        return not self.inner.match(point, trial, context)

    def __repr__(self):
        return "!(%r)" % (self.inner,)


class Callout(Pattern):
    """A boolean escape ``${...}``.

    ``fn(context)`` returns truth; used alone it can refer only to the
    current point and global state; as a conjunct it sees the hole bindings
    of its siblings (§4).
    """

    def __init__(self, fn, source=None):
        self.fn = fn
        self.source = source

    def match(self, point, bindings, context):
        local = MatchContext(point, bindings, context.engine if context else None,
                             context.end_of_path if context else False)
        return bool(self.fn(local))

    def __repr__(self):
        return "${%s}" % (self.source or self.fn)


#: The degenerate callouts: ``${0}`` matches nothing, ``${1}`` everything.
MATCH_NOTHING = Callout(lambda context: False, "0")
MATCH_EVERYTHING = Callout(lambda context: True, "1")


class EndOfPath(Pattern):
    """``$end_of_path$``: true when an instance permanently leaves scope or
    the program terminates (§3.2)."""

    def match(self, point, bindings, context):
        return bool(context is not None and context.end_of_path)

    def mentions_end_of_path(self):
        return True

    def __repr__(self):
        return "$end_of_path$"


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


def _unify(pattern, node, bindings):
    """Match a pattern AST against a candidate AST, growing ``bindings``."""
    if isinstance(pattern, ast.Hole):
        return _unify_hole(pattern, node, bindings)

    # A pattern "return v;" (a Stmt) should match the engine's ReturnMarker.
    if isinstance(pattern, ast.Return):
        if isinstance(node, ReturnMarker):
            if pattern.expr is None:
                return node.expr is None
            return node.expr is not None and _unify(pattern.expr, node.expr, bindings)
        return False

    if isinstance(node, ReturnMarker):
        return False

    if type(pattern) is not type(node):
        return False

    if isinstance(pattern, ast.Ident):
        return pattern.name == node.name
    if isinstance(pattern, (ast.IntLit, ast.CharLit)):
        return pattern.value == node.value
    if isinstance(pattern, ast.FloatLit):
        return pattern.value == node.value
    if isinstance(pattern, ast.StringLit):
        return pattern.value == node.value
    if isinstance(pattern, ast.Unary):
        return (
            pattern.op == node.op
            and pattern.postfix == node.postfix
            and _unify(pattern.operand, node.operand, bindings)
        )
    if isinstance(pattern, ast.Binary):
        return (
            pattern.op == node.op
            and _unify(pattern.left, node.left, bindings)
            and _unify(pattern.right, node.right, bindings)
        )
    if isinstance(pattern, ast.Assign):
        return (
            pattern.op == node.op
            and _unify(pattern.target, node.target, bindings)
            and _unify(pattern.value, node.value, bindings)
        )
    if isinstance(pattern, ast.Conditional):
        return (
            _unify(pattern.cond, node.cond, bindings)
            and _unify(pattern.then, node.then, bindings)
            and _unify(pattern.otherwise, node.otherwise, bindings)
        )
    if isinstance(pattern, ast.Call):
        return _unify_call(pattern, node, bindings)
    if isinstance(pattern, ast.Member):
        return (
            pattern.name == node.name
            and pattern.arrow == node.arrow
            and _unify(pattern.obj, node.obj, bindings)
        )
    if isinstance(pattern, ast.Index):
        return _unify(pattern.array, node.array, bindings) and _unify(
            pattern.index, node.index, bindings
        )
    if isinstance(pattern, ast.Cast):
        return pattern.to_type == node.to_type and _unify(
            pattern.operand, node.operand, bindings
        )
    if isinstance(pattern, ast.SizeofExpr):
        return _unify(pattern.operand, node.operand, bindings)
    if isinstance(pattern, ast.SizeofType):
        return pattern.of_type == node.of_type
    if isinstance(pattern, ast.Comma):
        return _unify(pattern.left, node.left, bindings) and _unify(
            pattern.right, node.right, bindings
        )
    if isinstance(pattern, ast.InitList):
        if len(pattern.items) != len(node.items):
            return False
        return all(_unify(p, n, bindings) for p, n in zip(pattern.items, node.items))
    return False


def _unify_hole(hole, node, bindings):
    if isinstance(node, ReturnMarker):
        return False
    metatype = hole.metatype
    if metatype is ANY_FN_CALL and not isinstance(node, ast.Call):
        # In callee position _unify_call binds the callee; a standalone
        # any_fn_call hole must see a Call node.
        if not isinstance(node, ast.Expr):
            return False
    if not metatype.matches(node):
        return False
    previous = bindings.get(hole.name)
    if previous is not None:
        return ast.structurally_equal(previous, node)
    bindings[hole.name] = node
    return True


def _unify_call(pattern, node, bindings):
    # Callee: an any_fn_call hole in function position binds the callee
    # expression; otherwise unify structurally.
    func_pattern = pattern.func
    if isinstance(func_pattern, ast.Hole) and func_pattern.metatype is ANY_FN_CALL:
        previous = bindings.get(func_pattern.name)
        if previous is not None and not ast.structurally_equal(previous, node.func):
            return False
        bindings[func_pattern.name] = node.func
    elif not _unify(func_pattern, node.func, bindings):
        return False

    # Arguments: a single any_arguments hole swallows the whole list.
    if len(pattern.args) == 1 and isinstance(pattern.args[0], ast.Hole) and (
        pattern.args[0].metatype is ANY_ARGUMENTS
    ):
        hole = pattern.args[0]
        previous = bindings.get(hole.name)
        if previous is not None:
            if len(previous) != len(node.args):
                return False
            return all(
                ast.structurally_equal(p, n) for p, n in zip(previous, node.args)
            )
        bindings[hole.name] = list(node.args)
        return True
    if len(pattern.args) != len(node.args):
        return False
    return all(_unify(p, n, bindings) for p, n in zip(pattern.args, node.args))


# ---------------------------------------------------------------------------
# Pattern compilation
# ---------------------------------------------------------------------------


def compile_pattern(source, hole_types, typedefs=None):
    """Compile one base pattern's *body* (the text between the braces).

    Tries the expression grammar first, then the statement grammar, so that
    ``kfree(v)`` and ``return v;`` both work.
    """
    try:
        parser = Parser(source, "<pattern>", typedefs=typedefs, hole_types=hole_types)
        expr = parser.parse_expression()
        parser.accept_punct(";")
        if parser.at_eof():
            return BasePattern(expr, source)
    except ParseError:
        pass
    parser = Parser(source, "<pattern>", typedefs=typedefs, hole_types=hole_types)
    stmt = parser.parse_statement()
    if not parser.at_eof():
        raise ParseError("pattern does not parse as one expression or statement: %r" % source)
    if isinstance(stmt, ast.ExprStmt):
        return BasePattern(stmt.expr, source)
    return BasePattern(stmt, source)


def match(pattern, point, context=None):
    """Convenience wrapper: match and return the bindings dict or None."""
    bindings = {}
    ctx = context or MatchContext(point)
    if pattern.match(point, bindings, ctx):
        return bindings
    return None
