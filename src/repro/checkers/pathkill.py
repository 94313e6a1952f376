"""The path-kill extension (§3.2, composition).

"One common use of composition is the path-kill extension, which flags
all calls to panic so that subsequent analyses will not report errors on
paths dominated by these calls.  When a subsequent extension sees a
flagged function call, it stops traversing the current path."

Run this extension first; it annotates every call to a terminating
function with ``pathkill`` and kills its own path there too.  The engine
honours the annotation for every later extension run in the same
:class:`repro.engine.Analysis`.

It stays Python: it reports nothing and has no states; it is the
composition layer (an AST annotation the engine itself reads, plus
``stop_path``) that other checkers' traversal depends on, and its
terminator list is a parameter callers vary.
"""

from repro.cfront import astnodes as ast
from repro.metal import ANY_ARGUMENTS, ANY_FN_CALL, Extension
from repro.metal.patterns import AndPattern, Callout

DEFAULT_TERMINATORS = ("panic", "BUG", "do_exit", "die", "assert_fail")


def path_kill_extension(terminators=DEFAULT_TERMINATORS):
    ext = Extension("path_kill")
    ext.decl("fn", ANY_FN_CALL)
    ext.decl("args", ANY_ARGUMENTS)

    terminator_set = frozenset(terminators)

    def is_terminator(context):
        node = context.bindings.get("fn")
        return isinstance(node, ast.Ident) and node.name in terminator_set

    def flag_and_kill(ctx):
        ctx.annotate(ctx.point, "pathkill", True)
        ctx.stop_path()

    pattern = AndPattern(
        ext._compile_pattern_text("{ fn(args) }"),
        Callout(is_terminator, "call to a terminating function"),
    )
    ext.transition("start", pattern, action=flag_and_kill)
    return ext


def error_path_annotator(error_returns=(-1,)):
    """The §9 severity annotator: marks paths that return an error code
    with the ERROR annotation, so composed checkers can rank errors on
    error paths higher ("error paths are less tested").

    Annotates the enclosing return statement's value node; checkers query
    ``ctx.annotation(node, "onpath")``.
    """
    ext = Extension("error_path_annotator")
    codes = set(error_returns)

    def mark(ctx):
        ctx.annotate(ctx.point, "onpath", "ERROR")

    def is_error_return(context):
        point = context.point
        from repro.cfg.blocks import ReturnMarker

        if not isinstance(point, ReturnMarker) or point.expr is None:
            return False
        expr = point.expr
        if isinstance(expr, ast.Unary) and expr.op == "-" and isinstance(
            expr.operand, ast.IntLit
        ):
            return -expr.operand.value in codes
        if isinstance(expr, ast.IntLit):
            return expr.value in codes
        return False

    ext.transition("start", Callout(is_error_return, "returns an error code"),
                   action=mark)
    return ext
