"""The callout/action helper library (§4).

"xgcc provides an extensive library of functions useful as callouts."
These helpers are available both to Python-API checkers and, by name, to
textual metal callouts (``${ mc_is_call_to(fn, "gets") }``) and C code
actions (``err("using %s after free!", mc_identifier(v))``).  Every
registered state-machine checker's callouts are compositions of these.

Functions marked with :func:`context_function` receive the match/action
context as an implicit first argument when invoked from textual metal.
"""

from repro.cfront import astnodes as ast
from repro.cfront.unparse import unparse


def context_function(fn):
    """Mark a library function as needing the context as first argument."""
    fn._needs_context = True
    return fn


def mc_identifier(node):
    """The source text of the expression a hole matched (for messages)."""
    if node is None:
        return "<none>"
    if isinstance(node, list):
        return ", ".join(unparse(n) for n in node)
    return unparse(node)


def mc_is_call_to(node, name):
    """True if ``node`` is a call to ``name`` or the callee named ``name``.

    Accepts either a whole :class:`Call` (an ``any_fn_call`` hole matched
    standalone) or a callee expression (the hole was in callee position).
    """
    if isinstance(node, ast.Call):
        return node.callee_name() == name
    if isinstance(node, ast.Ident):
        return node.name == name
    return False


def mc_callee_name(node):
    """The called function's name ('' when indirect)."""
    if isinstance(node, ast.Call):
        return node.callee_name() or ""
    if isinstance(node, ast.Ident):
        return node.name
    return ""


def mc_is_ident(node):
    return isinstance(node, ast.Ident)


def mc_name(node):
    if isinstance(node, ast.Ident):
        return node.name
    return ""


def mc_is_constant(node):
    return isinstance(node, (ast.IntLit, ast.CharLit, ast.FloatLit, ast.StringLit))


def mc_constant_value(node):
    if isinstance(node, (ast.IntLit, ast.CharLit, ast.FloatLit, ast.StringLit)):
        return node.value
    return None


def mc_is_null(node):
    """True for the literal null pointer: ``0`` or ``(T *)0``."""
    while isinstance(node, ast.Cast):
        node = node.operand
    return isinstance(node, ast.IntLit) and node.value == 0


def mc_num_args(node):
    if isinstance(node, ast.Call):
        return len(node.args)
    if isinstance(node, list):
        return len(node)
    return 0


def mc_arg(node, index):
    """The index'th argument of a call (or of an any_arguments binding)."""
    args = node.args if isinstance(node, ast.Call) else node
    if isinstance(args, list) and 0 <= index < len(args):
        return args[index]
    return None


def mc_contains(node, name):
    """True if identifier ``name`` occurs anywhere in ``node``."""
    if node is None:
        return False
    if isinstance(node, list):
        return any(mc_contains(item, name) for item in node)
    return ast.contains_identifier(node, name)


def mc_line(node):
    if node is None:
        return 0
    return node.location.line


@context_function
def mc_stmt(context):
    """The current program point (§4: 'the current program point,
    mc stmt')."""
    return context.point


@context_function
def mc_in_function(context, name):
    """True when the analysis is currently inside function ``name``."""
    engine = getattr(context, "engine", None)
    if engine is None:
        return False
    return engine.current_function_name() == name


@context_function
def mc_is_branch(context, node=None):
    """True when the (given or current) point is a branch condition --
    required for path-specific transitions that trigger on plain uses
    (e.g. the null checker's ``if (p)``)."""
    engine = getattr(context, "engine", None)
    if engine is None:
        return False
    return engine.point_is_branch_condition(node if node is not None else context.point)


def mc_is_deref_of(point, obj):
    """True if ``point`` dereferences ``obj``: ``*obj``, ``obj->f``, or
    ``obj[i]``."""
    if obj is None:
        return False
    key = ast.structural_key(obj)
    if isinstance(point, ast.Unary) and point.op == "*" and not point.postfix:
        return ast.structural_key(point.operand) == key
    if isinstance(point, ast.Member) and point.arrow:
        return ast.structural_key(point.obj) == key
    if isinstance(point, ast.Index):
        return ast.structural_key(point.array) == key
    return False


def mc_equal(a, b):
    """True if ``a`` and ``b`` are the same expression (structurally: any
    location, any spacing); false when either is missing."""
    if a is None or b is None:
        return False
    return ast.structural_key(a) == ast.structural_key(b)


def mc_mentions(node, obj):
    """True if ``obj`` occurs anywhere in ``node`` (``node`` included)."""
    if not isinstance(node, ast.Node) or obj is None:
        return False
    key = ast.structural_key(obj)
    return any(ast.structural_key(n) == key for n in node.walk())


def mc_passes(point, obj):
    """True if ``point`` is a call that passes ``obj`` as an argument."""
    if not isinstance(point, ast.Call) or obj is None:
        return False
    key = ast.structural_key(obj)
    return any(ast.structural_key(arg) == key for arg in point.args)


def mc_passes_address_of(point, obj):
    """True if ``point`` is a call that passes ``&obj`` as an argument
    (a reinitializer that may redefine ``obj``)."""
    return obj is not None and mc_passes(point, ast.Unary("&", obj))


def mc_is_indexed_by(point, obj):
    """True if ``point`` is an array access ``a[obj]``."""
    return isinstance(point, ast.Index) and mc_equal(point.index, obj)


def mc_is_stored_through(point, obj):
    """True if ``point`` stores ``obj`` through a pointer or into a
    structure or array: ``x->f = obj``, ``*x = obj``, ``a[i] = obj``.
    (A plain ``x = obj`` is the engine's synonym business, §8.)"""
    if not isinstance(point, ast.Assign) or point.op != "=":
        return False
    if obj is None or not mc_equal(point.value, obj):
        return False
    target = point.target
    return isinstance(target, (ast.Member, ast.Index)) or (
        isinstance(target, ast.Unary) and target.op == "*"
    )


#: printf-family functions and the index of their format argument.
PRINTF_FAMILY = {
    "printf": 0,
    "fprintf": 1,
    "sprintf": 1,
    "snprintf": 2,
    "printk": 0,
    "syslog": 1,
}


def mc_format_arg(node):
    """The format-string argument of a printf-family call, or NULL."""
    if not isinstance(node, ast.Call):
        return None
    index = PRINTF_FAMILY.get(node.callee_name())
    if index is None or index >= len(node.args):
        return None
    return node.args[index]


def mc_is_string(node):
    """True for a string literal."""
    return isinstance(node, ast.StringLit)


@context_function
def mc_origin(context):
    """Where the triggering instance's checking began: the site that
    ``count_example`` credits for a followed rule (§9)."""
    instance = getattr(context, "instance", None)
    return instance.origin_location if instance is not None else None


@context_function
def err_rule(context, rule_id, severity, fmt, *args):
    """``err`` for statistical ranking (§9): the report carries
    ``rule_id`` (counted as a violation of it) and ``severity``, one of
    ``SECURITY``, ``ERROR`` or ``MINOR``; ``0`` keeps the checker's own
    severity."""
    return context.err(fmt, *args, rule_id=rule_id, severity=severity or None)


@context_function
def mc_annotation(context, node, key):
    """Read an AST annotation left by an earlier (composed) extension."""
    engine = getattr(context, "engine", None)
    if engine is None:
        return None
    return engine.annotations.get(node, key)


#: Everything textual metal can call by name.
LIBRARY = {
    "mc_identifier": mc_identifier,
    "mc_is_call_to": mc_is_call_to,
    "mc_callee_name": mc_callee_name,
    "mc_is_ident": mc_is_ident,
    "mc_name": mc_name,
    "mc_is_constant": mc_is_constant,
    "mc_constant_value": mc_constant_value,
    "mc_is_null": mc_is_null,
    "mc_num_args": mc_num_args,
    "mc_arg": mc_arg,
    "mc_contains": mc_contains,
    "mc_line": mc_line,
    "mc_is_branch": mc_is_branch,
    "mc_is_deref_of": mc_is_deref_of,
    "mc_stmt": mc_stmt,
    "mc_in_function": mc_in_function,
    "mc_annotation": mc_annotation,
    "mc_equal": mc_equal,
    "mc_mentions": mc_mentions,
    "mc_passes": mc_passes,
    "mc_passes_address_of": mc_passes_address_of,
    "mc_is_indexed_by": mc_is_indexed_by,
    "mc_is_stored_through": mc_is_stored_through,
    "mc_format_arg": mc_format_arg,
    "mc_is_string": mc_is_string,
    "mc_origin": mc_origin,
    "err_rule": err_rule,
}
#: The severities ``err_rule`` and a checker's ``severity`` declaration
#: take, as constants (reports/model.py ranks them).
SEVERITIES = ("SECURITY", "ERROR", "MINOR")
LIBRARY.update((name, name) for name in SEVERITIES)
