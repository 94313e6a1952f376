"""The sleep-under-lock checker (the "block" checker of the OSDI'00
companion paper, referenced by §1's fifty-checker claim).

Kernel rule: functions that may sleep (block) must not be called while a
spinlock is held or interrupts are disabled -- that deadlocks the system.
A global state machine tracks the "atomic context" depth; a callout flags
calls to blocking functions inside it.

This checker demonstrates the §3.2 escape hatch for *global* data: the
nesting depth lives in the extension's path-local storage rather than in
a finite state alphabet.  That is why it stays Python while the other
state-machine checkers are metal text: it keeps a path-local depth on a
global machine, which has no instance to hold a data value, and metal
actions reach only instance data (``get_data``/``set_data``) and user
globals, which persist across paths.
"""

from repro.cfront import astnodes as ast
from repro.metal import ANY_ARGUMENTS, ANY_FN_CALL, ANY_POINTER, Extension
from repro.metal.patterns import AndPattern, Callout

DEFAULT_BLOCKING = (
    "kmalloc_sleep",
    "copy_from_user",
    "copy_to_user",
    "schedule",
    "msleep",
    "mutex_lock",
    "wait_event",
)


def blocking_checker(
    enter_atomic=("spin_lock", "cli"),
    leave_atomic=("spin_unlock", "sti"),
    blocking_functions=DEFAULT_BLOCKING,
):
    ext = Extension("blocking_checker")
    ext.decl("fn", ANY_FN_CALL)
    ext.decl("args", ANY_ARGUMENTS)
    ext.decl("l", ANY_POINTER)
    ext.default_severity = "ERROR"

    blocking = frozenset(blocking_functions)

    def enter(ctx):
        ctx.path_data["atomic_depth"] = ctx.path_data.get("atomic_depth", 0) + 1
        ctx.set_global_state("atomic")

    def leave(ctx):
        depth = max(0, ctx.path_data.get("atomic_depth", 0) - 1)
        ctx.path_data["atomic_depth"] = depth
        if depth == 0:
            ctx.set_global_state("start")

    def is_blocking_call(context):
        node = context.bindings.get("fn")
        return isinstance(node, ast.Ident) and node.name in blocking

    def report(ctx):
        fn = ctx.binding("fn")
        ctx.err(
            "%s may block, but it is called in atomic context (depth %d)!",
            fn.name if isinstance(fn, ast.Ident) else "<indirect>",
            ctx.path_data.get("atomic_depth", 1),
            rule_id="sleep-in-atomic",
        )

    for fn in enter_atomic:
        ext.transition("start", "{ %s(args) }" % fn, to="atomic", action=enter)
        ext.transition("atomic", "{ %s(args) }" % fn, action=enter)
    for fn in leave_atomic:
        ext.transition("atomic", "{ %s(args) }" % fn, action=leave)
        # a stray leave in non-atomic context is the lock checker's job

    blocking_call = AndPattern(
        ext._compile_pattern_text("{ fn(args) }"),
        Callout(is_blocking_call, "callee may block"),
    )
    ext.transition("atomic", blocking_call, action=report)
    return ext
