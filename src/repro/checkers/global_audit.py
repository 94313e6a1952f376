"""A §7.1-style global checker: cross-root duplicate audit tags.

Kernel-style code marks security-relevant entry points with
``audit(TAG)`` calls; each integer tag must be claimed by exactly one
function, so the audit log stays attributable.  Verifying that is a
*global* rule: no single root can see the conflict, the checker has to
accumulate first-claimants across every root it visits (metal's global C
variables — ``ctx.globals`` here) and report a duplicate when a later
root re-uses a tag.

That makes it exactly the shape of extension the incremental session
historically refused to cache (it both reads and writes user globals on
every audited root, and its reports depend on serial root order), which
is what the annotation-delta machinery exists for — this checker is the
differential workload for it.

It stays Python while the state-machine checkers are metal text: it
keeps a tag -> first-claimant table (a dict in ``ctx.globals``), and
metal's user globals hold plain values, not tables.
"""

from repro.cfront import astnodes as ast
from repro.metal import ANY_ARGUMENTS, ANY_FN_CALL, Extension
from repro.metal.patterns import AndPattern, Callout

DEFAULT_AUDIT_FUNCTION = "audit"


def audit_checker(audit_function=DEFAULT_AUDIT_FUNCTION):
    """Flag integer audit tags claimed by more than one function.

    First claimant wins (deterministic: serial root order); every later
    claim from a *different* function reports a duplicate.  Repeated
    claims inside one function are fine (loops, branches).
    """
    ext = Extension("audit_tags")
    ext.decl("fn", ANY_FN_CALL)
    ext.decl("args", ANY_ARGUMENTS)

    def is_audit_call(context):
        node = context.bindings.get("fn")
        return isinstance(node, ast.Ident) and node.name == audit_function

    def record_tag(ctx):
        args = ctx.bindings.get("args") or []
        if not args or not isinstance(args[0], ast.IntLit):
            return
        tag = args[0].value
        here = ctx.function
        owners = ctx.globals.get("tag_owners")
        if owners is None:
            owners = {}
            ctx.globals["tag_owners"] = owners
        first = owners.get(tag)
        if first is None:
            owners[tag] = here
        elif first != here:
            ctx.err(
                "audit tag %d already claimed by %s()" % (tag, first),
                severity="ERROR",
                rule_id="audit-tag-%d" % tag,
            )

    pattern = AndPattern(
        ext._compile_pattern_text("{ fn(args) }"),
        Callout(is_audit_call, "call to the audit function"),
    )
    ext.transition("start", pattern, action=record_tag)
    return ext
