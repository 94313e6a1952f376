"""Statistical null-argument checking (a third "bugs as deviant
behavior" family).

Infer, per (function, argument position), how often call sites pass a
non-null expression versus a literal null; positions that are "never
null" elsewhere make a literal-NULL call site a deviant worth reporting,
ranked by the z-statistic.
"""

from repro.cfront import astnodes as ast
from repro.metal.callouts import mc_is_null
from repro.ranking.statistical import rule_z_score


class NullArgRule:
    """One inferred "argument i of fn() must not be NULL" rule."""

    def __init__(self, callee, index, non_null, null_sites):
        self.callee = callee
        self.index = index
        self.non_null = non_null
        self.null_sites = null_sites  # list of (location, function)

    @property
    def violations(self):
        return len(self.null_sites)

    @property
    def z_score(self):
        return rule_z_score(self.non_null, self.violations)

    def __repr__(self):
        return "<nonnull %s arg%d e=%d c=%d z=%.2f>" % (
            self.callee, self.index, self.non_null, self.violations,
            self.z_score,
        )


def collect_argument_uses(callgraph):
    """Yield (callee, arg_index, is_null_literal, is_pointerish, location,
    caller).  ``is_pointerish`` marks non-null arguments whose inferred
    type is a pointer -- the evidence that the *position* is a pointer
    position, so that a literal ``0`` there means NULL and not the
    integer zero."""
    out = []
    for name in sorted(callgraph.functions):
        decl = callgraph.functions[name]
        for node in decl.body.walk():
            if not isinstance(node, ast.Call):
                continue
            callee = node.callee_name()
            if callee is None:
                continue
            for index, arg in enumerate(node.args):
                ctype = arg.ctype
                pointerish = bool(
                    ctype is not None and ctype.resolve().is_pointer()
                )
                out.append(
                    (callee, index, mc_is_null(arg), pointerish,
                     arg.location, name)
                )
    return out


def infer_nonnull_rules(callgraph, min_non_null=3):
    """Infer must-not-be-NULL argument positions, strongest rules first.

    A position only defines a rule when the *majority* of its non-null
    uses are pointer-typed -- otherwise a literal 0 is just the integer.
    """
    non_null = {}
    pointerish_count = {}
    null_sites = {}
    for callee, index, is_null, pointerish, location, caller in (
        collect_argument_uses(callgraph)
    ):
        key = (callee, index)
        if is_null:
            null_sites.setdefault(key, []).append((location, caller))
        else:
            non_null[key] = non_null.get(key, 0) + 1
            if pointerish:
                pointerish_count[key] = pointerish_count.get(key, 0) + 1
    rules = []
    for key in set(non_null) | set(null_sites):
        count = non_null.get(key, 0)
        if count < min_non_null:
            continue
        if pointerish_count.get(key, 0) * 2 <= count:
            continue  # not a pointer position
        rules.append(
            NullArgRule(key[0], key[1], count, null_sites.get(key, []))
        )
    rules.sort(key=lambda r: (-r.z_score, r.callee, r.index))
    return rules


def report_null_argument_sites(callgraph, min_non_null=3, min_z=1.0):
    """:class:`Report` findings for NULL passed where it never is."""
    from repro.reports.model import Report

    reports = []
    for rule in infer_nonnull_rules(callgraph, min_non_null):
        if rule.z_score < min_z or not rule.null_sites:
            continue
        for location, caller in rule.null_sites:
            reports.append(
                Report(
                    checker="nullarg",
                    message=(
                        "NULL passed as argument %d of %s() (non-null at %d "
                        "other sites, z=%.2f)"
                        % (rule.index, rule.callee, rule.non_null, rule.z_score)
                    ),
                    location=location,
                    function=caller,
                    rule_id="%s#%d" % (rule.callee, rule.index),
                )
            )
    return reports
