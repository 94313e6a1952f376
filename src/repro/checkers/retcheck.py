"""Statistical return-value checking ("bugs as deviant behavior", the
second inference family of [10]).

Nobody annotates which functions' return values must be checked; the tool
counts, per callee, how often call results are *used* (branched on,
assigned, returned, part of an expression) versus discarded, z-ranks the
"must check" rules, and reports the deviant call sites of high-confidence
rules.
"""

from repro.cfront import astnodes as ast
from repro.ranking.statistical import rule_z_score


class CallSiteUse:
    """One call site and whether its result is consumed."""

    def __init__(self, callee, location, function, checked):
        self.callee = callee
        self.location = location
        self.function = function
        self.checked = checked

    def __repr__(self):
        return "<call %s at %s:%s %s>" % (
            self.callee,
            self.location.filename,
            self.location.line,
            "checked" if self.checked else "IGNORED",
        )


class ReturnCheckRule:
    """One inferred "callers must check fn()" rule."""

    def __init__(self, callee, checked, ignored, ignored_sites):
        self.callee = callee
        self.checked = checked
        self.ignored = ignored
        self.ignored_sites = ignored_sites

    @property
    def z_score(self):
        return rule_z_score(self.checked, self.ignored)

    def __repr__(self):
        return "<must-check %s e=%d c=%d z=%.2f>" % (
            self.callee, self.checked, self.ignored, self.z_score,
        )


def collect_call_uses(callgraph):
    """Classify every direct call site as result-checked or ignored.

    A result is "checked" unless the call is the whole expression
    statement (its value evaporates).
    """
    uses = []
    for name in sorted(callgraph.functions):
        decl = callgraph.functions[name]
        for node, consumed in _walk_with_context(decl.body):
            callee = node.callee_name()
            if callee is None:
                continue
            uses.append(CallSiteUse(callee, node.location, name, consumed))
    return uses


def _walk_with_context(body):
    """Yield (Call node, result_consumed) for every call in a function."""
    out = []

    def visit(node, consumed):
        if isinstance(node, ast.Call):
            out.append((node, consumed))
            for arg in node.args:
                visit(arg, True)
            visit(node.func, True)
            return
        if isinstance(node, ast.ExprStmt):
            visit(node.expr, False)
            return
        if isinstance(node, ast.Comma):
            visit(node.left, False)
            visit(node.right, consumed)
            return
        for child in node.children():
            visit(child, True)

    visit(body, False)
    return out


def infer_must_check_rules(callgraph, min_checked=3):
    """Infer which functions' results must be checked; strongest first."""
    checked = {}
    ignored = {}
    ignored_sites = {}
    for use in collect_call_uses(callgraph):
        if use.checked:
            checked[use.callee] = checked.get(use.callee, 0) + 1
        else:
            ignored[use.callee] = ignored.get(use.callee, 0) + 1
            ignored_sites.setdefault(use.callee, []).append(use)
    rules = []
    for callee in set(checked) | set(ignored):
        n_checked = checked.get(callee, 0)
        n_ignored = ignored.get(callee, 0)
        if n_checked < min_checked:
            continue
        rules.append(
            ReturnCheckRule(
                callee, n_checked, n_ignored, ignored_sites.get(callee, [])
            )
        )
    rules.sort(key=lambda r: (-r.z_score, r.callee))
    return rules


def report_deviant_sites(callgraph, min_checked=3, min_z=1.0):
    """The user-facing pass: :class:`Report` findings for ignored
    results of must-check functions."""
    from repro.reports.model import Report

    reports = []
    for rule in infer_must_check_rules(callgraph, min_checked):
        if rule.z_score < min_z or not rule.ignored_sites:
            continue
        for site in rule.ignored_sites:
            reports.append(
                Report(
                    checker="retcheck",
                    message=(
                        "result of %s() ignored (checked at %d other sites, z=%.2f)"
                        % (rule.callee, rule.checked, rule.z_score)
                    ),
                    location=site.location,
                    function=site.function,
                    rule_id=rule.callee,
                )
            )
    return reports
