"""Severity stratification and grouping (§9).

"We try to approximate the ideal ranking by first stratifying errors based
on their severity, then sorting within each class ..."

"Errors annotated with SECURITY are ranked highest, those annotated with
ERROR are ranked next, and those annotated with MINOR are ranked last."

"We also group all errors that are computed from a common analysis fact
into the same class.  For example, all use-after-free errors that involve
the same freeing function are placed in the same class.  Such grouping
makes it easy to suppress them all if the analysis is wrong."
"""

from repro.reports.model import SEVERITY_ORDER
from repro.ranking.generic import generic_sort_key

#: Error kinds implementers "almost always fix first": hard to diagnose
#: with testing (§9).  Lower = more severe.
HARD_TO_TEST = ("use-after-free", "missing-unlock", "security-hole")


def severity_class(report):
    """0 for SECURITY, 1 for ERROR, 2 unannotated, 3 for MINOR."""
    return SEVERITY_ORDER.get(report.severity, 2)


def stratify(reports):
    """Order reports severity-class-first, generic criteria within each.

    Returns the flat ranked list; use :func:`group_by_rule` for the
    common-analysis-fact view.
    """
    return sorted(reports, key=lambda r: (severity_class(r),) + generic_sort_key(r))


def group_by_rule(reports):
    """Group errors computed from a common analysis fact (their rule_id)."""
    groups = {}
    for report in reports:
        groups.setdefault(report.rule_id, []).append(report)
    return groups


def suppress_rule(reports, rule_id):
    """Drop a whole group at once ("easy to suppress them all if the
    analysis is wrong").  One-shot wrapper over the triage predicate
    (:mod:`repro.reports.triage`), which is where persistent rule
    suppressions live."""
    from repro.reports.triage import TriageEntry, TriageStore

    return TriageStore([TriageEntry("rule", rule_id)]).filter(reports)
