"""Stable report hashes.

A report's hash is its cross-run identity: the run-history layer diffs
two runs by hash set-difference, and triage entries keyed by hash must
keep matching after the tree is edited.  So the hash follows the
``annotation_node_key`` discipline from :mod:`repro.engine.deltas` --
name the report *structurally*, never by line number:

- the checker name and message text (messages carry variable names,
  never line numbers);
- the file and owning function (the §8 history fields, "relatively
  invariant under edits");
- the variable involved, the severity, and the rule id;
- the **path shape**: the sequence of error-path event texts since
  tracking began (``kfree(p)``, ``entered state v.freed via ...``) with
  their locations stripped -- the structural fingerprint of *why* the
  error fired.

Two reports inside one function can still collide (the same bug pasted
twice with the same variable produces the same base key), so
:func:`assign_report_hashes` disambiguates duplicates by occurrence
ordinal in the canonical serial report order -- stable under line
drift, since drifting lines never reorders the DFS.

What the recipe deliberately excludes: line/column numbers (pure line
drift must not move hashes) and the function body digest (an edit
inside the function that does not touch the error path must not flip
its reports to new+resolved).
"""

import hashlib

#: Bump when the hash recipe changes; folded into every hash so stored
#: run documents from an older recipe never silently half-match.
HASH_VERSION = 1


def path_shape(report):
    """The structural digest of a report's error path: event texts in
    order, locations stripped."""
    digest = hashlib.sha256()
    for event, __ in report.trace:
        digest.update(str(event).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


def report_base_key(report):
    """The location-free identity tuple the hash is computed from."""
    return (
        HASH_VERSION,
        report.checker,
        report.location.filename,
        report.function or "",
        report.variable or "",
        report.message,
        report.severity or "",
        str(report.rule_id) if report.rule_id is not None else "",
        path_shape(report),
    )


def report_hash(report, occurrence=0):
    """The stable hash for one report (hex, 40 chars).

    ``occurrence`` is the report's ordinal among same-base-key reports
    in the canonical serial order; :func:`assign_report_hashes` computes
    it for a whole run.
    """
    return _key_hash(report_base_key(report), occurrence)


def _key_hash(key, occurrence):
    digest = hashlib.sha256()
    for field in key:
        digest.update(str(field).encode("utf-8"))
        digest.update(b"\x1e")
    digest.update(str(occurrence).encode("utf-8"))
    return digest.hexdigest()[:40]


def assign_report_hashes(reports):
    """Assign ``report.report_hash`` across a run's report set.

    ``reports`` must be in the canonical serial order (the ErrorLog
    order every driver path reproduces byte-identically); duplicate base
    keys get ascending occurrence ordinals in that order.  Re-assigning
    is idempotent.  Returns the reports for chaining.
    """
    seen = {}
    for report in reports:
        key = report_base_key(report)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        report.report_hash = _key_hash(key, occurrence)
    return reports
