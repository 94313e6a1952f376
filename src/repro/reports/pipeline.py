"""The one report pipeline: every stage between analysis and output
(docs/REPORTS.md, "The pipeline").

``xgcc`` runs it once per invocation and the daemon once per analysis,
from one :class:`PipelineConfig`, so the daemon's text matches a
one-shot run with the same flags by construction.  A triage source that
cannot be read, a failed record, and a failed prune each degrade the
run; none fails it.
"""

import os
from dataclasses import dataclass
from typing import Optional

from repro.reports.history import RunHistory, report_docs
from repro.reports.triage import TriageError, TriageStore

#: What reading a triage file or document can raise.
_LOAD_ERRORS = (OSError, ValueError, TypeError, TriageError)


@dataclass(frozen=True)
class PipelineConfig:
    """The stages' settings: ``--rank``, ``--refine``, ``--triage``
    (a triage document or a §8 history file) and ``--prune-runs``."""

    rank: str = "severity"
    refine: Optional[str] = None
    triage: Optional[str] = None
    prune_keep: Optional[int] = None


def _quiet(message):
    """The default ``say``: notes reach the stats only."""


def _attempt(action, errors, counter, what, stats, say):
    """``action()``; when it raises one of ``errors``, a degradation and
    None instead."""
    try:
        return action()
    except errors as err:
        detail = "%s: %s" % (what, err)
        if stats is not None:
            stats.add(counter)
            stats.record_degradation("reports", detail)
        say(detail)
        return None


def load_triage(backend=None, path=None, stats=None, say=_quiet):
    """The effective triage state: the store's shared document (when
    there is a ``backend``) with the entries of triage file ``path``
    (when it exists) merged over it.  A source that cannot be read
    counts as empty."""
    sources = []
    if backend is not None:
        sources.append(("shared triage state",
                        lambda: TriageStore.load_backend(backend)))
    if path and os.path.exists(path):
        sources.append((path, lambda: TriageStore.load(path)))
    store = TriageStore()
    for what, load in sources:
        store.merge(_attempt(load, _LOAD_ERRORS, "triage_load_errors",
                             "ignoring %s" % what, stats, say) or ())
    return store


def run_pipeline(reports, config, stats, backend=None, callgraph=None,
                 log=None, meta=None, say=_quiet, refine_pin=None):
    """Run every stage over ``reports``; returns ``(reports, run_id,
    docs)``.

    ``callgraph`` feeds refinement and ``log`` statistical ranking;
    ``refine_pin`` is a long-lived caller's in-memory verdict pin
    (:func:`repro.refine.refine_reports`).  The
    run is recorded only when ``meta`` (its metadata) is given and
    there is a ``backend``; ``run_id`` is None otherwise or when the
    record failed.  ``docs`` are the reports' documents the record stage
    built (:func:`repro.reports.history.report_docs`), None when the run
    was not recorded: a caller that serves or dumps documents reuses
    them.  ``say`` receives one line per note (a recorded run, a prune,
    a degradation).
    """
    # Module attributes, looked up per call: the e2e benchmark's tracer
    # wraps them in place.
    from repro import ranking

    with stats.phase("triage"):
        triage = load_triage(backend, config.triage, stats, say)
        if len(triage):
            reports, __ = triage.apply(reports, stats=stats)
    if config.refine:
        from repro import refine
        from repro.cfg.fingerprint import fingerprint_tables

        with stats.phase("refine"):
            __, fingerprints = fingerprint_tables(callgraph)
            refine.refine_reports(reports, callgraph, stats=stats,
                                  backend=backend, fingerprints=fingerprints,
                                  pin=refine_pin)
    with stats.phase("rank"):
        reports = ranking.rank_reports(reports, config.rank, log)
    with stats.phase("refine"):
        if config.refine:
            reports = refine.apply_refine_mode(reports, config.refine)

    runs = RunHistory(backend, stats=stats) if backend is not None else None
    run_id = docs = None
    with stats.phase("record"):
        if meta is not None and runs is not None:
            docs = report_docs(reports)
            run_id = _attempt(lambda: runs.record_run(reports, meta=meta,
                                                      docs=docs),
                              Exception, "report_run_record_errors",
                              "run not recorded", stats, say)
            if run_id is not None:
                say("recorded run %s" % run_id)
    with stats.phase("prune"):
        if config.prune_keep is not None and runs is not None:
            deleted = _attempt(lambda: runs.prune(keep=config.prune_keep),
                               Exception, "report_run_prune_errors",
                               "runs not pruned", stats, say)
            if deleted:
                say("pruned %d stored run(s)" % deleted)
    return reports, run_id, docs
