"""Run history: every analysis run persisted, diffable by hash.

A *run* is the finalized report set of one analysis over one tree,
stored as a JSON document in the artifact store's ``run`` tier (PR-7
backend interface: LocalStore / RemoteStore / TieredStore all serve
it), keyed by a run id.  On top of stored runs:

- ``xgcc --diff BASE HEAD`` and the report server's ``GET /diff``
  compute **new / resolved / unresolved** report sets by stable-hash
  set-difference -- no re-analysis, no text comparison;
- ``GET /runs`` lists stored runs with their report counts;
- triage (:mod:`repro.reports.triage`) marks suppressed hashes, which
  the diff reports in a separate ``suppressed`` bucket instead of
  ``new``.

Run frames live outside the cache GC sweep (history is a record, not a
cache); ``prune`` drops the oldest runs beyond a keep-count when a
deployment wants a bound.
"""

import hashlib
import json
import time

from repro.reports.hashing import assign_report_hashes
from repro.reports.model import Report

#: The artifact-store tier run documents live in (docs/STORE.md).
RUN_TIER = "run"

#: Run-document shape version.
RUN_SCHEMA = 1

#: Run ids get this prefix so non-run keys (the triage document) can
#: share the tier without showing up in run listings.
RUN_ID_PREFIX = "r"


class RunHistoryError(Exception):
    """A run-history operation that could not be served (no backend,
    unknown run id, undecodable stored document)."""


def _new_run_id(payload_digest):
    """A fresh run id: time-ordered prefix + content digest tail, so ids
    sort chronologically and concurrent recorders never collide."""
    stamp = "%016x" % int(time.time() * 1e6)
    return RUN_ID_PREFIX + stamp + payload_digest[:12]


def report_docs(reports):
    """Each report's stored document, in order (hashes are assigned
    first if the engine has not)."""
    if any(report.report_hash is None for report in reports):
        assign_report_hashes(reports)
    return [report.to_dict() for report in reports]


def diff_hash_sets(base_hashes, head_hashes):
    """``(new, resolved, unresolved)`` hash sets between two runs."""
    base, head = set(base_hashes), set(head_hashes)
    return head - base, base - head, head & base


class RunHistory:
    """Stored runs over one artifact-store backend."""

    def __init__(self, backend, stats=None):
        if backend is None:
            raise RunHistoryError(
                "run history needs a store backend (--cache-dir or "
                "--store-url)"
            )
        self.backend = backend
        self.stats = stats

    def _count(self, name, amount=1):
        if self.stats is not None:
            self.stats.add(name, amount)

    # -- recording -----------------------------------------------------------

    def record_run(self, reports, run_id=None, meta=None, docs=None):
        """Persist one run's report set; returns the run id.

        ``reports`` is the canonical serial-order report list; hashes
        are assigned here if the engine has not already.  ``docs`` are
        their documents when the caller built them (:func:`report_docs`)
        to serve as well.  ``meta`` is an arbitrary JSON-able dict
        (checker set, tree name, ranking mode) stored alongside.
        """
        if docs is None:
            docs = report_docs(reports)
        doc = {
            "run_schema": RUN_SCHEMA,
            "timestamp": time.time(),
            "meta": dict(meta or {}),
            "reports": docs,
        }
        if run_id is None:
            # The digest tail only tells concurrent recorders apart: the
            # report hashes and the metadata name the content without a
            # second encoding of the whole document.
            digest = hashlib.sha256(
                json.dumps(doc["meta"], sort_keys=True).encode("utf-8"))
            for report in reports:
                digest.update(report.report_hash.encode("utf-8"))
            run_id = _new_run_id(digest.hexdigest())
        elif not run_id.startswith(RUN_ID_PREFIX):
            raise RunHistoryError(
                "run ids must start with %r (got %r)"
                % (RUN_ID_PREFIX, run_id)
            )
        doc["run_id"] = run_id
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.backend.put_many(RUN_TIER, {run_id: payload})
        self._count("report_runs_recorded")
        return run_id

    # -- reading -------------------------------------------------------------

    def run_ids(self):
        """Stored run ids, oldest first (ids are time-ordered)."""
        entries = self.backend.list_tier(RUN_TIER)
        return sorted(
            key for key in entries if key.startswith(RUN_ID_PREFIX)
        )

    def list_runs(self):
        """``[{run_id, timestamp, report_count, meta}]``, oldest first."""
        out = []
        for run_id in self.run_ids():
            try:
                doc = self.load_run(run_id)
            except RunHistoryError:
                continue  # undecodable stray frame: skip, don't fail the list
            out.append({
                "run_id": run_id,
                "timestamp": doc.get("timestamp"),
                "report_count": len(doc.get("reports") or ()),
                "meta": doc.get("meta") or {},
            })
        return out

    def load_run(self, run_id):
        """The stored run document for ``run_id``."""
        frames = self.backend.get_many(RUN_TIER, [run_id])
        data = frames.get(run_id)
        if data is None:
            raise RunHistoryError("unknown run id: %r" % run_id)
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise RunHistoryError(
                "undecodable run document %r: %s" % (run_id, err)
            )
        if not isinstance(doc, dict):
            raise RunHistoryError("run document %r is not an object" % run_id)
        return doc

    def load_reports(self, run_id):
        """The stored run's reports as :class:`Report` objects."""
        doc = self.load_run(run_id)
        return [Report.from_dict(entry) for entry in doc.get("reports") or ()]

    def latest_run_id(self):
        """The newest stored run id, or None."""
        ids = self.run_ids()
        return ids[-1] if ids else None

    def resolve_run_id(self, token):
        """A user-supplied run token to a stored id: exact ids pass
        through, ``latest``/``HEAD`` picks the newest run, and any
        unambiguous id prefix works.  Blank tokens are rejected: an
        empty prefix would match every stored run and, with exactly one
        run recorded, silently resolve to it."""
        if token is None or not token.strip():
            raise RunHistoryError(
                "blank run token (use 'latest', a run id, or an "
                "unambiguous id prefix)"
            )
        if token in ("latest", "HEAD"):
            run_id = self.latest_run_id()
            if run_id is None:
                raise RunHistoryError("no runs recorded yet")
            return run_id
        ids = self.run_ids()
        if token in ids:
            return token
        matches = [run_id for run_id in ids if run_id.startswith(token)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise RunHistoryError(
                "ambiguous run id prefix %r (%d matches)"
                % (token, len(matches))
            )
        raise RunHistoryError("unknown run id: %r" % token)

    # -- diffing -------------------------------------------------------------

    def diff(self, base_id, head_id, triage=None, head_docs=None):
        """The structured diff between two runs.

        ``head_docs`` substitutes the documents of a live report list
        (the report server's ``head=current``; :func:`report_docs`) for
        a stored head run.  ``triage``
        is an optional :class:`repro.reports.triage.TriageStore`; new
        reports it suppresses land in ``suppressed`` instead of ``new``.

        Returns ``{"base", "head", "new", "resolved", "unresolved",
        "suppressed"}`` with report documents (not bare hashes) in each
        bucket, in their run's canonical order.
        """
        base_label = self.resolve_run_id(base_id)
        base_docs = self.load_run(base_label)["reports"]
        if head_docs is not None:
            head_label = "current"
        else:
            head_label = self.resolve_run_id(head_id)
            head_docs = self.load_run(head_label)["reports"]
        base_hashes = [doc.get("hash") for doc in base_docs]
        head_hashes = [doc.get("hash") for doc in head_docs]
        new, resolved, unresolved = diff_hash_sets(base_hashes, head_hashes)
        suppressed_hashes = set()
        if triage is not None:
            for doc in head_docs:
                if doc.get("hash") in new and triage.matches_dict(doc):
                    suppressed_hashes.add(doc.get("hash"))
            new -= suppressed_hashes
        self._count("diff_queries")
        return {
            "base": base_label,
            "head": head_label,
            "new": [d for d in head_docs if d.get("hash") in new],
            "resolved": [d for d in base_docs if d.get("hash") in resolved],
            "unresolved": [
                d for d in head_docs if d.get("hash") in unresolved
            ],
            "suppressed": [
                d for d in head_docs if d.get("hash") in suppressed_hashes
            ],
        }

    # -- maintenance ---------------------------------------------------------

    def prune(self, keep=100):
        """Drop the oldest runs beyond ``keep``; returns how many were
        deleted.

        ``keep=0`` deletes *every* stored run -- it is the explicit
        empty-the-history bound, not a no-op, so pass it deliberately.
        Negative keeps are rejected.
        """
        if keep < 0:
            raise RunHistoryError("prune keep must be >= 0 (got %d)" % keep)
        ids = self.run_ids()
        stale = ids[:-keep] if keep else ids
        if stale:
            self.backend.delete_many(RUN_TIER, stale)
        return len(stale)

