"""Persistent triage: one predicate, one file format.

Before this module, suppression lived in four places with four
mechanisms: ``engine/history.py`` matched §8 history keys,
``ranking/severity.py`` dropped whole rule groups, ``checkers/free.py``
hand-built state-machine suppression transitions, and ``driver/cli.py``
wired ``--history`` its own way.  Triage consolidates them:

- a :class:`TriageEntry` names *what* is triaged -- by stable report
  **hash** (the precise spelling: survives line drift and unrelated
  edits, see :mod:`repro.reports.hashing`), by **rule** ("easy to
  suppress them all if the analysis is wrong", §9), or by the §8
  **history** key -- plus *why*: a verdict (``false_positive``,
  ``intentional``, ``confirmed``), an optional severity override, and
  provenance (author, reason, creation time);
- :meth:`TriageStore.match` is the one predicate every consumer calls,
  and a §8 history file is a triage file (``xgcc --triage``);
- one JSON file format (``save``/``load``) and one backend document
  (``save_backend``/``load_backend``: the reserved ``triage`` key in
  the store's ``run`` tier), so offline ``--diff``, the daemon, and the
  HTTP report server all read the same state through ``RemoteStore``.

The free checker's §8 state-machine suppressions are metal rules of
their own (``checkers/metal/free_suppressed.metal``).
"""

import getpass
import json
import os
import time

#: Verdicts that drop a report from output.  ``confirmed`` keeps the
#: report (it exists so a severity override can ride on a true positive).
SUPPRESSING_VERDICTS = ("false_positive", "intentional")

ALL_VERDICTS = SUPPRESSING_VERDICTS + ("confirmed",)

#: Triage-document shape version.
TRIAGE_SCHEMA = 1

#: The reserved key the triage document lives under in the store's
#: ``run`` tier (run ids are ``r``-prefixed, so the two never collide).
TRIAGE_KEY = "triage"
TRIAGE_TIER = "run"


class TriageError(Exception):
    """A malformed triage entry or document."""


class TriageEntry:
    """One triage decision with provenance."""

    KINDS = ("hash", "rule", "history")

    def __init__(self, kind, key, verdict="false_positive", severity=None,
                 reason=None, author=None, created=None):
        if kind not in self.KINDS:
            raise TriageError("unknown triage kind: %r" % (kind,))
        if verdict not in ALL_VERDICTS:
            raise TriageError("unknown triage verdict: %r" % (verdict,))
        if kind == "history":
            key = tuple(key)
            if len(key) != 5:
                raise TriageError(
                    "history keys are (checker, file, function, variable, "
                    "message); got %r" % (key,)
                )
        self.kind = kind
        self.key = key
        self.verdict = verdict
        #: Optional severity override applied to matching reports that
        #: stay in the output (e.g. demote a noisy rule to MINOR).
        self.severity = severity
        self.reason = reason
        self.author = author
        self.created = created

    @property
    def suppresses(self):
        return self.verdict in SUPPRESSING_VERDICTS

    def matches(self, report):
        """Whether this entry names ``report``."""
        if self.kind == "hash":
            return report.report_hash == self.key
        if self.kind == "rule":
            return report.rule_id == self.key
        return report.history_key() == self.key

    def matches_dict(self, doc):
        """The same predicate over a serialized report document."""
        if self.kind == "hash":
            return doc.get("hash") == self.key
        if self.kind == "rule":
            return doc.get("rule_id") == self.key
        location = doc.get("location") or {}
        history_key = (
            doc.get("checker"),
            location.get("file"),
            doc.get("function"),
            doc.get("variable"),
            doc.get("message"),
        )
        return history_key == self.key

    def identity(self):
        """The dedup key: re-adding the same decision replaces it."""
        return (self.kind, self.key)

    def to_dict(self):
        return {
            "kind": self.kind,
            "key": list(self.key) if self.kind == "history" else self.key,
            "verdict": self.verdict,
            "severity": self.severity,
            "reason": self.reason,
            "author": self.author,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, doc):
        try:
            return cls(
                kind=doc["kind"],
                key=doc["key"],
                verdict=doc.get("verdict", "false_positive"),
                severity=doc.get("severity"),
                reason=doc.get("reason"),
                author=doc.get("author"),
                created=doc.get("created"),
            )
        except KeyError as err:
            raise TriageError("triage entry missing field: %s" % err)

    def __repr__(self):
        return "<triage %s %r %s>" % (self.kind, self.key, self.verdict)


def _default_author():
    try:
        return getpass.getuser()
    except Exception:
        return os.environ.get("USER") or "unknown"


class TriageStore:
    """All triage decisions for one tree; the one suppression predicate."""

    def __init__(self, entries=None):
        self._entries = {}
        for entry in entries or ():
            self.add(entry)

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    @property
    def entries(self):
        return list(self._entries.values())

    # -- recording decisions -------------------------------------------------

    def add(self, entry):
        """Record a decision; a later decision about the same target
        replaces the earlier one."""
        self._entries[entry.identity()] = entry
        return entry

    def _make(self, kind, key, **fields):
        fields.setdefault("author", _default_author())
        if fields.get("created") is None:
            fields["created"] = time.time()
        return self.add(TriageEntry(kind, key, **fields))

    def suppress_hash(self, report_hash, **fields):
        """Triage one precise report by stable hash."""
        return self._make("hash", report_hash, **fields)

    def suppress_rule(self, rule_id, **fields):
        """Triage a whole rule group (§9: "suppress them all if the
        analysis is wrong")."""
        return self._make("rule", rule_id, **fields)

    def suppress_history(self, key, **fields):
        """Triage by the §8 history key (checker, file, function,
        variable, message)."""
        return self._make("history", tuple(key), **fields)

    # -- the predicate -------------------------------------------------------

    def match(self, report):
        """The matching entry for ``report``, or None.  Precision wins:
        hash entries beat rule entries beat history entries."""
        best = None
        for entry in self._entries.values():
            if entry.matches(report):
                if entry.kind == "hash":
                    return entry
                if best is None or self.KIND_RANK[entry.kind] < \
                        self.KIND_RANK[best.kind]:
                    best = entry
        return best

    KIND_RANK = {"hash": 0, "rule": 1, "history": 2}

    def match_dict(self, doc):
        best = None
        for entry in self._entries.values():
            if entry.matches_dict(doc):
                if entry.kind == "hash":
                    return entry
                if best is None or self.KIND_RANK[entry.kind] < \
                        self.KIND_RANK[best.kind]:
                    best = entry
        return best

    def is_suppressed(self, report):
        entry = self.match(report)
        return entry is not None and entry.suppresses

    def matches_dict(self, doc):
        """Whether a serialized report document is suppressed."""
        entry = self.match_dict(doc)
        return entry is not None and entry.suppresses

    def apply(self, reports, stats=None):
        """Partition ``reports`` into (kept, suppressed).

        Kept reports that matched a non-suppressing entry get the
        entry's severity override applied and the decision recorded in
        ``report.annotations["triage"]``; suppressed ones are returned
        (annotated) for ``--show-suppressed``-style consumers.
        """
        kept, suppressed = [], []
        for report in reports:
            entry = self.match(report)
            if entry is None:
                kept.append(report)
                continue
            report.annotations["triage"] = entry.to_dict()
            if entry.severity is not None:
                report.severity = entry.severity
            if entry.suppresses:
                suppressed.append(report)
                if stats is not None:
                    stats.add("triage_suppressed")
            else:
                kept.append(report)
                if stats is not None:
                    stats.add("triage_annotated")
        return kept, suppressed

    def filter(self, reports):
        """Just the kept reports (HistoryDatabase.filter's shape)."""
        return self.apply(reports)[0]

    # -- one file format -----------------------------------------------------

    def to_doc(self):
        entries = sorted(
            (entry.to_dict() for entry in self._entries.values()),
            key=lambda doc: (doc["kind"], repr(doc["key"])),
        )
        return {"triage_schema": TRIAGE_SCHEMA, "entries": entries}

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict):
            raise TriageError("triage document is not an object")
        return cls(
            TriageEntry.from_dict(entry)
            for entry in doc.get("entries") or ()
        )

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_doc(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_doc(json.load(handle))

    @classmethod
    def load_path(cls, path):
        """``load`` that treats a missing file as an empty store."""
        if path and os.path.exists(path):
            return cls.load(path)
        return cls()

    # -- backend persistence -------------------------------------------------

    def save_backend(self, backend):
        """Persist through a store backend (shared via RemoteStore)."""
        payload = json.dumps(self.to_doc(), sort_keys=True).encode("utf-8")
        backend.put_many(TRIAGE_TIER, {TRIAGE_KEY: payload})

    @classmethod
    def load_backend(cls, backend):
        """The shared triage state, or an empty store when none exists."""
        frames = backend.get_many(TRIAGE_TIER, [TRIAGE_KEY])
        data = frames.get(TRIAGE_KEY)
        if data is None:
            return cls()
        try:
            return cls.from_doc(json.loads(data.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as err:
            raise TriageError("undecodable shared triage document: %s" % err)

    def merge(self, other):
        """Fold another store's entries in (other wins on conflicts)."""
        for entry in other:
            self.add(entry)
        return self
