"""Cross-version false-positive suppression (§8, "History").

"A simple alternative is to just remember false positives from past
versions and suppress them in future versions.  We match error reports
across versions by comparing file name, function name, variable names
involved in the analysis, and the actual error itself as stated by the
checker.  These fields are relatively invariant under edits (unlike, for
example, line numbers)."

The matching itself now lives in :mod:`repro.reports.triage` (the one
suppression predicate); this class remains the paper-shaped façade over
a :class:`TriageStore` holding ``history``-kind entries, saved and
loaded in the triage document format.
"""

from repro.reports.triage import TriageStore


class HistoryDatabase:
    """Remembered false positives from earlier versions of a code base."""

    def __init__(self, store=None):
        self.store = store if store is not None else TriageStore()

    def suppress(self, report):
        """Mark a report (inspected and judged a false positive) for
        suppression in future versions."""
        self.store.suppress_history(report.history_key())

    def suppress_key(self, checker, filename, function, variable, message):
        self.store.suppress_history(
            (checker, filename, function, variable, message)
        )

    def is_suppressed(self, report):
        return self.store.is_suppressed(report)

    def filter(self, reports):
        """Drop reports matching a remembered false positive."""
        return self.store.filter(reports)

    def __len__(self):
        return len(self.store)

    # -- persistence ------------------------------------------------------------

    def save(self, path):
        self.store.save(path)

    @classmethod
    def load(cls, path):
        return cls(TriageStore.load(path))
