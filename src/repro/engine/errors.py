"""The engine-side report log.

The report model itself lives in :mod:`repro.reports.model`; this module
owns :class:`ErrorLog` -- the engine-side collector whose serial order
is the canonical report order every driver path reproduces
byte-identically (and which stable report hashes take their occurrence
ordinals from, :mod:`repro.reports.hashing`).
"""


class ErrorLog:
    """Collects reports, deduplicating path-revisit duplicates, and keeps
    the example/counterexample counters statistical ranking uses (§9)."""

    def __init__(self):
        self.reports = []
        self._seen = set()
        # rule_id -> set of example sites / counterexample sites.
        self.examples = {}
        self.counterexamples = {}
        self._scopes = []

    def push_scope(self):
        """Open a root-local capture scope (incremental artifact capture).

        Deduplication and example/counterexample accounting restart from
        empty, so everything recorded until :meth:`pop_scope` is exactly
        one root's *independent* contribution -- reports another root
        already produced are recorded again rather than suppressed.  The
        final log is rebuilt by replaying the per-root contributions in
        serial order through a fresh log, which re-applies global
        deduplication at exactly the points a plain serial run would.
        """
        self._scopes.append((self._seen, self.examples, self.counterexamples))
        self._seen = set()
        self.examples = {}
        self.counterexamples = {}

    def pop_scope(self):
        """Close the innermost scope; returns ``(examples_delta,
        counterexamples_delta)`` and folds them back into the outer
        accounting (so whole-log totals stay correct)."""
        examples_delta, counterexamples_delta = self.examples, self.counterexamples
        self._seen, self.examples, self.counterexamples = self._scopes.pop()
        for rule_id, sites in examples_delta.items():
            self.examples.setdefault(rule_id, set()).update(sites)
        for rule_id, sites in counterexamples_delta.items():
            self.counterexamples.setdefault(rule_id, set()).update(sites)
        return examples_delta, counterexamples_delta

    def add(self, report):
        key = report.identity()
        if key in self._seen:
            return None
        self._seen.add(key)
        self.reports.append(report)
        return report

    def count_example(self, rule_id, site):
        """Record one successful check of ``rule_id`` at ``site``."""
        self.examples.setdefault(rule_id, set()).add(_site_key(site))

    def count_violation(self, rule_id, site):
        """Record one violation of ``rule_id`` at ``site``."""
        self.counterexamples.setdefault(rule_id, set()).add(_site_key(site))

    def rule_counts(self, rule_id):
        """(examples, counterexamples) distinct-site counts for a rule."""
        return (
            len(self.examples.get(rule_id, ())),
            len(self.counterexamples.get(rule_id, ())),
        )

    def __len__(self):
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)


def _site_key(site):
    if site is None:
        return None
    if hasattr(site, "filename"):
        return (site.filename, site.line, site.column)
    return site
