"""Driver observability: per-phase timers, counters, and worker tallies.

The two-pass driver (§6) records where wall-clock goes (preprocess /
parse / emit in pass 1, cfg / traverse in pass 2), how the persistent AST
cache behaves (hits vs misses vs fresh parses), and how work spread over
worker processes.  ``xgcc --stats`` prints the summary; ``--stats-json``
dumps it for the benchmarks.

Timer convention: pass-1 phase timers are summed across workers, so on
a multi-core run they exceed the wall-clock ``pass1_wall`` -- they
measure aggregate CPU effort, the wall entries measure elapsed time.  Nested timers are included in their parent:
``lex`` is part of ``preprocess``.
"""

import gc
import json
import time
from contextlib import contextmanager

#: Version of the --stats-json document shape (docs/DRIVER.md, "Stats
#: schema").  Bump whenever a top-level key is added, removed, or changes
#: meaning, so downstream consumers (benchmarks, CI lanes) can detect
#: skew instead of misreading.  3: ``annotation_delta_*`` counters
#: (incremental global checkers), ``manifest_merges``, ``gc_*`` eviction
#: counters, and explicit replayed-vs-analyzed provenance in the engine
#: stats of incremental runs.  4: the daemon counters and timers
#: (``daemon_requests``, ``daemon_analyze_*``, ``daemon_bursts``,
#: ``daemon_*_errors``, ``daemon_analyze`` / ``daemon_fingerprint``
#: phases), the warm-state pin counters (``manifest_pin_hits``,
#: ``summary_memory_hits``, ``units_adopted``), and
#: ``manifest_lock_fallbacks`` (lockfile fallback where ``fcntl`` is
#: unavailable).  5: the compiled-matcher counters in the engine stats
#: (``matcher_table_hits``, ``matcher_miss_memo_hits``, a fallback
#: counter removed in 16, ``matcher_compile_s`` plus per-extension
#: ``matcher_compile_s:<name>`` timers; docs/MATCHER.md).  6: the
#: shared artifact-store counters (``store_round_trips``,
#: ``store_batch_keys``, ``store_cas_conflicts``, ``store_overlay_hits``,
#: ``store_fallbacks``, ``store_degraded``; docs/STORE.md).  7: the
#: structured-report counters (docs/REPORTS.md): run history
#: (``report_runs_recorded``, ``report_run_record_errors``,
#: ``report_json_dumps``), diffing (``diff_queries``), triage
#: (``triage_suppressed``, ``triage_annotated``, ``triage_posts``,
#: ``triage_load_errors``), and the HTTP report server
#: (``report_server_requests``, ``report_server_errors``).  8: the
#: path-feasibility refinement counters (docs/REFINE.md):
#: ``refine_cache_hits`` (verdicts replayed from the store or the
#: daemon's in-memory pin),
#: ``refine_confirmed`` / ``refine_infeasible`` / ``refine_unknown``
#: (per-verdict tallies), ``refine_budget_hits`` (verdicts degraded to
#: unknown by a blown enumeration budget or injected fault), and
#: ``report_run_prune_errors`` (failed ``--prune-runs`` sweeps).  9: the
#: two-level AST-cache counters (docs/DRIVER.md, "The persistent AST
#: cache"): ``ast_fast_hits`` (files served through their dependency
#: record without preprocessing) and ``ast_fast_misses`` (files that
#: preprocessed because the record was missing, stale, or corrupt, or
#: its AST frame was gone), plus the ``source_probe`` timer.  10: the
#: cyclic-collector accounting (docs/DRIVER.md, "The cyclic collector"):
#: ``cyclic_gc_passes`` counts CPython's cyclic garbage-collector passes
#: and the ``cyclic_gc`` timer their wall time, while a CLI run or a
#: daemon analysis is metered (see :meth:`DriverStats.collector_passes`).
#: 11: the summary-pack counters (docs/DRIVER.md, "Tier-2 summary
#: packs"): ``summary_pack_reads`` (packs read from the store) and
#: ``summary_pack_writes`` (packs written); the per-(extension, root)
#: ``summary_*`` counters keep their meaning.  12: the ``lex`` timer
#: (the part of ``preprocess`` spent tokenizing; included in it, not
#: added to it), the ``tokens_lexed`` counter, and ``pass2_wall`` on
#: serial runs too (the time spent in pass 2 proper, wherever it ran).
#: 13: one timer per report-pipeline stage (``history``, ``triage``,
#: ``refine``, ``rank``, ``record``, ``prune``; docs/DRIVER.md, "The
#: report pipeline") on every CLI run and daemon analysis, and
#: ``pass2_tasks`` (the pool tasks components were packed into).
#: 14: the ``render`` and ``report_json`` timers, ``run_wall`` (a
#: one-shot CLI run from its parsed arguments to its stats) with its
#: ``unaccounted`` residual (see :data:`WALL_TIMERS`), and the engine's
#: ``roots_skipped`` counter (docs/ENGINE.md, "Live roots").  15: pass 2
#: is serial, so the pool's counters are removed: ``pass2_`` followed by
#: ``components``, ``tasks``, ``serial_fallback``, ``worker_retries``,
#: ``worker_failures`` or ``inprocess_fallbacks``, and
#: ``annotation_delta_serial_forced``; ``pass2_wall`` now covers an
#: incremental session's own work (fingerprinting, pack reads, merge,
#: persist) as well as its analysis.  16: one matcher, the interpreter
#: behind the dispatch tables, so the engine's count of rules the
#: compiled matcher handed back to the interpreter is removed, and
#: ``matcher_compile_s`` times only the dispatch-table build.  17: a warm
#: run decodes only what it analyzes, so its reads are timed where they
#: happen: ``pass1_wall`` also covers registering each worker result,
#: ``ast_load`` times the unit bodies unpickled from AST frames (inside
#: whichever wall timer asked for them), ``ast_units_loaded`` counts
#: them, and ``summary_read`` times the summary-pack fetches and decodes
#: inside ``pass2_wall``.  18: a §8 history file is passed as
#: ``--triage``, so the ``history`` timer is removed and
#: ``triage_suppressed`` counts history suppressions too.  19: an
#: incremental run has one schedule, so the counter of partial runs
#: redone with delta replay is removed and every incremental run counts
#: ``annotation_delta_rounds``.  20: summaries live only at extended-
#: block heads (docs/ENGINE.md, "Summaries"), and the engine stats count
#: the bookkeeping: ``summary_block_records`` (runs recorded into a
#: head's block summary) and ``relax_blocks`` (heads walked by
#: ``relax``), both deterministic.
SCHEMA_VERSION = 20

#: The wall-clock timers of a one-shot CLI run that never overlap one
#: another: ``unaccounted`` is ``run_wall`` less their sum.  Every other
#: timer nests inside one of them (``preprocess`` in ``pass1_wall``,
#: ``traverse`` in ``pass2_wall``) or is summed across workers.
WALL_TIMERS = (
    "pass1_wall", "callgraph", "pass2_wall", "triage",
    "refine", "rank", "record", "prune", "report_json", "render",
)


class DriverStats:
    """Counters + phase timers + per-worker task counts for one driver run."""

    def __init__(self):
        self.counters = {}
        self.timers = {}  # phase name -> total seconds
        self.workers = {}  # pid -> tasks completed
        #: Structured graceful-degradation records: every recovered
        #: failure (worker crash, evicted cache entry, abandoned root,
        #: skipped unit) leaves one entry here, so --stats-json
        #: enumerates exactly what a run survived.
        self.degradations = []

    # -- counters -----------------------------------------------------------

    def add(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def count(self, name):
        return self.counters.get(name, 0)

    def add_counters(self, counters):
        """Fold a counter dict (a ``backend.gc`` result) in, zeros
        left out."""
        for name, value in counters.items():
            if value:
                self.add(name, value)

    # -- timers -------------------------------------------------------------

    @contextmanager
    def phase(self, name):
        """Time a phase; nests and repeats accumulate."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def add_time(self, name, seconds):
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def account_run(self, seconds):
        """Record a one-shot run's ``run_wall`` and the ``unaccounted``
        part of it that no :data:`WALL_TIMERS` entry covers."""
        self.add_time("run_wall", seconds)
        covered = sum(self.timers.get(name, 0.0) for name in WALL_TIMERS)
        self.add_time("unaccounted", seconds - covered)

    @contextmanager
    def collector_passes(self):
        """Meter CPython's cyclic collector while the block runs: every
        pass adds one ``cyclic_gc_passes`` and its wall time to the
        ``cyclic_gc`` timer, through a :data:`gc.callbacks` hook.

        Both entries exist from the start, so a block that ran no pass
        reads 0 and the hook never inserts a key mid-collection.
        """
        self.add("cyclic_gc_passes", 0)
        self.add_time("cyclic_gc", 0.0)
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(time.perf_counter())
            elif started:
                self.add("cyclic_gc_passes")
                self.add_time("cyclic_gc", time.perf_counter() - started.pop())

        gc.callbacks.append(hook)
        try:
            yield
        finally:
            gc.callbacks.remove(hook)

    def merge_timings(self, timings):
        """Fold a worker's ``{phase: seconds}`` dict into this one."""
        for name, seconds in (timings or {}).items():
            self.add_time(name, seconds)

    # -- workers ------------------------------------------------------------

    def count_worker_task(self, pid, amount=1):
        self.workers[pid] = self.workers.get(pid, 0) + amount

    # -- degradations -------------------------------------------------------

    def record_degradation(self, kind, detail, **extra):
        """Record one survived failure.

        ``kind`` buckets the failure: "worker" (crashed/hung worker
        recovered by retry or in-process fallback), "cache" (corrupt
        entry evicted and re-parsed), "root" (engine abandoned one root),
        "unit" (translation unit skipped under keep_going), "pickle"
        (serial fallback because work would not ship to workers).
        """
        entry = {"kind": kind, "detail": detail}
        entry.update(extra)
        self.degradations.append(entry)
        self.add("degraded_%s" % kind)
        return entry

    def record_engine_degradations(self, degraded):
        """Fold an AnalysisResult's DegradedRoot list into this stats
        object (kind "root"), for --stats / --stats-json surfacing."""
        for entry in degraded or ():
            self.record_degradation(
                "root", entry.describe(), root=entry.root,
                reason=entry.kind, reports_kept=entry.reports_kept,
            )

    # -- output -------------------------------------------------------------

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "timers_s": {
                k: round(self.timers[k], 6) for k in sorted(self.timers)
            },
            "workers": {
                str(pid): self.workers[pid] for pid in sorted(self.workers)
            },
            "degradations": [dict(entry) for entry in self.degradations],
        }

    def dump_json(self, path, extra=None):
        """Write the stats (plus optional extra sections) to ``path``."""
        payload = self.as_dict()
        payload.update(extra or {})
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return payload

    def format_lines(self, prefix="driver."):
        """``--stats`` text form, one ``name = value`` line per entry."""
        lines = []
        for name in sorted(self.counters):
            lines.append("%s%s = %d" % (prefix, name, self.counters[name]))
        for name in sorted(self.timers):
            lines.append("%s%s_s = %.4f" % (prefix, name, self.timers[name]))
        for pid in sorted(self.workers):
            lines.append("%sworker.%s_tasks = %d" % (prefix, pid, self.workers[pid]))
        for index, entry in enumerate(self.degradations):
            lines.append(
                "%sdegraded.%d = %s: %s"
                % (prefix, index, entry["kind"], entry["detail"])
            )
        return lines

    def __repr__(self):
        return "<DriverStats %r>" % (self.as_dict(),)
