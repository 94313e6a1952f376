"""Shared artifact-store benchmarks: warm-from-store vs un-shared cold.

Dumped to ``BENCH_store.json``: on a generated multi-module project,
end-to-end wall time for

- client 1, cold with an empty local cache, populating a live remote
  store as it goes (the write-through tax),
- client 2, a *fresh* local cache warm-started entirely from the store
  (every file loads instead of parsing, every root replays),
- an un-shared control: the same cold run with no store at all (what a
  new machine pays without the shared tier).

The shape assertions are the ISSUE acceptance criteria: every run's
ranked report text is byte-identical to a cacheless serial run, and the
second client's warm-from-store time beats the un-shared cold control
(the tripwire -- if sharing warm state stops paying for itself, this
benchmark fails).
"""

import functools
import json
import time

from repro.codegen.project_gen import generate_project
from repro.driver.cli import _build_extensions
from repro.driver.project import Project
from repro.driver.report_server import ReportServer
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.store import LocalStore, RemoteStore
from repro.ranking.severity import stratify

SUMMARY_PATH = "BENCH_store.json"
_summary = {}

CHECKER_NAMES = ("free", "lock")
bench_checkers = functools.partial(_build_extensions, CHECKER_NAMES, ())


def _dump_summary():
    with open(SUMMARY_PATH, "w") as handle:
        json.dump(_summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


def materialize(tmp_path, generated, name):
    root = tmp_path / name
    root.mkdir(exist_ok=True)
    for filename, text in generated.files.items():
        (root / filename).write_text(text)
    return str(root), sorted(
        str(root / filename)
        for filename in generated.files if filename.endswith(".c")
    )


def cold_serial_text(root, paths):
    """The ranked report text of a cacheless, sessionless serial run --
    the byte baseline every store-backed run must reproduce."""
    project = Project(include_paths=[root])
    project.compile_files(paths)
    result = project.run(bench_checkers())
    return "".join(r.format() + "\n" for r in stratify(result.reports))


def timed_client_run(root, paths, cache_dir, store_url=None):
    """One process-fresh client: pass 1 over every file, incremental
    pass 2, manifest store.  Returns (seconds, report_text, stats)."""
    start = time.perf_counter()
    project = Project(
        include_paths=[root], cache_dir=cache_dir, store_url=store_url
    )
    project.compile_files(paths)
    session = IncrementalSession(
        cache_dir,
        session_signature(checker_names=list(CHECKER_NAMES)),
        backend=project.store_backend if store_url else None,
    )
    result = project.run(bench_checkers(), incremental=session)
    elapsed = time.perf_counter() - start
    text = "".join(r.format() + "\n" for r in stratify(result.reports))
    return elapsed, text, project.stats


def test_shared_warm_start_beats_unshared_cold(benchmark, tmp_path):
    generated = generate_project(
        seed=13, n_modules=5, functions_per_module=40, bug_rate=0.1
    )
    root, paths = materialize(tmp_path, generated, "proj")
    baseline = cold_serial_text(root, paths)

    server = ReportServer(
        backend=LocalStore(root=str(tmp_path / "store-root"))
    )
    server.start()
    try:
        populate_s, populate_text, populate_stats = timed_client_run(
            root, paths, str(tmp_path / "c1"), store_url=server.url
        )
        warm_s, warm_text, warm_stats = timed_client_run(
            root, paths, str(tmp_path / "c2"), store_url=server.url
        )
        unshared_s, unshared_text, __ = timed_client_run(
            root, paths, str(tmp_path / "c3")
        )
    finally:
        server.stop()

    byte_identical = (
        populate_text == baseline
        and warm_text == baseline
        and unshared_text == baseline
    )
    assert byte_identical
    assert warm_stats.count("parses") == 0
    assert warm_stats.count("store_degraded") == 0
    assert warm_stats.count("incremental_roots_replayed") > 0

    rows = {
        "total_files": len(paths),
        "cold_populate_store_s": round(populate_s, 4),
        "shared_warm_from_store_s": round(warm_s, 4),
        "unshared_cold_s": round(unshared_s, 4),
        "write_through_tax": round(populate_s / max(unshared_s, 1e-9), 3),
        "warm_speedup_vs_unshared_cold": round(
            unshared_s / max(warm_s, 1e-9), 2
        ),
        "warm_store_round_trips": warm_stats.count("store_round_trips"),
        "warm_store_batch_keys": warm_stats.count("store_batch_keys"),
        "byte_identical": byte_identical,
    }
    print("\nshared store, %d files:" % len(paths))
    print("  cold + populate store  %.3fs" % populate_s)
    print("  un-shared cold         %.3fs" % unshared_s)
    print("  warm from store        %.3fs  (x%.1f vs un-shared cold)"
          % (warm_s, rows["warm_speedup_vs_unshared_cold"]))

    # Acceptance tripwire: a second client warm-starting from a shared
    # store must beat what it would pay cold without the store.
    assert warm_s < unshared_s
    _summary["store"] = rows
    _dump_summary()

    # Microbenchmark: one batched warm get round-trip (8 frames).
    with WarmStoreRig(tmp_path) as rig:
        benchmark(rig.warm_get)


class WarmStoreRig:
    """A tiny self-contained server + client for the pytest-benchmark
    timer: 8 seeded frames fetched in one batched round trip."""

    def __init__(self, tmp_path):
        root = tmp_path / "micro-store"
        root.mkdir(exist_ok=True)
        self.server = ReportServer(backend=LocalStore(root=str(root)))
        self.server.start()
        self.client = RemoteStore(self.server.url)
        self.keys = ["%064x" % n for n in range(8)]
        self.client.put_many(
            "sum", {key: b"frame" * 64 for key in self.keys}
        )

    def warm_get(self):
        frames = self.client.get_many("sum", self.keys)
        assert len(frames) == len(self.keys)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.client.close()
        self.server.stop()
