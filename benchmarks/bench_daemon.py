"""Analysis-daemon benchmarks: cold start vs warm-edit latency.

Dumped to ``BENCH_daemon.json``: on a generated multi-module project,
end-to-end request latency over the daemon's UNIX socket for

- the cold first ``analyze`` (empty caches: full pass 1 + full pass 2),
- a warm no-edit ``analyze`` (served from the cached response),
- warm ``analyze`` after each of three seeded one-function edit bursts
  (only the edited file reparses, only its cone re-analyzes),

against the *solo* dirty-cone baseline: a fresh ``xgcc --incremental``
style run over the same edited tree (warm AST + summary caches, new
process state), which is what a daemon-less workflow pays per edit.

The shape assertions are the ISSUE acceptance criteria: every
daemon-served report text is byte-identical to a cold serial run over
the same tree, and the warm-edit daemon latency is at or below the
measured solo dirty-cone analysis time.

Every timed section starts from a collected heap (:func:`settle`): the
daemon runs in this process, next to the untimed cold oracle runs, and
without it the full collector pass their garbage makes due lands in
whichever timed section comes next (a ~50 ms pass over the whole test
process, the daemon's or the solo run's, by allocation luck).
"""

import functools
import gc
import json
import statistics
import threading
import time

from repro.codegen.project_gen import apply_function_edits, generate_project
from repro.driver.cli import _build_extensions
from repro.driver.daemon import DaemonClient, XgccDaemon, wait_for_socket
from repro.driver.project import Project
from repro.driver.session import IncrementalSession, session_signature
from repro.ranking.severity import stratify

SUMMARY_PATH = "BENCH_daemon.json"
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
    the byte baseline every daemon answer must reproduce."""
    project = Project(include_paths=[root])
    project.compile_files(paths)
    result = project.run(bench_checkers())
    return "".join(r.format() + "\n" for r in stratify(result.reports))


def settle():
    """Collect the garbage earlier (untimed) work left, so no collector
    pass it is due lands in the timed section that follows."""
    gc.collect()


def timed_solo_edit_run(root, paths, cache_dir):
    """What a daemon-less incremental workflow pays per edit: process-
    fresh project + session over warm caches (pass-1 probe of every
    file, manifest load, dirty-cone pass 2)."""
    settle()
    start = time.perf_counter()
    project = Project(include_paths=[root], cache_dir=cache_dir)
    project.compile_files(paths)
    session = IncrementalSession(
        cache_dir, session_signature(checker_names=list(CHECKER_NAMES))
    )
    project.run(bench_checkers(), incremental=session)
    return time.perf_counter() - start


def timed_request(client, op, **fields):
    settle()
    start = time.perf_counter()
    reply = client.request(op, **fields)
    return time.perf_counter() - start, reply


def test_daemon_cold_start_vs_warm_edit(benchmark, tmp_path):
    generated = generate_project(
        seed=13, n_modules=5, functions_per_module=40, bug_rate=0.1
    )
    root, paths = materialize(tmp_path, generated, "proj")
    cache_dir = str(tmp_path / "cache")
    solo_cache = str(tmp_path / "solo-cache")
    sock = str(tmp_path / "d.sock")

    session = IncrementalSession(
        cache_dir,
        session_signature(checker_names=list(CHECKER_NAMES)),
        pin_warm_state=True,
    )
    daemon = XgccDaemon(
        watch_roots=[root], extension_factory=bench_checkers,
        session=session, socket_path=sock, include_paths=[root],
        cache_dir=cache_dir, poll_interval=30.0,
    )
    thread = threading.Thread(
        target=lambda: daemon.serve_forever(warm_start=False), daemon=True
    )
    thread.start()
    assert wait_for_socket(sock, timeout=60.0)

    try:
        with DaemonClient(sock) as client:
            cold_s, cold = timed_request(client, "analyze")
            assert cold["ok"]
            assert cold["reports"] == cold_serial_text(root, paths)
            warm_s, warm = timed_request(client, "analyze")
            assert warm["served_from"] == "cache"

            # Warm the solo baseline's caches with its own cold run.
            timed_solo_edit_run(root, paths, solo_cache)

            bursts = []
            for seed in (1, 2, 3):
                generated, edits = apply_function_edits(
                    generated, k=1, seed=seed
                )
                root, paths = materialize(tmp_path, generated, "proj")
                edit_s, resp = timed_request(client, "analyze")
                assert resp["ok"]
                assert resp["served_from"] == "analysis"
                assert resp["reports"] == cold_serial_text(root, paths)
                solo_s = timed_solo_edit_run(root, paths, solo_cache)
                bursts.append({
                    "daemon_s": round(edit_s, 4),
                    "daemon_internal_s": resp["latency_s"],
                    "solo_dirty_cone_s": round(solo_s, 4),
                    "files_reparsed": resp["files_reparsed"],
                    "roots_analyzed": resp["roots_analyzed"],
                    "roots_replayed": resp["roots_replayed"],
                    "byte_identical": True,
                })
            client.request("shutdown")
    finally:
        daemon.stop()
        thread.join(timeout=30.0)
    assert not thread.is_alive()

    daemon_med = statistics.median(b["daemon_s"] for b in bursts)
    solo_med = statistics.median(b["solo_dirty_cone_s"] for b in bursts)
    rows = {
        "total_files": len(paths),
        "cold_start_s": round(cold_s, 4),
        "warm_no_edit_s": round(warm_s, 4),
        "warm_edit_bursts": bursts,
        "warm_edit_median_s": round(daemon_med, 4),
        "solo_dirty_cone_median_s": round(solo_med, 4),
        "speedup_vs_cold_start": round(cold_s / max(daemon_med, 1e-9), 2),
        "speedup_vs_solo": round(solo_med / max(daemon_med, 1e-9), 2),
    }
    print("\ndaemon latency, %d files:" % len(paths))
    print("  cold start    %.3fs" % cold_s)
    print("  warm no-edit  %.4fs" % warm_s)
    print("  warm 1-edit   %.4fs median  (solo dirty-cone %.3fs, x%.1f)"
          % (daemon_med, solo_med, rows["speedup_vs_solo"]))

    # Acceptance: warm-edit daemon latency at or below the measured
    # dirty-cone analysis time of a daemon-less incremental run.
    assert daemon_med <= solo_med
    assert all(b["daemon_s"] <= b["solo_dirty_cone_s"] for b in bursts)
    assert warm_s < cold_s
    _summary["daemon"] = rows
    _dump_summary()

    # Microbenchmark: the warm no-edit request round-trip.
    with DaemonClient2(sock_dir=tmp_path) as rig:
        benchmark(rig.warm_request)


class DaemonClient2:
    """A tiny self-contained daemon rig for the pytest-benchmark timer
    (fresh socket, small project, warm cached response)."""

    def __init__(self, sock_dir):
        src = sock_dir / "micro"
        src.mkdir(exist_ok=True)
        (src / "a.c").write_text(
            "void a_fn(int *p) { kfree(p); kfree(p); }\n"
        )
        cache = str(sock_dir / "micro-cache")
        self.sock = str(sock_dir / "micro.sock")
        session = IncrementalSession(
            cache,
            session_signature(checker_names=list(CHECKER_NAMES)),
            pin_warm_state=True,
        )
        self.daemon = XgccDaemon(
            watch_roots=[str(src)], extension_factory=bench_checkers,
            session=session, socket_path=self.sock,
            include_paths=[str(src)], cache_dir=cache, poll_interval=30.0,
        )
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        assert wait_for_socket(self.sock, timeout=60.0)
        self.client = DaemonClient(self.sock)
        return self

    def warm_request(self):
        reply = self.client.request("analyze")
        assert reply["ok"]

    def __exit__(self, *exc):
        try:
            self.client.request("shutdown")
        except Exception:
            self.daemon.stop()
        finally:
            self.client.close()
        self.thread.join(timeout=30.0)
        return False
