"""Shared artifact-store tests: differential parity, daemon
integration, offline fallback, and the network fault matrix.

The contract under test (docs/STORE.md): a remote store changes *where
warm state lives*, never *what the driver prints*.  Cold, warm-local,
warm-from-store, and two-clients-sharing-one-store runs must all emit
byte-identical ranked reports, serial and under ``--jobs``; an
unreachable or misbehaving store degrades a run to local-only (counted,
recorded) instead of failing it; and no network fault -- timeout, dead
connection, mid-batch crash, CAS conflict -- may surface partial frames
or wedge a run.
"""

import contextlib
import functools
import json
import os
import shutil
import tempfile
import threading

import pytest

from repro import faults
from repro.codegen.project_gen import apply_function_edits, generate_project
from repro.driver import cache as astcache
from repro.driver import store as storemod
from repro.driver.cli import _build_extensions, main
from repro.driver.daemon import DaemonClient, XgccDaemon, wait_for_socket
from repro.driver.report_server import ReportServer
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.stats import DriverStats
from repro.driver.store import (
    LocalStore,
    RemoteStore,
    StoreError,
    TieredStore,
)
from repro.engine.analysis import AnalysisOptions

cli_checkers = functools.partial(_build_extensions, ("free", "lock"), ())

CHECKER_ARGS = ["--checker", "free", "--checker", "lock"]


def write_tree(dirpath, files):
    for name, text in files.items():
        with open(os.path.join(str(dirpath), name), "w") as handle:
            handle.write(text)


def c_paths(dirpath):
    return sorted(
        os.path.join(str(dirpath), name)
        for name in os.listdir(str(dirpath))
        if name.endswith(".c")
    )


def run_cli(src, capsys, *extra):
    """``(exit_code, stdout)`` of one CLI invocation over ``src``."""
    code = main(CHECKER_ARGS + ["-I", str(src)] + list(extra)
                + c_paths(src))
    return code, capsys.readouterr().out


def read_stats(path):
    with open(str(path)) as handle:
        return json.load(handle)


def count(payload, name):
    return payload["counters"].get(name, 0)


@pytest.fixture
def server(tmp_path):
    root = tmp_path / "store-root"
    root.mkdir()
    srv = ReportServer(backend=LocalStore(root=str(root)))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def sock_dir():
    path = tempfile.mkdtemp(prefix="xgccd-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


class TestSharedStoreDifferential:
    """Two sessions sharing one remote store produce ranked reports
    byte-identical to a solo cold run -- the tentpole acceptance bar."""

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_cold_vs_warm_vs_shared_are_byte_identical(
        self, tmp_path, server, capsys, jobs
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=13, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)

        code0, baseline = run_cli(src, capsys)  # cache-less cold run

        stats1 = tmp_path / "s1.json"
        code1, out1 = run_cli(
            src, capsys, "--cache-dir", str(tmp_path / "c1"),
            "--incremental", "--store-url", server.url,
            "--jobs", jobs, "--stats-json", str(stats1),
        )
        assert (code1, out1) == (code0, baseline)
        first = read_stats(stats1)
        assert count(first, "store_round_trips") > 0
        assert count(first, "store_degraded") == 0

        # A second client with a *fresh* local cache starts warm from
        # the store: every file loads instead of parsing, every root
        # replays instead of re-analyzing.
        stats2 = tmp_path / "s2.json"
        code2, out2 = run_cli(
            src, capsys, "--cache-dir", str(tmp_path / "c2"),
            "--incremental", "--store-url", server.url,
            "--jobs", jobs, "--stats-json", str(stats2),
        )
        assert (code2, out2) == (code0, baseline)
        second = read_stats(stats2)
        assert count(second, "cache_hits") == len(c_paths(src))
        assert count(second, "parses") == 0
        assert count(second, "summary_hits") > 0
        assert count(second, "incremental_roots_replayed") > 0
        assert count(second, "incremental_roots_analyzed") == 0
        assert count(second, "store_batch_keys") > 0

    def test_store_only_clients_share_without_local_caches(
        self, tmp_path, server, capsys
    ):
        """No ``--cache-dir`` at all: the store alone carries the warm
        state between two pathless clients."""
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=17, n_modules=2,
                               functions_per_module=4, bug_rate=0.5)
        write_tree(src, gen.files)
        __, baseline = run_cli(src, capsys)

        __, out1 = run_cli(
            src, capsys, "--incremental", "--store-url", server.url,
        )
        stats2 = tmp_path / "s2.json"
        __, out2 = run_cli(
            src, capsys, "--incremental", "--store-url", server.url,
            "--stats-json", str(stats2),
        )
        assert out1 == baseline and out2 == baseline
        second = read_stats(stats2)
        assert count(second, "parses") == 0
        assert count(second, "incremental_roots_replayed") > 0

    @pytest.mark.parametrize("overlay", [False, True],
                             ids=["remote", "tiered"])
    def test_warm_run_fetches_all_packs_in_one_batch(
        self, tmp_path, server, capsys, monkeypatch, overlay
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=19, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)
        __, baseline = run_cli(src, capsys)
        run_cli(src, capsys, "--incremental", "--store-url", server.url)

        batches = []
        real_get_many = storemod.RemoteStore.get_many

        def counting_get_many(store, tier, keys):
            keys = list(keys)
            if tier == "sum":
                batches.append(keys)
            return real_get_many(store, tier, keys)

        monkeypatch.setattr(storemod.RemoteStore, "get_many",
                            counting_get_many)
        extra = ["--cache-dir", str(tmp_path / "c")] if overlay else []
        stats = tmp_path / "s.json"
        __, out = run_cli(
            src, capsys, "--incremental", "--store-url", server.url,
            "--stats-json", str(stats), *extra
        )
        assert out == baseline
        counters = read_stats(stats)
        assert count(counters, "incremental_roots_analyzed") == 0
        assert len(batches) == 1
        assert len(batches[0]) == count(counters, "summary_pack_reads")
        assert 0 < len(batches[0]) <= len(c_paths(src))

    def test_edits_propagate_through_the_store(
        self, tmp_path, server, capsys
    ):
        """Client A analyzes an edit; client B (fresh cache) replays
        A's work and still matches a cold run of the edited tree."""
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=19, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)
        run_cli(src, capsys, "--cache-dir", str(tmp_path / "a"),
                "--incremental", "--store-url", server.url)

        gen, __ = apply_function_edits(gen, k=2, seed=23)
        write_tree(src, gen.files)
        __, edited_cold = run_cli(src, capsys)
        __, out_a = run_cli(
            src, capsys, "--cache-dir", str(tmp_path / "a"),
            "--incremental", "--store-url", server.url,
        )
        assert out_a == edited_cold

        stats_b = tmp_path / "b.json"
        __, out_b = run_cli(
            src, capsys, "--cache-dir", str(tmp_path / "b"),
            "--incremental", "--store-url", server.url,
            "--stats-json", str(stats_b),
        )
        assert out_b == edited_cold
        assert count(read_stats(stats_b), "incremental_roots_analyzed") == 0


@contextlib.contextmanager
def store_daemon(src_dir, cache_dir, sock_path, store_url):
    """A daemon whose warm state is backed by a remote store."""
    options = AnalysisOptions()
    signature = session_signature(
        checker_names=["free", "lock"], options=options
    )
    session = IncrementalSession(
        str(cache_dir), signature, pin_warm_state=True,
        store_url=store_url,
    )
    daemon = XgccDaemon(
        watch_roots=[str(src_dir)], extension_factory=cli_checkers,
        session=session, socket_path=str(sock_path),
        include_paths=[str(src_dir)], cache_dir=str(cache_dir),
        options=options, poll_interval=30.0, store_url=store_url,
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    assert wait_for_socket(str(sock_path), timeout=60.0)
    try:
        yield daemon
    finally:
        try:
            with DaemonClient(str(sock_path)) as client:
                client.request("shutdown")
        except Exception:
            daemon.stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "daemon thread wedged"


class TestDaemonWithStore:
    def test_warm_edit_parity_and_store_population(
        self, tmp_path, server, sock_dir, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=29, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)
        sock = os.path.join(sock_dir, "d.sock")

        def cold(out_dir):
            main(CHECKER_ARGS + ["-I", str(out_dir)] + c_paths(out_dir))
            return capsys.readouterr().out

        with store_daemon(src, tmp_path / "cache", sock,
                          server.url) as daemon:
            with DaemonClient(sock) as client:
                first = client.request("analyze")
                assert first["ok"]
                assert first["reports"] == cold(src)
                gen, __ = apply_function_edits(gen, k=2, seed=31)
                write_tree(src, gen.files)
                resp = client.request("analyze")
                assert resp["ok"]
                assert resp["served_from"] == "analysis"
                assert resp["reports"] == cold(src)
            assert daemon.stats.count("store_round_trips") > 0
            assert daemon.stats.count("store_degraded") == 0

        # The daemon's runs populated the shared store: a CLI client
        # with a fresh cache starts warm off the daemon's work.
        stats = tmp_path / "cli.json"
        code, out = run_cli(
            src, capsys, "--cache-dir", str(tmp_path / "cli-cache"),
            "--incremental", "--store-url", server.url,
            "--stats-json", str(stats),
        )
        assert out == cold(src)
        after = read_stats(stats)
        assert count(after, "parses") == 0
        assert count(after, "incremental_roots_replayed") > 0


class TestOfflineFallback:
    def test_unreachable_store_degrades_to_local_only(
        self, tmp_path, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=37, n_modules=2,
                               functions_per_module=4, bug_rate=0.5)
        write_tree(src, gen.files)
        code0, baseline = run_cli(src, capsys)

        stats = tmp_path / "s.json"
        code, out = run_cli(
            src, capsys, "--cache-dir", str(tmp_path / "cache"),
            "--incremental", "--store-url", "tcp://127.0.0.1:1",
            "--stats-json", str(stats),
        )
        assert (code, out) == (code0, baseline)
        recorded = read_stats(stats)
        assert count(recorded, "store_degraded") == 1
        assert count(recorded, "store_fallbacks") >= 1
        kinds = [entry["kind"] for entry in recorded["degradations"]]
        assert "store" in kinds

        # The local overlay still did its job: a re-run against the
        # same dead store is warm from the local cache.
        stats2 = tmp_path / "s2.json"
        code2, out2 = run_cli(
            src, capsys, "--cache-dir", str(tmp_path / "cache"),
            "--incremental", "--store-url", "tcp://127.0.0.1:1",
            "--stats-json", str(stats2),
        )
        assert (code2, out2) == (code0, baseline)
        assert count(read_stats(stats2), "parses") == 0


class TestNetworkFaultMatrix:
    """Injected network faults: every row must end in recovery or a
    counted degradation -- never a failed run or a partial frame."""

    def _seed(self, server, key="f" * 64, data=b"frame-bytes"):
        loader = RemoteStore(server.url)
        loader.put_many("sum", {key: data})
        loader.close()
        return key, data

    def test_slow_reply_times_out_then_recovers(self, server):
        key, data = self._seed(server)
        client = RemoteStore(server.url, timeout=0.5)
        try:
            with faults.injected([{"site": "store.slow", "times": 1,
                                   "seconds": 5.0}]):
                # Attempt 1 stalls past the timeout; the resend (fault
                # exhausted) serves the full frame.
                assert client.get_many("sum", [key]) == {key: data}
        finally:
            client.close()

    def test_persistent_stall_degrades_tiered_run(self, tmp_path, server):
        key, data = self._seed(server)
        stats = DriverStats()
        store = storemod.open_store(
            cache_dir=str(tmp_path / "overlay"), store_url=server.url,
            stats=stats, timeout=0.5,
        )
        try:
            with faults.injected([{"site": "store.slow", "times": 2,
                                   "seconds": 5.0}]):
                # Both attempts stall: the tier degrades to local-only
                # and the read comes back a plain miss.
                assert store.get_many("sum", [key]) == {}
            assert stats.count("store_degraded") == 1
            # Degradation is sticky for the run: later ops skip the
            # (now healthy) remote and are counted as fallbacks.
            store.put_many("sum", {"a" * 64: b"local-only"})
            assert stats.count("store_fallbacks") >= 1
            assert store.get_many("sum", ["a" * 64]) == {
                "a" * 64: b"local-only"
            }
        finally:
            store.close()

    def test_dropped_connection_reconnects_and_resends(self, server):
        key, data = self._seed(server)
        client = RemoteStore(server.url)
        try:
            with faults.injected([{"site": "store.request", "times": 1}]):
                assert client.get_many("sum", [key]) == {key: data}
            with faults.injected([{"site": "store.request", "times": 2}]):
                with pytest.raises(StoreError):
                    client.get_many("sum", [key])
            # The client is not poisoned: the next call reconnects.
            assert client.get_many("sum", [key]) == {key: data}
        finally:
            client.close()

    def test_mid_batch_crash_serves_no_partial_frames(self, server):
        key, data = self._seed(server, data=b"x" * 4096)
        client = RemoteStore(server.url)
        try:
            # One partial reply: the retry must deliver the exact
            # original bytes, never a truncated frame.
            with faults.injected([{"site": "store.request", "times": 1,
                                   "mode": "partial"}]):
                assert client.get_many("sum", [key]) == {key: data}
            # Two partial replies exhaust the retry: the whole batch is
            # unserved (StoreError), not half-served.
            with faults.injected([{"site": "store.request", "times": 2,
                                   "mode": "partial"}]):
                with pytest.raises(StoreError):
                    client.get_many("sum", [key])
        finally:
            client.close()

    def test_mid_batch_crash_during_warm_run_self_heals(
        self, tmp_path, server, capsys
    ):
        """A store crash in the middle of a warm run's batched fetch
        degrades that run to local recompute -- identical reports."""
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=41, n_modules=2,
                               functions_per_module=4, bug_rate=0.5)
        write_tree(src, gen.files)
        __, baseline = run_cli(src, capsys)
        run_cli(src, capsys, "--incremental", "--store-url", server.url)

        stats = tmp_path / "s.json"
        with faults.injected([{"site": "store.request", "times": 4,
                               "mode": "partial"}]):
            code, out = run_cli(
                src, capsys, "--incremental", "--store-url", server.url,
                "--stats-json", str(stats),
            )
        assert out == baseline
        recorded = read_stats(stats)
        assert count(recorded, "store_degraded") == 1

    def test_cas_conflict_bounded_retry_merges_both_sides(
        self, tmp_path, server
    ):
        """A rival CAS landing in our read->write window forces a
        re-read/re-merge; both sessions' entries survive."""
        stats = DriverStats()
        backend = storemod.open_store(
            cache_dir=str(tmp_path / "overlay"), store_url=server.url,
            stats=stats,
        )
        cache = astcache.SummaryCache(backend=backend)
        signature = "sig-conflict"
        try:
            # Two distinct rivals land back to back: each invalidates
            # the ETag we hold, forcing two counted re-merges.
            with faults.injected([
                {"site": "store.conflict", "times": 1,
                 "fingerprints": {"rival1": ["r", "r"]}},
                {"site": "store.conflict", "times": 1,
                 "fingerprints": {"rival2": ["r", "r"]}},
            ]):
                cache.store_manifest(
                    signature, {"ours": ["a", "b"]},
                    packs={"ours.c": "1" * 64}, stats=stats,
                )
            assert stats.count("store_cas_conflicts") == 2
            text, __ = backend.manifest_get(signature)
            doc = json.loads(text)
            assert set(doc["fingerprints"]) == {
                "ours", "rival1", "rival2",
            }
            assert doc["packs"] == {"ours.c": "1" * 64}
        finally:
            backend.close()

    def test_cli_run_survives_cas_conflicts(
        self, tmp_path, server, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=43, n_modules=2,
                               functions_per_module=3, bug_rate=0.5)
        write_tree(src, gen.files)
        __, baseline = run_cli(src, capsys)
        stats = tmp_path / "s.json"
        with faults.injected([
            {"site": "store.conflict", "times": 1,
             "fingerprints": {"rival%d" % i: ["r", "r"]}}
            for i in range(3)
        ]):
            code, out = run_cli(
                src, capsys, "--incremental", "--store-url", server.url,
                "--stats-json", str(stats),
            )
        assert out == baseline
        recorded = read_stats(stats)
        assert count(recorded, "store_cas_conflicts") == 3
        assert count(recorded, "store_degraded") == 0
