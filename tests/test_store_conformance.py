"""Backend conformance suite for the artifact store (docs/STORE.md).

One parametrized class runs the same assertions against all three
backends -- :class:`LocalStore`, :class:`RemoteStore` (against an
in-process :class:`ReportServer`), and :class:`TieredStore` (overlay +
remote) -- so the backend interface cannot quietly fork: frame
round-trips, batching, checksum/corrupt-frame self-heal through the
caches, manifest compare-and-swap, and GC pin semantics must behave
identically wherever the bytes live.  Hypothesis property tests drive
interleaved put/get/delete/gc sequences against a model dict.
"""

import json
import os
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.driver import cache as astcache
from repro.driver import store as storemod
from repro.driver.project import Project
from repro.driver.report_server import ReportServer
from repro.driver.store import (
    LocalStore,
    RemoteStore,
    StoreError,
    TieredStore,
    etag_of,
    parse_store_url,
)

BACKENDS = ["local", "remote", "tiered"]


def _key(n):
    return "%064x" % n


def _manifest_doc(signature, fingerprints=None, packs=None, ast_keys=None):
    return json.dumps(
        {
            "format": 3,
            "signature": signature,
            "fingerprints": dict(fingerprints or {}),
            "packs": dict(packs or {}),
            "ast_keys": dict(ast_keys or {}),
        },
        sort_keys=True,
    )


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One backend of each kind, torn down (server included) after."""
    servers, backends = [], []

    def build(ns="0"):
        if request.param == "local":
            built = LocalStore(root=str(tmp_path / ("local-%s" % ns)))
        else:
            root = tmp_path / ("server-%s" % ns)
            root.mkdir()
            server = ReportServer(backend=LocalStore(root=str(root)))
            url = server.start()
            servers.append(server)
            remote = RemoteStore(url)
            if request.param == "remote":
                built = remote
            else:
                built = TieredStore(
                    LocalStore(root=str(tmp_path / ("overlay-%s" % ns))),
                    remote,
                )
        backends.append(built)
        return built

    build.kind = request.param
    yield build
    for built in backends:
        built.close()
    for server in servers:
        server.stop()


class TestFrameConformance:
    def test_round_trip_and_head_and_delete(self, backend):
        store = backend()
        for tier in ("ast", "sum"):
            keys = [_key(i) for i in range(3)]
            payload = {key: ("frame:%s:%s" % (tier, key)).encode()
                       for key in keys}
            assert store.get_many(tier, keys) == {}
            assert store.head_many(tier, keys) == set()
            store.put_many(tier, payload)
            assert store.get_many(tier, keys) == payload
            assert store.head_many(tier, keys + [_key(9)]) == set(keys)
            assert store.delete_many(tier, [keys[0]]) == 1
            assert store.get_many(tier, keys) == {
                key: payload[key] for key in keys[1:]
            }
            assert store.delete_many(tier, [keys[0]]) == 0

    def test_tiers_are_disjoint_namespaces(self, backend):
        store = backend()
        key = _key(1)
        store.put_many("ast", {key: b"ast-bytes"})
        assert store.get_many("sum", [key]) == {}
        store.put_many("sum", {key: b"sum-bytes"})
        assert store.get_many("ast", [key]) == {key: b"ast-bytes"}
        assert store.get_many("sum", [key]) == {key: b"sum-bytes"}

    def test_batched_calls_move_many_frames_at_once(self, backend):
        store = backend()
        payload = {_key(i): b"x" * i for i in range(1, 40)}
        store.put_many("sum", payload)
        assert store.get_many("sum", list(payload)) == payload
        assert store.list_tier("sum").keys() == payload.keys()

    def test_overwrite_is_last_writer(self, backend):
        store = backend()
        key = _key(2)
        store.put_many("ast", {key: b"first"})
        store.put_many("ast", {key: b"second"})
        assert store.get_many("ast", [key]) == {key: b"second"}

    def test_empty_batches_are_noops(self, backend):
        store = backend()
        assert store.get_many("ast", []) == {}
        assert store.put_many("ast", {}) == 0
        assert store.head_many("ast", []) == set()
        assert store.delete_many("ast", []) == 0
        store.touch_many("ast", [])

    def test_touch_sets_and_entry_mtime_reads_back(self, backend):
        store = backend()
        key = _key(3)
        assert store.entry_mtime("sum", key) is None
        store.put_many("sum", {key: b"data"})
        assert store.entry_mtime("sum", key) is not None
        stamp = time.time() - 5 * 86400.0
        store.touch_many("sum", [key], ts=stamp)
        assert abs(store.entry_mtime("sum", key) - stamp) < 5.0
        store.touch_many("sum", [key])  # refresh to now
        assert time.time() - store.entry_mtime("sum", key) < 3600.0


def test_local_put_many_makes_each_shard_directory_once(tmp_path,
                                                       monkeypatch):
    """A batch into a fresh tier creates each shard directory once, not
    once per key, and every frame lands."""
    store = LocalStore(root=str(tmp_path / "fresh"))
    made = []
    makedirs = os.makedirs

    def counting_makedirs(path, *args, **kwargs):
        # os.makedirs recurses into this name for missing parents.
        if os.path.dirname(path) == store.sum_dir:
            made.append(os.path.basename(path))
        return makedirs(path, *args, **kwargs)

    monkeypatch.setattr(storemod.os, "makedirs", counting_makedirs)
    payload = {
        "%s%062x" % (shard, n): b"frame-%s-%d" % (shard.encode(), n)
        for shard in ("0a", "5b", "ff") for n in range(4)
    }
    assert store.put_many("sum", payload) == len(payload)
    assert sorted(made) == ["0a", "5b", "ff"]
    assert store.get_many("sum", list(payload)) == payload


class TestCacheSelfHealConformance:
    """The caches' checksum discipline must hold over any backend: a
    corrupt frame raises, is evicted, and the key reads as a miss."""

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "version"])
    def test_summary_frame_corruption(self, backend, mode):
        cache = astcache.SummaryCache(backend=backend())
        key = _key(4)
        cache.store_many({key: ["artifact-payload"]})
        assert cache.get(key) == ["artifact-payload"]
        cache.corrupt(key, mode)
        with pytest.raises(astcache.CacheCorruption):
            cache.get(key)
        assert cache.evict(key)
        assert cache.get(key) is None

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "version"])
    def test_ast_frame_corruption(self, backend, mode):
        cache = astcache.AstCache(backend=backend())
        compiled = Project().compile_text("int x;\n", "t.c")
        payload = astcache.pack_unit(compiled.unit, compiled.source_bytes)
        key = _key(5)
        cache.store(key, payload)

        def load():
            return astcache.unpack(cache.backend.get_many("ast", [key])[key])

        assert load()[1] == compiled.source_bytes
        cache.corrupt(key, mode)
        with pytest.raises(astcache.CacheCorruption):
            load()
        assert cache.evict(key)
        data, path = cache.fetch(key)
        assert data is None and path is None

    def test_prefetch_matches_direct_gets(self, backend):
        cache = astcache.SummaryCache(backend=backend())
        keys = [_key(i) for i in range(10, 14)]
        for i, key in enumerate(keys):
            cache.store_many({key: ["artifact", i]})
        cache.prefetch(keys + [_key(99)])
        for i, key in enumerate(keys):
            assert cache.get(key) == ["artifact", i]
        assert cache.get(_key(99)) is None


class TestManifestConformance:
    def test_absent_manifest_reads_as_none(self, backend):
        store = backend()
        assert store.manifest_get("nothing") == (None, None)
        assert store.manifest_head("nothing") is None
        assert store.manifest_version("nothing") is None

    def test_cas_from_empty_then_stale_then_fresh(self, backend):
        store = backend()
        sig = "sig-cas"
        doc1 = _manifest_doc(sig, {"f": ["a", "b"]})
        ok, etag1, text = store.manifest_cas(sig, doc1, None)
        assert ok and text == doc1 and etag1 == etag_of(doc1)
        assert store.manifest_get(sig) == (doc1, etag1)

        # A second create-from-empty must lose and see the current doc.
        rival = _manifest_doc(sig, {"g": ["c", "d"]})
        ok, cur_etag, cur_text = store.manifest_cas(sig, rival, None)
        assert not ok and cur_etag == etag1 and cur_text == doc1

        # A CAS holding the current ETag commits.
        ok, etag2, __ = store.manifest_cas(sig, rival, etag1)
        assert ok and etag2 == etag_of(rival)
        assert store.manifest_get(sig) == (rival, etag2)

        # The stale ETag is now dead.
        ok, __, cur_text = store.manifest_cas(sig, doc1, etag1)
        assert not ok and cur_text == rival

    def test_version_token_changes_on_every_commit(self, backend):
        store = backend()
        sig = "sig-ver"
        before = store.manifest_version(sig)
        __, etag, __ = store.manifest_cas(sig, _manifest_doc(sig), None)
        first = store.manifest_version(sig)
        assert first is not None and first != before
        store.manifest_cas(sig, _manifest_doc(sig, {"f": ["x"]}), etag)
        assert store.manifest_version(sig) != first

    def test_list_and_delete(self, backend):
        store = backend()
        sig = "a" * 40
        store.manifest_cas(sig, _manifest_doc(sig), None)
        listed = store.manifest_list()
        assert sig[:32] in listed
        assert store.manifest_delete(sig[:32])
        assert store.manifest_get(sig) == (None, None)
        assert not store.manifest_delete(sig[:32])

    def test_concurrent_cas_loops_all_land(self, backend):
        """N contenders doing read-merge-CAS converge with every entry
        present -- the cross-machine replacement for the fcntl merge."""
        store = backend()
        sig = "sig-race"
        errors = []

        def contend(tag):
            try:
                for __ in range(64):
                    text, etag = store.manifest_get(sig)
                    merged = (
                        json.loads(text)["fingerprints"] if text else {}
                    )
                    merged[tag] = [tag, tag]
                    ok, __, __ = store.manifest_cas(
                        sig, _manifest_doc(sig, merged), etag
                    )
                    if ok:
                        return
                errors.append("%s: retries exhausted" % tag)
            except Exception as err:  # surfaced in the main thread
                errors.append("%s: %r" % (tag, err))

        tags = ["w%d" % i for i in range(8)]
        threads = [
            threading.Thread(target=contend, args=(tag,)) for tag in tags
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        text, __ = store.manifest_get(sig)
        assert set(json.loads(text)["fingerprints"]) == set(tags)


class TestGCConformance:
    def test_manifest_pins_and_extra_live_pins(self, backend):
        store = backend()
        now = time.time()
        old = now - 10 * 86400.0
        pinned, held, loose = _key(20), _key(21), _key(22)
        pinned_ast, loose_ast = _key(23), _key(24)
        store.put_many("sum", {
            key: b"frame" for key in (pinned, held, loose)
        })
        store.put_many("ast", {pinned_ast: b"a", loose_ast: b"b"})
        store.touch_many(
            "sum", [pinned, held, loose], ts=old
        )
        store.touch_many("ast", [pinned_ast, loose_ast], ts=old)
        # A fresh manifest pins one key per tier; extra_live pins one
        # more (the daemon's warm state); the rest age out.
        sig = "sig-gc"
        store.manifest_cas(
            sig,
            _manifest_doc(sig, packs={"a.c": pinned},
                          ast_keys={"a.c": [pinned_ast]}),
            None,
        )
        counters = store.gc(
            cutoff_days=1.0, now=now, extra_live_sum=[held]
        )
        assert counters["gc_summary_frames_dropped"] >= 1
        assert counters["gc_ast_frames_dropped"] >= 1
        assert store.head_many("sum", [pinned, held, loose]) == {
            pinned, held,
        }
        assert store.head_many("ast", [pinned_ast, loose_ast]) == {
            pinned_ast,
        }

    def test_stale_manifest_is_dropped_and_stops_pinning(self, backend):
        store = backend()
        now = time.time()
        key = _key(25)
        store.put_many("sum", {key: b"frame"})
        store.touch_many("sum", [key], ts=now - 10 * 86400.0)
        sig = "sig-stale"
        store.manifest_cas(
            sig, _manifest_doc(sig, packs={"a.c": key}), None
        )
        # First sweep: the manifest is fresh, the frame survives.
        store.gc(cutoff_days=1.0, now=now)
        assert store.head_many("sum", [key]) == {key}
        # Age the manifest out; the next sweep drops both.
        counters = store.gc(cutoff_days=1.0, now=now + 20 * 86400.0)
        assert counters["gc_manifests_dropped"] >= 1
        assert store.manifest_get(sig) == (None, None)
        assert store.head_many("sum", [key]) == set()

    def test_young_frames_survive_unpinned(self, backend):
        store = backend()
        key = _key(26)
        store.put_many("ast", {key: b"fresh"})
        counters = store.gc(cutoff_days=30.0)
        assert counters["gc_frames_kept"] >= 1
        assert store.head_many("ast", [key]) == {key}


class TestUrlParsing:
    @pytest.mark.parametrize("url", [
        "tcp://127.0.0.1:7000", "http://127.0.0.1:7000", "127.0.0.1:7000",
    ])
    def test_accepted_shapes(self, url):
        assert parse_store_url(url) == ("127.0.0.1", 7000)

    @pytest.mark.parametrize("url", ["", "nope", "tcp://host:", "h:port"])
    def test_rejected_shapes(self, url):
        with pytest.raises(StoreError):
            parse_store_url(url)

    def test_open_store_shapes(self, tmp_path):
        assert storemod.open_store() is None
        local = storemod.open_store(cache_dir=str(tmp_path))
        assert isinstance(local, LocalStore)
        tiered = storemod.open_store(
            cache_dir=str(tmp_path), store_url="tcp://127.0.0.1:1"
        )
        assert isinstance(tiered, TieredStore)
        assert tiered.local is not None and tiered.remote is not None
        bare = storemod.open_store(store_url="tcp://127.0.0.1:1")
        assert isinstance(bare, TieredStore) and bare.local is None


# -- hypothesis property tests ------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.binary(max_size=48)),
        st.tuples(st.just("get"), st.lists(st.integers(0, 5), max_size=4)),
        st.tuples(st.just("delete"), st.lists(st.integers(0, 5), max_size=3)),
        st.tuples(st.just("gc_keep"), st.just(None)),
        st.tuples(
            st.just("gc_drop"), st.lists(st.integers(0, 5), max_size=3)
        ),
    ),
    max_size=12,
)


class TestInterleavedModel:
    """Interleaved put/get/delete/gc against a model dict: after any
    operation sequence the store and the model agree key for key."""

    _example_counter = [0]

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=_ops)
    def test_store_matches_model(self, backend, ops):
        # Fresh namespace per example: state cannot leak across runs.
        self._example_counter[0] += 1
        ns = self._example_counter[0]

        def key_of(i):
            return _key(ns * 1000 + i)

        store = backend(ns="h%d" % ns)
        model = {}
        for op, *args in ops:
            if op == "put":
                index, data = args
                store.put_many("sum", {key_of(index): data})
                model[key_of(index)] = data
            elif op == "get":
                keys = [key_of(i) for i in args[0]]
                assert store.get_many("sum", keys) == {
                    key: model[key] for key in keys if key in model
                }
            elif op == "delete":
                keys = [key_of(i) for i in args[0]]
                store.delete_many("sum", keys)
                for key in keys:
                    model.pop(key, None)
            elif op == "gc_keep":
                # Cutoff far in the past: nothing is old enough to drop.
                store.gc(cutoff_days=30.0)
            elif op == "gc_drop":
                # Everything ages out except the pinned survivors.
                pins = {key_of(i) for i in args[0]}
                store.gc(
                    cutoff_days=1.0,
                    now=time.time() + 10 * 86400.0,
                    extra_live_sum=sorted(pins),
                )
                model = {
                    key: data for key, data in model.items()
                    if key in pins
                }
        keys = sorted(model) + [key_of(999)]
        assert store.get_many("sum", keys) == model
        assert store.head_many("sum", keys) == set(model)
