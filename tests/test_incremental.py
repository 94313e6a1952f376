"""Incremental summary-based re-analysis tests (docs/DRIVER.md).

Covers: Merkle function fingerprints (edit / move / callee propagation /
recursion), dirty-cone computation, the seeded edit simulator, tier-2
summary frames (roundtrip, corruption self-heal, manifest), differential
cold-vs-incremental byte-identity after k edits, cone-bound scheduling,
coupled-extension delta scheduling (the old blanket fallback is gone --
tests/test_global_incremental.py covers it in depth), degraded-root
non-persistence, and the CLI ``--incremental`` flag.
"""

import json
import os
import time

import pytest

from repro import faults
from repro.checkers import free_checker, lock_checker
from repro.cfg.fingerprint import (
    compute_fingerprints,
    dirty_cone,
    fingerprint_tables,
    strongly_connected_components,
)
from repro.codegen.project_gen import apply_function_edits, generate_project
from repro.driver import cache as astcache
from repro.driver.cli import main
from repro.driver.project import Project
from repro.driver.session import (
    IncrementalSession,
    defining_file,
    pack_key,
    session_signature,
)
from repro.driver.store import LocalStore
from repro.engine.analysis import AnalysisOptions
from repro.engine.summaries import RootArtifact
from repro.metal import ANY_POINTER, Extension


def incr_checkers():
    """A fresh checker list (extensions are stateful: one per run)."""
    return [free_checker(("kfree", "vfree")), lock_checker()]


def report_keys(result):
    return [
        (r.checker, r.message, r.location.filename, r.location.line,
         r.location.column, r.function)
        for r in result.reports
    ]


def write_tree(tmp_path, gen):
    """Materialize a GeneratedProject under tmp_path; returns c paths."""
    for name, text in gen.files.items():
        (tmp_path / name).write_text(text)
    return sorted(
        str(tmp_path / name) for name in gen.files if name.endswith(".c")
    )


def make_session(cache_dir, options=None):
    signature = session_signature(
        checker_names=["free", "lock"],
        options=options or AnalysisOptions(),
    )
    return IncrementalSession(str(cache_dir), signature)


def compiled_project(tmp_path, paths, cache_dir=None, jobs=1):
    project = Project(
        include_paths=[str(tmp_path)],
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    project.compile_files(paths, jobs=jobs)
    return project


def graph_of(source):
    project = Project()
    project.compile_text(source, "t.c")
    return project.callgraph


def basis(graph):
    """What a pinned session keeps of its last graph for the next
    :func:`fingerprint_tables`."""
    return (graph.callees,) + fingerprint_tables(graph)


CHAIN = """\
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) + 2; }
int top(int x) { return mid(x) + 3; }
int other(int x) { return x * 2; }
"""


class TestFingerprints:
    def test_stable_across_rebuilds(self):
        assert compute_fingerprints(graph_of(CHAIN)) == compute_fingerprints(
            graph_of(CHAIN)
        )

    def test_body_edit_propagates_to_callers_only(self):
        before = compute_fingerprints(graph_of(CHAIN))
        after = compute_fingerprints(
            graph_of(CHAIN.replace("x + 1", "x + 9"))
        )
        assert after["leaf"] != before["leaf"]
        assert after["mid"] != before["mid"]  # Merkle: callee folded in
        assert after["top"] != before["top"]
        assert after["other"] == before["other"]

    def test_moved_function_changes_fingerprint(self):
        # Identical tokens, different line: reports carry line numbers,
        # so a moved function must re-analyze to stay byte-identical.
        before = compute_fingerprints(graph_of(CHAIN))
        after = compute_fingerprints(graph_of("\n\n" + CHAIN))
        assert after["leaf"] != before["leaf"]

    def test_recursive_cycle_hashes_as_group(self):
        mutual = """\
int ping(int x) { return pong(x - 1); }
int pong(int x) { return ping(x - 2); }
int solo(int x) { return x; }
"""
        graph = graph_of(mutual)
        sccs = strongly_connected_components(graph)
        assert ["ping", "pong"] in sccs
        before = compute_fingerprints(graph)
        after = compute_fingerprints(
            graph_of(mutual.replace("x - 1", "x - 7"))
        )
        # Any edit inside the cycle invalidates the whole cycle.
        assert after["ping"] != before["ping"]
        assert after["pong"] != before["pong"]
        assert after["solo"] == before["solo"]

    def test_local_hashes_ignore_callee_edits(self):
        local_before, __ = fingerprint_tables(graph_of(CHAIN))
        local_after, __ = fingerprint_tables(
            graph_of(CHAIN.replace("x + 1", "x + 9"))
        )
        assert local_after["leaf"] != local_before["leaf"]
        assert local_after["mid"] == local_before["mid"]

    def test_mutated_graph_drops_memoized_tables(self):
        graph = graph_of(CHAIN)
        local, fingerprints = fingerprint_tables(graph)
        assert fingerprint_tables(graph) == (local, fingerprints)
        extra = graph_of("int extra(int x) { return top(x); }\n")
        graph.add_function(extra.functions["extra"])
        added_local, __ = fingerprint_tables(graph)
        assert set(added_local) == set(local) | {"extra"}
        graph.link()
        __, linked = fingerprint_tables(graph)
        assert "extra" in linked
        assert linked["top"] == fingerprints["top"]
        # link() re-reads the callee sets: a changed set must show up.
        leaf = graph.functions["leaf"]
        leaf.direct_callees = ("other",)
        graph.link()
        __, relinked = fingerprint_tables(graph)
        assert relinked["leaf"] != linked["leaf"]
        assert relinked["top"] != linked["top"]
        assert relinked["other"] == linked["other"]

    @pytest.mark.parametrize("edit", [
        ("x + 1", "x + 9"),                     # a leaf body
        ("return x * 2;", "return leaf(x);"),   # a new callee
        ("leaf(x) + 2", "x + 2"),               # a dropped callee
        ("int other", "\nint other"),            # a moved function
        ("", ""),                               # nothing
    ])
    def test_rehashing_the_cone_equals_a_full_pass(self, edit):
        mutual = CHAIN + (
            "int ping(int x) { return pong(x - 1) + top(x); }\n"
            "int pong(int x) { return ping(x - 2); }\n"
        )
        before = graph_of(mutual)
        after = graph_of(mutual.replace(*edit))
        assert fingerprint_tables(after, previous=basis(before)) == \
            fingerprint_tables(graph_of(mutual.replace(*edit)))

    def test_a_changed_function_set_rehashes_everything(self):
        before = graph_of(CHAIN)
        after = graph_of(CHAIN + "int extra(int x) { return top(x); }\n")
        assert fingerprint_tables(after, previous=basis(before)) == \
            fingerprint_tables(graph_of(CHAIN + "int extra(int x) "
                                        "{ return top(x); }\n"))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_rehashing_generated_edits_equals_a_full_pass(self, tmp_path,
                                                         seed):
        gen = generate_project(seed=seed, n_modules=3,
                               functions_per_module=4, bug_rate=0.3)
        previous = compiled_project(tmp_path, write_tree(tmp_path, gen))
        for step in range(3):
            gen, __ = apply_function_edits(gen, k=1 + step, seed=seed + step)
            paths = write_tree(tmp_path, gen)
            current = compiled_project(tmp_path, paths)
            tables = fingerprint_tables(current.callgraph,
                                        previous=basis(previous.callgraph))
            full = compiled_project(tmp_path, paths)
            assert tables == fingerprint_tables(full.callgraph)
            previous = current

    def test_dirty_cone_is_edited_plus_transitive_callers(self):
        graph = graph_of(CHAIN)
        assert dirty_cone(graph, ["leaf"]) == {"leaf", "mid", "top"}
        assert dirty_cone(graph, ["top"]) == {"top"}
        assert dirty_cone(graph, ["other"]) == {"other"}
        assert dirty_cone(graph, ["not_defined"]) == set()


class TestEditSimulation:
    def test_edits_are_line_preserving_with_ground_truth(self):
        gen = generate_project(seed=3, n_modules=2, functions_per_module=5)
        edited, edits = apply_function_edits(gen, k=3, seed=1)
        assert len(edits) == 3
        assert len({e.function for e in edits}) == 3
        for edit in edits:
            old_lines = gen.files[edit.filename].splitlines()
            new_lines = edited.files[edit.filename].splitlines()
            assert len(old_lines) == len(new_lines)
            assert old_lines[edit.line - 1] == edit.before
            assert new_lines[edit.line - 1] == edit.after
            assert edit.before != edit.after
        # Untouched files are untouched.
        for name in gen.files:
            if name not in {e.filename for e in edits}:
                assert edited.files[name] == gen.files[name]

    def test_deterministic_for_seed(self):
        gen = generate_project(seed=3, n_modules=2, functions_per_module=5)
        __, first = apply_function_edits(gen, k=2, seed=9)
        __, second = apply_function_edits(gen, k=2, seed=9)
        assert [repr(e) for e in first] == [repr(e) for e in second]

    def test_edit_dirties_exactly_its_cone(self):
        gen = generate_project(seed=3, n_modules=2, functions_per_module=5)
        edited, edits = apply_function_edits(gen, k=1, seed=4)
        before = compute_fingerprints(gen.make_project().callgraph)
        graph = edited.make_project().callgraph
        after = compute_fingerprints(graph)
        changed = {name for name in after if after[name] != before.get(name)}
        assert changed == dirty_cone(graph, [e.function for e in edits])

    def test_too_many_edits_raises(self):
        gen = generate_project(seed=3, n_modules=1, functions_per_module=2)
        with pytest.raises(ValueError):
            apply_function_edits(gen, k=500, seed=0)


def _dummy_artifact(root="f"):
    return RootArtifact(
        ext_index=0, extension="lock", root=root, reports=[], examples={},
        counterexamples={}, degraded=[], clean=True,
    )


class TestSummaryFrames:
    def test_roundtrip_and_evict(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        key = "ab" * 32
        store.store_many({key: {(0, "f"): ("fp", _dummy_artifact())}})
        fingerprint, artifact = store.get(key)[(0, "f")]
        assert fingerprint == "fp" and artifact.root == "f"
        assert store.evict(key)
        assert store.get(key) is None

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "version"])
    def test_corruption_raises(self, tmp_path, mode):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        key = "cd" * 32
        store.store_many({key: {(0, "f"): ("fp", _dummy_artifact())}})
        astcache.corrupt_entry(store.backend.local_path("sum", key), mode)
        with pytest.raises(astcache.CacheCorruption):
            store.get(key)

    def test_ast_frame_is_not_a_summary_frame(self, tmp_path):
        with pytest.raises(astcache.CacheCorruption):
            astcache.unpack_summary(b"XGCCAST\x02" + b"\x00" * 64)

    def test_manifest_roundtrip_and_signature_check(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        store.store_manifest("sig", {"f": ["l1", "m1"]})
        assert store.load_manifest("sig")["fingerprints"] == {
            "f": ["l1", "m1"]}
        assert store.load_manifest("other-sig") is None

    def test_garbled_manifest_degrades_to_none(self, tmp_path):
        # Written through the backend interface, so the same garbling
        # lands identically on a local dir or a remote store.
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        store.backend.manifest_put("sig", "{not json")
        assert store.load_manifest("sig") is None

    def test_pack_keys_separate_signatures_files_and_entries(self):
        artifact = _dummy_artifact()
        pack = {(0, "f"): ("fp1", artifact)}
        base = pack_key("sig", "a.c", pack)
        assert pack_key("other", "a.c", pack) != base
        assert pack_key("sig", "b.c", pack) != base
        assert pack_key("sig", "a.c", {(1, "f"): ("fp1", artifact)}) != base
        assert pack_key("sig", "a.c", {(0, "f"): ("fp2", artifact)}) != base
        assert pack_key("sig", "a.c", {(0, "g"): ("fp1", artifact)}) != base
        # Keyed by entry identity, not insertion order or artifact bytes.
        two = {(0, "f"): ("fp1", artifact), (1, "g"): ("fp3", artifact)}
        flipped = dict(reversed(list(two.items())))
        assert pack_key("sig", "a.c", two) == pack_key("sig", "a.c", flipped)
        assert pack_key(
            "sig", "a.c", {(0, "f"): ("fp1", _dummy_artifact("h"))}
        ) == base


class TestIncrementalDifferential:
    def _cold_reference(self, tmp_path, paths, options=None):
        project = compiled_project(tmp_path, paths)
        return project, project.run(incr_checkers(), options)

    def test_warm_no_edit_replays_everything(self, tmp_path):
        gen = generate_project(seed=5, n_modules=3, functions_per_module=6)
        paths = write_tree(tmp_path, gen)
        cache = tmp_path / "cache"
        __, reference = self._cold_reference(tmp_path, paths)

        cold = compiled_project(tmp_path, paths, cache)
        first = cold.run(incr_checkers(), incremental=make_session(cache))
        assert report_keys(first) == report_keys(reference)
        assert cold.stats.count("incremental_cold_runs") == 1
        assert cold.stats.count("summary_stores") > 0

        warm = compiled_project(tmp_path, paths, cache)
        second = warm.run(incr_checkers(), incremental=make_session(cache))
        assert report_keys(second) == report_keys(reference)
        assert second.log.examples == reference.log.examples
        assert second.log.counterexamples == reference.log.counterexamples
        assert warm.stats.count("incremental_roots_analyzed") == 0
        assert warm.stats.count("incremental_roots_replayed") > 0
        assert warm.stats.count("summary_hits") > 0
        assert warm.stats.count("summary_misses") == 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_warm_after_k_edits_byte_identical(self, tmp_path, k):
        gen = generate_project(seed=7, n_modules=4, functions_per_module=8)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        cold = compiled_project(tmp_path, paths, cache)
        cold.run(incr_checkers(), incremental=make_session(cache))

        edited, edits = apply_function_edits(gen, k=k, seed=11)
        paths = write_tree(tmp_path, edited)
        warm = compiled_project(tmp_path, paths, cache)
        incremental = warm.run(
            incr_checkers(), incremental=make_session(cache)
        )
        reference_project, reference = self._cold_reference(tmp_path, paths)
        assert report_keys(incremental) == report_keys(reference)
        assert incremental.log.examples == reference.log.examples
        assert incremental.log.counterexamples == reference.log.counterexamples

        # Dirty-cone bound: edited functions plus transitive callers.
        cone = dirty_cone(
            reference_project.callgraph, [e.function for e in edits]
        )
        counters = warm.stats.counters
        assert counters["incremental_dirty_functions"] == k
        assert counters["incremental_dirty_cone"] == len(cone)
        assert counters["incremental_roots_analyzed"] <= len(cone)
        assert counters["incremental_roots_analyzed"] < len(
            reference_project.callgraph.roots()
        )

    def test_warm_parallel_matches_cold(self, tmp_path):
        gen = generate_project(seed=9, n_modules=4, functions_per_module=6)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        cold = compiled_project(tmp_path, paths, cache, jobs=2)
        cold.run(incr_checkers(), incremental=make_session(cache))
        edited, __ = apply_function_edits(gen, k=2, seed=5)
        paths = write_tree(tmp_path, edited)
        warm = compiled_project(tmp_path, paths, cache, jobs=2)
        incremental = warm.run(
            incr_checkers(), incremental=make_session(cache))
        __, reference = self._cold_reference(tmp_path, paths)
        assert report_keys(incremental) == report_keys(reference)
        assert warm.stats.count("summary_hits") > 0

    def test_callee_edit_invalidates_caller_summary(self, tmp_path):
        files = {
            "a.c": (
                "void kfree(void *p);\n"
                "void helper(int *p) { kfree(p); }\n"
                "int caller(int *p) { helper(p); return *p; }\n"
                "int standalone(int *q) { kfree(q); kfree(q); return 0; }\n"
            )
        }
        (tmp_path / "a.c").write_text(files["a.c"])
        cache = tmp_path / "cache"
        paths = [str(tmp_path / "a.c")]
        cold = compiled_project(tmp_path, paths, cache)
        first = cold.run(incr_checkers(), incremental=make_session(cache))
        # use-after-free through the helper + double free in standalone.
        assert len(first.reports) == 2

        # Edit ONLY the callee body: the caller's summary must invalidate.
        (tmp_path / "a.c").write_text(
            files["a.c"].replace("{ kfree(p); }", "{ kfree(p); p = p; }")
        )
        warm = compiled_project(tmp_path, paths, cache)
        second = warm.run(incr_checkers(), incremental=make_session(cache))
        counters = warm.stats.counters
        assert counters["incremental_dirty_functions"] == 1  # helper
        assert counters["incremental_dirty_cone"] == 2  # helper + caller
        assert counters["incremental_roots_analyzed"] == 1  # caller
        assert counters["incremental_roots_replayed"] == 1  # standalone
        reference = compiled_project(tmp_path, paths).run(incr_checkers())
        assert report_keys(second) == report_keys(reference)

    def test_corrupt_summary_frame_self_heals(self, tmp_path):
        gen = generate_project(seed=5, n_modules=2, functions_per_module=5)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        with faults.injected([{"site": "summary.corrupt", "mode": "garbage"}]):
            cold = compiled_project(tmp_path, paths, cache)
            cold.run(incr_checkers(), incremental=make_session(cache))
        warm = compiled_project(tmp_path, paths, cache)
        healed = warm.run(incr_checkers(), incremental=make_session(cache))
        assert warm.stats.count("summary_evictions") > 0
        assert warm.stats.count("incremental_roots_analyzed") > 0
        __, reference = self._cold_reference(tmp_path, paths)
        assert report_keys(healed) == report_keys(reference)
        # The heal re-stored good frames: third run replays everything.
        third = compiled_project(tmp_path, paths, cache)
        third.run(incr_checkers(), incremental=make_session(cache))
        assert third.stats.count("incremental_roots_analyzed") == 0
        assert third.stats.count("summary_evictions") == 0

    def test_degraded_roots_are_never_persisted(self, tmp_path):
        gen = generate_project(seed=5, n_modules=2, functions_per_module=4)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        options = AnalysisOptions(
            max_paths_per_root=0, root_error_policy="degrade"
        )
        cold = compiled_project(tmp_path, paths, cache)
        first = cold.run(
            incr_checkers(), options,
            incremental=make_session(cache, options),
        )
        assert first.degraded  # the 0-path budget degrades roots
        # Exactly the degraded (extension, root) pairs were withheld from
        # the store; clean pairs persisted normally.
        total_pairs = 2 * len(cold.callgraph.roots())
        assert cold.stats.count("summary_stores") == (
            total_pairs - len(first.degraded)
        )
        # The warm run misses the withheld frames and re-analyzes those
        # roots (and only those).
        warm = compiled_project(tmp_path, paths, cache)
        second = warm.run(
            incr_checkers(), options,
            incremental=make_session(cache, options),
        )
        degraded_roots = {entry.root for entry in first.degraded}
        assert warm.stats.count("incremental_roots_analyzed") == len(
            degraded_roots
        )
        assert warm.stats.count("summary_misses") > 0
        assert report_keys(second) == report_keys(first)

    def test_coupled_extension_stays_incremental(self, tmp_path):
        # A user-global-writing extension used to force the blanket
        # coupled fallback; annotation-delta capture/replay keeps it
        # incremental (zero fallbacks, frames persisted, warm replay
        # byte-identical to a cold run).
        def coupled_checkers():
            ext = Extension("globals_writer")
            ext.state_var("v", ANY_POINTER)

            def remember(ctx):
                ctx.globals["frees"] = ctx.globals.get("frees", 0) + 1

            ext.transition(
                "start", "{ kfree(v) }", to="v.freed", action=remember
            )
            return [ext]

        def session():
            return IncrementalSession(
                str(cache),
                session_signature(checker_names=["globals_writer"]),
            )

        gen = generate_project(seed=5, n_modules=2, functions_per_module=4)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        project = compiled_project(tmp_path, paths, cache)
        result = project.run(coupled_checkers(), incremental=session())
        assert project.stats.count("incremental_fallbacks") == 0
        assert project.stats.count("summary_stores") > 0
        reference = compiled_project(tmp_path, paths).run(coupled_checkers())
        assert report_keys(result) == report_keys(reference)

        warm = compiled_project(tmp_path, paths, cache)
        replayed = warm.run(coupled_checkers(), incremental=session())
        assert report_keys(replayed) == report_keys(reference)
        assert warm.stats.count("incremental_fallbacks") == 0
        assert warm.stats.count("incremental_roots_analyzed") == 0
        assert warm.stats.count("incremental_coupled_runs") == 1

    def test_signature_change_invalidates_cache(self, tmp_path):
        gen = generate_project(seed=5, n_modules=2, functions_per_module=4)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        cold = compiled_project(tmp_path, paths, cache)
        cold.run(incr_checkers(), incremental=make_session(cache))
        # A different option set is a different signature: nothing reused.
        options = AnalysisOptions(synonyms=False)
        warm = compiled_project(tmp_path, paths, cache)
        warm.run(
            incr_checkers(), options,
            incremental=make_session(cache, options),
        )
        assert warm.stats.count("incremental_cold_runs") == 1
        assert warm.stats.count("summary_hits") == 0


def load_pack_manifest(cache_dir):
    """The full manifest document :func:`make_session` runs leave."""
    summaries = astcache.SummaryCache(LocalStore(str(cache_dir)))
    return summaries.load_manifest(make_session(cache_dir).signature)


def age_every_frame(backend, days=2):
    """Backdate every AST and summary frame ``days`` into the past."""
    stamp = time.time() - days * 86400.0
    for tier in ("sum", "ast"):
        backend.touch_many(tier, list(backend.list_tier(tier)), ts=stamp)


def root_files(graph):
    """The files defining at least one call-graph root."""
    return {defining_file(graph, root) for root in graph.roots()}


class TestSummaryPacks:
    """Tier 2 persists one pack per (signature, defining file)."""

    def _cold(self, tmp_path, gen, cache):
        paths = write_tree(tmp_path, gen)
        project = compiled_project(tmp_path, paths, cache)
        project.run(incr_checkers(), incremental=make_session(cache))
        return project, paths

    def test_warm_run_reads_at_most_one_pack_per_file(self, tmp_path,
                                                      monkeypatch):
        gen = generate_project(seed=7, n_modules=4, functions_per_module=8)
        cache = tmp_path / "cache"
        self._cold(tmp_path, gen, cache)
        edited, __ = apply_function_edits(gen, k=1, seed=11)
        paths = write_tree(tmp_path, edited)

        batches = []
        real_get_many = LocalStore.get_many

        def counting_get_many(store, tier, keys):
            keys = list(keys)
            if tier == "sum":
                batches.append(keys)
            return real_get_many(store, tier, keys)

        monkeypatch.setattr(LocalStore, "get_many", counting_get_many)
        warm = compiled_project(tmp_path, paths, cache)
        result = warm.run(incr_checkers(), incremental=make_session(cache))
        monkeypatch.undo()
        # One batch, at most one pack per source file.
        assert len(batches) == 1
        assert 0 < len(batches[0]) <= len(paths)
        assert warm.stats.count("summary_pack_reads") == len(batches[0])
        assert warm.stats.count("summary_pack_writes") == 1
        reference = compiled_project(tmp_path, paths).run(incr_checkers())
        assert report_keys(result) == report_keys(reference)

    def test_corrupt_pack_heals_only_its_files_roots(self, tmp_path):
        gen = generate_project(seed=5, n_modules=3, functions_per_module=6)
        cache = tmp_path / "cache"
        # Packs are stored in key order: the first store is corrupted.
        with faults.injected([{"site": "summary.corrupt",
                               "mode": "garbage", "times": 1}]):
            cold, paths = self._cold(tmp_path, gen, cache)
        packs = load_pack_manifest(cache)["packs"]
        damaged = min(packs, key=packs.get)
        roots = [
            root for root in cold.callgraph.roots()
            if defining_file(cold.callgraph, root) == damaged
        ]
        assert len(roots) > 1

        warm = compiled_project(tmp_path, paths, cache)
        healed = warm.run(incr_checkers(), incremental=make_session(cache))
        assert warm.stats.count("summary_evictions") == 1
        assert warm.stats.count("incremental_roots_analyzed") == len(roots)
        assert warm.stats.count("summary_pack_writes") == 1
        reference = compiled_project(tmp_path, paths).run(incr_checkers())
        assert report_keys(healed) == report_keys(reference)
        assert healed.log.examples == reference.log.examples

    def test_rival_sessions_on_disjoint_files_keep_their_packs(self,
                                                               tmp_path):
        gen = generate_project(seed=9, n_modules=4, functions_per_module=5)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        halves = [paths[:2], paths[2:]]
        graphs = []
        for half in halves:
            project = compiled_project(tmp_path, half, cache)
            project.run(incr_checkers(), incremental=make_session(cache))
            graphs.append(project.callgraph)
        packs = load_pack_manifest(cache)["packs"]
        assert set(packs) == root_files(graphs[0]) | root_files(graphs[1])
        for half in halves:
            warm = compiled_project(tmp_path, half, cache)
            result = warm.run(incr_checkers(),
                              incremental=make_session(cache))
            assert warm.stats.count("incremental_roots_analyzed") == 0
            assert warm.stats.count("summary_pack_writes") == 0
            reference = compiled_project(tmp_path, half).run(incr_checkers())
            assert report_keys(result) == report_keys(reference)
        assert load_pack_manifest(cache)["packs"] == packs

    def test_persisted_artifacts_carry_no_summary_snapshot(self, tmp_path):
        gen = generate_project(seed=5, n_modules=2, functions_per_module=5)
        cache = tmp_path / "cache"
        cold, __ = self._cold(tmp_path, gen, cache)
        summaries = astcache.SummaryCache(LocalStore(str(cache)))
        entries = 0
        for name, key in load_pack_manifest(cache)["packs"].items():
            for (ext_index, root), (fingerprint, artifact) in (
                summaries.get(key).items()
            ):
                entries += 1
                assert defining_file(cold.callgraph, root) == name
                assert (artifact.ext_index, artifact.root) == (
                    ext_index, root)
                assert not hasattr(artifact, "summary")
                assert "summary" not in artifact.__getstate__()
        assert entries == cold.stats.count("summary_stores")

    def test_manifest_pins_stay_bounded_across_edits(self, tmp_path):
        gen = generate_project(seed=7, n_modules=3, functions_per_module=6)
        cache = tmp_path / "cache"
        self._cold(tmp_path, gen, cache)
        for step in range(3):
            gen, __ = apply_function_edits(gen, k=1, seed=20 + step)
            last, paths = self._cold(tmp_path, gen, cache)
        doc = load_pack_manifest(cache)
        # One pack per file and only the last compile's AST keys.
        assert set(doc["packs"]) == root_files(last.callgraph)
        assert doc["ast_keys"] == {
            name: sorted(keys) for name, keys in last.ast_keys_used.items()
        }
        pinned_ast = {key for keys in doc["ast_keys"].values()
                      for key in keys}
        assert len(pinned_ast) == 2 * len(paths)  # AST frame + record

        # Age every frame: GC keeps exactly the pinned ones.
        backend = LocalStore(str(cache))
        age_every_frame(backend)
        counters = backend.gc(cutoff_days=1.0)
        assert counters["gc_summary_frames_dropped"] > 0
        assert counters["gc_ast_frames_dropped"] > 0
        assert set(backend.list_tier("sum")) == set(doc["packs"].values())
        assert set(backend.list_tier("ast")) == pinned_ast

        warm = compiled_project(tmp_path, paths, cache)
        result = warm.run(incr_checkers(), incremental=make_session(cache))
        assert warm.stats.count("incremental_roots_analyzed") == 0
        assert warm.stats.count("incremental_roots_replayed") == len(
            warm.callgraph.roots())
        reference = compiled_project(tmp_path, paths).run(incr_checkers())
        assert report_keys(result) == report_keys(reference)

    def test_deleted_file_drops_its_pins(self, tmp_path):
        gen = generate_project(seed=7, n_modules=3, functions_per_module=6)
        cache = tmp_path / "cache"
        cold, paths = self._cold(tmp_path, gen, cache)
        doomed = paths[-1]
        old = load_pack_manifest(cache)
        assert doomed in old["packs"] and doomed in old["ast_keys"]

        os.remove(doomed)
        rest = paths[:-1]
        after = compiled_project(tmp_path, rest, cache)
        result = after.run(incr_checkers(), incremental=make_session(cache))
        doc = load_pack_manifest(cache)
        assert doomed not in doc["packs"]
        assert doomed not in doc["ast_keys"]
        assert set(doc["packs"]) == root_files(after.callgraph)

        # Aged past the cutoff, the deleted file's pack and AST frames
        # are collected; everything else survives.
        backend = LocalStore(str(cache))
        age_every_frame(backend)
        backend.gc(cutoff_days=1.0)
        assert old["packs"][doomed] not in backend.list_tier("sum")
        assert not set(old["ast_keys"][doomed]) & set(
            backend.list_tier("ast"))
        reference = compiled_project(tmp_path, rest).run(incr_checkers())
        assert report_keys(result) == report_keys(reference)


class TestIncrementalCLI:
    def _write(self, tmp_path, gen):
        return write_tree(tmp_path, gen)

    def test_requires_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--checker", "free", "--incremental", "x.c"])

    def test_incompatible_with_dump_summaries(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "--checker", "free", "--incremental", "--cache-dir",
                str(tmp_path / "c"), "--dump", "summaries", "x.c",
            ])

    def test_cold_and_warm_output_byte_identical(self, tmp_path, capsys):
        gen = generate_project(seed=9, n_modules=3, functions_per_module=6)
        paths = self._write(tmp_path, gen)
        args = [
            "--checker", "free", "--checker", "lock", "-I", str(tmp_path),
            "--cache-dir", str(tmp_path / "cache"), "--incremental",
        ]
        main(args + paths)
        cold_out = capsys.readouterr().out
        apply_function_edits(gen, k=1, seed=2)[0]
        edited, __ = apply_function_edits(gen, k=1, seed=2)
        self._write(tmp_path, edited)
        main(args + paths)
        warm_out = capsys.readouterr().out
        # Plain run over the edited tree, no cache at all.
        main([
            "--checker", "free", "--checker", "lock", "-I", str(tmp_path),
        ] + paths)
        reference_out = capsys.readouterr().out
        assert warm_out == reference_out
        assert cold_out  # the generator always plants findable bugs

    def test_stats_json_has_schema_and_incremental_counters(
        self, tmp_path, capsys
    ):
        gen = generate_project(seed=9, n_modules=2, functions_per_module=5)
        paths = self._write(tmp_path, gen)
        stats_path = tmp_path / "stats.json"
        args = [
            "--checker", "free", "-I", str(tmp_path),
            "--cache-dir", str(tmp_path / "cache"), "--incremental",
            "--stats-json", str(stats_path),
        ]
        main(args + paths)
        capsys.readouterr()
        cold = json.loads(stats_path.read_text())
        assert cold["schema_version"] == 20
        assert cold["counters"]["incremental_cold_runs"] == 1
        assert cold["counters"]["summary_stores"] > 0
        main(args + paths)
        capsys.readouterr()
        warm = json.loads(stats_path.read_text())
        assert warm["counters"]["summary_hits"] > 0
        assert warm["counters"]["incremental_roots_analyzed"] == 0
        assert "incremental_dirty_cone" in warm["counters"]

    def test_pass2_wall_covers_the_session(self, tmp_path, capsys,
                                           monkeypatch):
        """A warm run's pass 2 is mostly the session's own work (pack
        reads, merge, persist); ``pass2_wall`` must time it, not only
        the analysis of the dirty cone."""
        gen = generate_project(seed=9, n_modules=2, functions_per_module=5)
        paths = self._write(tmp_path, gen)
        stats_path = tmp_path / "stats.json"
        args = [
            "--checker", "free", "-I", str(tmp_path),
            "--cache-dir", str(tmp_path / "cache"), "--incremental",
            "--stats-json", str(stats_path),
        ] + paths
        main(args)
        load = IncrementalSession._load_clean_artifacts

        def slow_load(*load_args, **kwargs):
            time.sleep(0.05)
            return load(*load_args, **kwargs)

        monkeypatch.setattr(IncrementalSession, "_load_clean_artifacts",
                            slow_load)
        main(args)
        capsys.readouterr()
        warm = json.loads(stats_path.read_text())
        assert warm["counters"]["incremental_roots_analyzed"] == 0
        assert warm["timers_s"]["pass2_wall"] >= 0.05


class TestAcceptance:
    def test_single_edit_on_large_project_reanalyzes_under_quarter(
        self, tmp_path
    ):
        # >= 200 functions (ISSUE acceptance): 5 modules x 40 + entries.
        gen = generate_project(
            seed=13, n_modules=5, functions_per_module=40, bug_rate=0.1
        )
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        cold = compiled_project(tmp_path, paths, cache)
        assert cold.total_functions() >= 200
        cold.run(incr_checkers(), incremental=make_session(cache))

        edited, __ = apply_function_edits(gen, k=1, seed=1)
        paths = write_tree(tmp_path, edited)
        warm = compiled_project(tmp_path, paths, cache)
        incremental = warm.run(
            incr_checkers(), incremental=make_session(cache)
        )
        reference_project = compiled_project(tmp_path, paths)
        reference = reference_project.run(incr_checkers())
        assert report_keys(incremental) == report_keys(reference)
        counters = warm.stats.counters
        total_roots = len(reference_project.callgraph.roots())
        assert counters["incremental_roots_analyzed"] < 0.25 * total_roots
