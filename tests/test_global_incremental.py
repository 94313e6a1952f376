"""Differential tests for incremental *global* checkers (docs/DRIVER.md,
"Annotation deltas").

The incremental session used to fall back to a full re-analysis whenever
an extension touched cross-root state (AST annotations or user globals).
These tests pin the replacement behaviour: per-(extension, root) deltas
are persisted and replayed, warm ranked reports are byte-identical to
cold ones across no-edit / one-edit / multi-edit / parallel runs, a
clean root whose read set intersects a changed delta re-enters the dirty
cone, unserializable cross-root state is never persisted, concurrent
manifest stores merge instead of clobbering, and ``--cache-gc`` sweeps
only what no fresh manifest pins.
"""

import json
import os
import threading
import time

import pytest

from repro.checkers import audit_checker, free_checker, path_kill_extension
from repro.codegen.project_gen import (
    GeneratedProject,
    apply_function_edits,
    generate_global_project,
)
from repro.driver import cache as astcache
from repro.driver.cli import main
from repro.driver.project import Project
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.store import LocalStore
from repro.engine import deltas as deltamod
from repro.engine.analysis import AnalysisOptions
from repro.metal import ANY_ARGUMENTS, ANY_FN_CALL, ANY_POINTER, Extension
from repro.ranking.severity import stratify


def global_suite():
    """Composition with cross-root state on both channels: pathkill
    (annotations), free (plain per-root), audit (user globals)."""
    return [
        path_kill_extension(),
        free_checker(("kfree", "vfree")),
        audit_checker(),
    ]


GLOBAL_CHECKER_NAMES = ["pathkill", "free", "audit"]


def ranked_text(result):
    """The full ranked report, traces included -- the byte-identity
    oracle (same shape the CLI prints)."""
    return "\n".join(r.format_trace() for r in stratify(result.reports))


def write_tree(tmp_path, gen):
    for name, text in gen.files.items():
        (tmp_path / name).write_text(text)
    return sorted(
        str(tmp_path / name) for name in gen.files if name.endswith(".c")
    )


def compiled_project(tmp_path, paths, cache_dir=None, jobs=1):
    project = Project(
        include_paths=[str(tmp_path)],
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    project.compile_files(paths, jobs=jobs)
    return project


def make_session(cache_dir, names=GLOBAL_CHECKER_NAMES, options=None):
    return IncrementalSession(
        str(cache_dir),
        session_signature(checker_names=names,
                          options=options or AnalysisOptions()),
    )


class TestGlobalDifferential:
    def _reference(self, tmp_path, paths, checkers=None):
        project = compiled_project(tmp_path, paths)
        return project, project.run(checkers or global_suite())

    def test_cold_and_warm_byte_identical(self, tmp_path):
        gen = generate_global_project(seed=3)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        __, reference = self._reference(tmp_path, paths)
        assert reference.reports  # duplicate audit tags + injected bugs

        cold = compiled_project(tmp_path, paths, cache)
        first = cold.run(global_suite(), incremental=make_session(cache))
        assert ranked_text(first) == ranked_text(reference)
        assert cold.stats.count("incremental_fallbacks") == 0
        assert cold.stats.count("summary_stores") > 0

        warm = compiled_project(tmp_path, paths, cache)
        second = warm.run(global_suite(), incremental=make_session(cache))
        assert ranked_text(second) == ranked_text(reference)
        counters = warm.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        assert counters["incremental_coupled_runs"] == 1
        assert counters["incremental_roots_analyzed"] == 0
        assert counters["incremental_roots_replayed"] > 0
        assert counters["annotation_delta_replays"] > 0
        # Warm-run provenance: the engine counters cover only analyzed
        # roots, and the result says so explicitly.
        assert second.stats["stats_coverage"] == "analyzed-roots-only"
        assert second.stats["incremental_analyzed_pairs"] == 0
        assert second.stats["incremental_replayed_pairs"] > 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_warm_after_k_edits_byte_identical(self, tmp_path, k):
        gen = generate_global_project(seed=3)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        cold = compiled_project(tmp_path, paths, cache)
        cold.run(global_suite(), incremental=make_session(cache))

        edited, __ = apply_function_edits(gen, k=k, seed=11)
        paths = write_tree(tmp_path, edited)
        warm = compiled_project(tmp_path, paths, cache)
        incremental = warm.run(
            global_suite(), incremental=make_session(cache)
        )
        reference_project, reference = self._reference(tmp_path, paths)
        assert ranked_text(incremental) == ranked_text(reference)
        counters = warm.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        assert counters["incremental_roots_analyzed"] < len(
            reference_project.callgraph.roots()
        )
        assert counters["incremental_roots_replayed"] > 0

    def test_warm_parallel_request_forces_serial_and_matches(self, tmp_path):
        gen = generate_global_project(seed=3)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        cold = compiled_project(tmp_path, paths, cache, jobs=2)
        cold.run(global_suite(), incremental=make_session(cache))
        # A cold full run that turns out coupled already is the cold
        # environment: its deltas are kept, nothing is re-run.
        assert cold.stats.count("annotation_delta_rounds") == 1
        assert cold.stats.count("incremental_fallbacks") == 0

        edited, __ = apply_function_edits(gen, k=2, seed=5)
        paths = write_tree(tmp_path, edited)
        warm = compiled_project(tmp_path, paths, cache, jobs=2)
        incremental = warm.run(
            global_suite(), incremental=make_session(cache))
        __, reference = self._reference(tmp_path, paths)
        assert ranked_text(incremental) == ranked_text(reference)
        counters = warm.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        # Known-coupled from the cached deltas: delta replay from the
        # start, not discovered by a wasted run.
        assert counters["incremental_coupled_runs"] == 1
        # The only extra round is the validation round that found stale
        # replays.
        assert counters["annotation_delta_rounds"] == 1 + bool(
            counters.get("annotation_delta_stale_demotions"))

    def test_audit_tag_edit_reenters_readers_into_cone(self, tmp_path):
        """The soundness condition: retagging one claimant changes the
        tag_owners global every other audit root reads, so the readers
        must re-enter the dirty cone (a blind replay would keep reporting
        the old duplicate set)."""
        gen = generate_global_project(seed=3)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)
        cold = compiled_project(tmp_path, paths, cache)
        before = cold.run(global_suite(), incremental=make_session(cache))

        files = dict(gen.files)
        assert "audit(7)" in files["module_0.c"]
        files["module_0.c"] = files["module_0.c"].replace(
            "audit(7)", "audit(9)"
        )
        retagged = GeneratedProject(files, list(gen.bugs), gen.seed)
        paths = write_tree(tmp_path, retagged)
        warm = compiled_project(tmp_path, paths, cache)
        incremental = warm.run(
            global_suite(), incremental=make_session(cache)
        )
        __, reference = self._reference(tmp_path, paths)
        assert ranked_text(incremental) == ranked_text(reference)
        # The duplicate set genuinely changed (tag 7's first claimant is
        # now module 1), so identity above is not vacuous.
        assert ranked_text(incremental) != ranked_text(before)
        counters = warm.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        demotions = counters.get(
            "annotation_delta_read_demotions", 0
        ) + counters.get("annotation_delta_stale_demotions", 0)
        assert demotions >= 1
        # More roots re-analyzed than the fingerprint cone alone asked for.
        assert counters["incremental_roots_analyzed"] > counters[
            "incremental_dirty_cone"
        ]
        assert counters["incremental_roots_replayed"] > 0

    def test_replayed_annotations_feed_analyzed_sweep(self, tmp_path):
        """An analyzed root that sweeps the annotation store
        (``nodes_with``) must observe clean roots' *replayed* annotation
        writes, or its report text drifts from a cold run's."""

        def sweep_suite():
            marker = Extension("site_marker")
            marker.decl("fn", ANY_FN_CALL)
            marker.decl("args", ANY_ARGUMENTS)

            def is_kfree(context):
                from repro.cfront import astnodes as ast

                node = context.bindings.get("fn")
                return isinstance(node, ast.Ident) and node.name == "kfree"

            from repro.metal.patterns import AndPattern, Callout

            marker.transition(
                "start",
                AndPattern(
                    marker._compile_pattern_text("{ fn(args) }"),
                    Callout(is_kfree, "kfree call"),
                ),
                action=lambda ctx: ctx.annotate(
                    ctx.point, "kfree_site", True
                ),
            )

            counter = Extension("site_counter")
            counter.decl("cargs", ANY_ARGUMENTS)

            def tally(ctx):
                sites = ctx.engine.annotations.nodes_with("kfree_site")
                ctx.err("%d kfree sites marked", len(sites))

            counter.transition(
                "start", "{ mark_total(cargs) }", action=tally
            )
            return [marker, counter]

        source = (
            "struct device { int flags; };\n"
            "void use1(struct device *p) { kfree(p); }\n"
            "void use2(struct device *p) {\n"
            "    if (p->flags) { kfree(p); }\n"
            "    kfree(p);\n"
            "}\n"
            "int tally_sites(struct device *p) { mark_total(p); return 0; }\n"
        )
        (tmp_path / "a.c").write_text(source)
        cache = tmp_path / "cache"
        paths = [str(tmp_path / "a.c")]

        def session():
            return make_session(cache, names=["site_marker", "site_counter"])

        cold = compiled_project(tmp_path, paths, cache)
        first = cold.run(sweep_suite(), incremental=session())
        assert ["3 kfree sites marked" in r.message for r in first.reports
                if r.checker == "site_counter"] == [True]

        # Edit use1 to free twice: the sweep root must re-count to 4 and
        # can only get there by reading use2's replayed annotations.
        (tmp_path / "a.c").write_text(
            source.replace("{ kfree(p); }\nvoid use2",
                           "{ kfree(p); kfree(p); }\nvoid use2")
        )
        warm = compiled_project(tmp_path, paths, cache)
        second = warm.run(sweep_suite(), incremental=session())
        reference = compiled_project(tmp_path, paths).run(sweep_suite())
        assert ranked_text(second) == ranked_text(reference)
        assert ["4 kfree sites marked" in r.message for r in second.reports
                if r.checker == "site_counter"] == [True]
        counters = warm.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        # use1 was the fingerprint cone; tally_sites re-entered via its
        # ("ann*",) wildcard read; use2 was replayed.
        assert counters["annotation_delta_read_demotions"] >= 1
        assert counters["incremental_roots_analyzed"] == 2
        assert counters["incremental_roots_replayed"] == 1

    def test_unserializable_global_is_never_persisted(self, tmp_path):
        """A checker stashing an unpicklable value in its globals cannot
        be replayed; its roots simply re-analyze every run (loudly
        counted) while everything else stays incremental."""

        def opaque_suite():
            ext = Extension("opaque_writer")
            ext.state_var("v", ANY_POINTER)

            def stash(ctx):
                ctx.globals["callback"] = lambda: None

            ext.transition("start", "{ kfree(v) }", to="v.freed",
                           action=stash)
            return [ext]

        gen = generate_global_project(seed=3, n_modules=2,
                                      functions_per_module=4)
        cache = tmp_path / "cache"
        paths = write_tree(tmp_path, gen)

        def session():
            return make_session(cache, names=["opaque_writer"])

        cold = compiled_project(tmp_path, paths, cache)
        first = cold.run(opaque_suite(), incremental=session())
        assert cold.stats.count("annotation_delta_opaque_roots") > 0
        assert cold.stats.count("incremental_fallbacks") == 0

        warm = compiled_project(tmp_path, paths, cache)
        second = warm.run(opaque_suite(), incremental=session())
        reference = compiled_project(tmp_path, paths).run(opaque_suite())
        assert ranked_text(second) == ranked_text(reference)
        assert ranked_text(first) == ranked_text(reference)
        counters = warm.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        # The opaque (kfree-touching) roots re-analyzed; the rest replayed.
        assert counters["annotation_delta_opaque_roots"] > 0
        assert counters["incremental_roots_analyzed"] > 0
        assert counters["incremental_roots_replayed"] > 0


class TestDeltaUnits:
    def test_tracked_globals_records_reads_and_writes(self):
        tracker = deltamod.DeltaTracker(["fn"])
        tracker.begin_root()
        globs = deltamod.TrackedGlobals("ext", tracker)
        globs["a"] = 1
        assert globs.get("b") is None
        assert "c" not in globs
        list(globs)
        delta = tracker.end_root(_EmptyStore(), {"ext": globs})
        assert delta.glob_writes == {("ext", "a"): 1}
        assert ("glob", "ext", "b") in delta.reads
        assert ("glob", "ext", "c") in delta.reads
        assert ("glob*", "ext") in delta.reads
        assert not delta.opaque

    def test_net_effect_only(self):
        tracker = deltamod.DeltaTracker(["fn"])
        tracker.begin_root()
        globs = deltamod.TrackedGlobals("ext", tracker)
        globs["a"] = 1
        del globs["a"]
        delta = tracker.end_root(_EmptyStore(), {"ext": globs})
        # Written then deleted inside one root: invisible to later roots.
        assert delta.glob_writes == {}
        assert delta.glob_dels == set()

    def test_deletion_of_prior_state_is_recorded(self):
        tracker = deltamod.DeltaTracker(["fn"])
        globs = deltamod.TrackedGlobals("ext", tracker)
        tracker.begin_root()
        globs["a"] = 1
        tracker.end_root(_EmptyStore(), {"ext": globs})
        tracker.begin_root()
        del globs["a"]
        delta = tracker.end_root(_EmptyStore(), {"ext": globs})
        assert delta.glob_dels == {("ext", "a")}

    def test_unpicklable_value_marks_opaque(self):
        tracker = deltamod.DeltaTracker(["fn"])
        tracker.begin_root()
        globs = deltamod.TrackedGlobals("ext", tracker)
        globs["cb"] = lambda: None
        delta = tracker.end_root(_EmptyStore(), {"ext": globs})
        assert delta.opaque
        assert delta.has_writes()

    def test_delta_changes_none_means_fully_changed(self):
        new = deltamod.RootDelta(
            glob_writes={("ext", "a"): 1},
            ann_writes=[(("fn", "Call", "f.c", 3, 1, "d"), "k", True)],
        )
        fns, globs = deltamod.delta_changes(None, new)
        assert fns == {"fn"}
        assert globs == {("glob", "ext", "a")}
        assert deltamod.delta_changes(new, new) == (set(), set())

    def test_delta_changes_detects_value_and_deletion(self):
        old = deltamod.RootDelta(glob_writes={("ext", "a"): 1,
                                              ("ext", "b"): 2})
        new = deltamod.RootDelta(glob_writes={("ext", "a"): 5},
                                 glob_dels={("ext", "b")})
        __, globs = deltamod.delta_changes(old, new)
        assert globs == {("glob", "ext", "a"), ("glob", "ext", "b")}


class _EmptyStore:
    def get(self, node, key, default=None):
        return default


class TestManifestMerge:
    def test_concurrent_sessions_merge_instead_of_clobber(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        store.store_manifest("sig", {"f": ["l1", "m1"]},
                             packs={"f.c": "k1"}, ast_keys={"f.c": ["a1"]})
        store.store_manifest("sig", {"g": ["l2", "m2"]},
                             packs={"g.c": "k2"}, ast_keys={"g.c": ["a2"]})
        doc = store.load_manifest("sig")
        assert doc["fingerprints"] == {"f": ["l1", "m1"],
                                       "g": ["l2", "m2"]}
        assert doc["packs"] == {"f.c": "k1", "g.c": "k2"}
        assert doc["ast_keys"] == {"f.c": ["a1"], "g.c": ["a2"]}

    def test_latest_store_wins_for_shared_functions(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        store.store_manifest("sig", {"f": ["old", "old"]})
        store.store_manifest("sig", {"f": ["new", "new"]})
        assert store.load_manifest("sig")["fingerprints"] == {
            "f": ["new", "new"]}

    def test_dropped_files_leave_the_merge(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        store.store_manifest("sig", {"f": ["l1", "m1"]},
                             packs={"f.c": "k1", "g.c": "k2"},
                             ast_keys={"f.c": ["a1"], "g.c": ["a2"]})
        store.store_manifest("sig", {"h": ["l3", "m3"]},
                             packs={"h.c": "k3"}, dropped=["g.c"])
        doc = store.load_manifest("sig")
        assert doc["packs"] == {"f.c": "k1", "h.c": "k3"}
        assert doc["ast_keys"] == {"f.c": ["a1"]}
        assert set(doc["fingerprints"]) == {"f", "h"}

    def test_threaded_stores_all_survive(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        errors = []

        def one(i):
            try:
                store.store_manifest(
                    "sig", {"fn_%d" % i: ["l%d" % i, "m%d" % i]},
                    packs={"file_%d.c" % i: "frame_%d" % i},
                )
            except Exception as err:  # pragma: no cover - diagnostic
                errors.append(err)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        doc = store.load_manifest("sig")
        assert set(doc["fingerprints"]) == {"fn_%d" % i for i in range(16)}
        assert doc["packs"] == {
            "file_%d.c" % i: "frame_%d" % i for i in range(16)
        }


class TestCacheGC:
    def _age(self, path, days):
        stamp = time.time() - days * 86400.0
        os.utime(path, (stamp, stamp))

    def _aged_frame(self, backend, key, days=2):
        astcache.SummaryCache(backend).store_many({key: _artifact()})
        backend.touch_many("sum", [key], ts=time.time() - days * 86400.0)

    def test_unpinned_old_frames_dropped_pinned_and_fresh_kept(
        self, tmp_path
    ):
        backend = LocalStore(str(tmp_path))
        store = astcache.SummaryCache(backend)
        artifact_key = "aa" * 32
        pinned_key = "bb" * 32
        fresh_key = "cc" * 32
        self._aged_frame(backend, artifact_key)
        self._aged_frame(backend, pinned_key)
        store.store_many({fresh_key: _artifact()})
        store.store_manifest("sig", {"f": ["l", "m"]},
                             packs={"f.c": pinned_key})
        old_ast = astcache.AstCache(backend).store("dd" * 32, b"payload")
        self._age(old_ast, 2)

        counters = backend.gc(cutoff_days=1.0)
        assert counters["gc_summary_frames_dropped"] == 1
        assert counters["gc_ast_frames_dropped"] == 1
        assert counters["gc_manifests_dropped"] == 0
        # Old and unpinned goes; old but pinned, and fresh, stay.
        assert backend.head_many(
            "sum", [artifact_key, pinned_key, fresh_key]) == {
                pinned_key, fresh_key}

    def test_stale_manifest_dropped_and_unpins_its_frames(self, tmp_path):
        backend = LocalStore(str(tmp_path))
        store = astcache.SummaryCache(backend)
        key = "ee" * 32
        self._aged_frame(backend, key)
        store.store_manifest("sig", {"f": ["l", "m"]}, packs={"f.c": key})
        self._age(store.manifest_path("sig"), 2)
        counters = backend.gc(cutoff_days=1.0)
        assert counters["gc_manifests_dropped"] == 1
        assert counters["gc_summary_frames_dropped"] == 1
        assert store.load_manifest("sig") is None

    def test_cli_standalone_gc(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        backend = LocalStore(str(cache_dir))
        key = "ff" * 32
        self._aged_frame(backend, key)
        stats_path = tmp_path / "gc.json"
        rc = main([
            "--cache-gc", "--cache-gc-days", "1",
            "--cache-dir", str(cache_dir),
            "--stats-json", str(stats_path),
        ])
        capsys.readouterr()
        assert rc == 0
        stats = json.loads(stats_path.read_text())
        assert stats["schema_version"] == 20
        assert stats["counters"]["gc_summary_frames_dropped"] == 1
        assert not backend.head_many("sum", [key])

    def test_cli_gc_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["--cache-gc", "x.c"])

    def test_cli_gc_composes_with_a_run(self, tmp_path, capsys):
        gen = generate_global_project(seed=3, n_modules=2,
                                      functions_per_module=3)
        paths = write_tree(tmp_path, gen)
        cache_dir = tmp_path / "cache"
        self._aged_frame(LocalStore(str(cache_dir)), "ab" * 32)
        stats_path = tmp_path / "stats.json"
        rc = main([
            "--checker", "free", "-I", str(tmp_path),
            "--cache-dir", str(cache_dir), "--incremental",
            "--cache-gc", "--cache-gc-days", "1",
            "--stats-json", str(stats_path),
        ] + paths)
        capsys.readouterr()
        assert rc in (0, 1)  # findings present -> 1
        stats = json.loads(stats_path.read_text())
        assert stats["counters"]["gc_summary_frames_dropped"] == 1
        assert stats["counters"]["incremental_cold_runs"] == 1


def _artifact():
    from repro.engine.summaries import RootArtifact

    return RootArtifact(
        ext_index=0, extension="free", root="f", reports=[], examples={},
        counterexamples={}, degraded=[], clean=True,
    )
