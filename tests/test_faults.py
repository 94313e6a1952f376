"""Fault-matrix tests: every injection point x every recovery path
(docs/TESTING.md).

Each scenario injects a failure through :mod:`repro.faults` (or damages
state directly), then asserts the two degradation invariants: results
from unaffected work are byte-identical to a fault-free run, and the
driver/engine stats enumerate exactly what was survived.

Pool width comes from ``XGCC_FAULT_JOBS`` when set (CI runs the suite
under both 1 and 4); otherwise both widths run.
"""

import json
import os
import time

import pytest

from repro import faults
from repro.checkers import free_checker
from repro.cfront.parser import parse
from repro.codegen.project_gen import default_checkers, generate_project
from repro.driver import cache as astcache
from repro.driver.cli import main
from repro.driver.project import Project
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.stats import DriverStats
from repro.driver.store import LocalStore
from repro.engine.analysis import Analysis, AnalysisOptions

_ENV_JOBS = os.environ.get("XGCC_FAULT_JOBS")
JOBS = [int(_ENV_JOBS)] if _ENV_JOBS else [1, 4]
POOL_JOBS = [j for j in JOBS if j > 1] or [4]


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.clear()


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A seeded multi-component project on disk plus its fault-free
    baseline report keys."""
    root = str(tmp_path_factory.mktemp("workload"))
    generated = generate_project(
        seed=7, n_modules=3, functions_per_module=4, cross_calls=False
    )
    paths = []
    for name, text in generated.files.items():
        path = os.path.join(root, name)
        with open(path, "w") as handle:
            handle.write(text)
        if name.endswith(".c"):
            paths.append(path)
    paths.sort()
    project = Project(include_paths=[root])
    project.compile_files(paths)
    baseline = project.run(default_checkers())
    assert baseline.reports, "workload must produce findings"
    return {
        "root": root,
        "paths": paths,
        "baseline_keys": [r.identity() for r in baseline.reports],
        "roots": project.callgraph.roots(),
    }


def _fresh(workload, **kwargs):
    return Project(include_paths=[workload["root"]], **kwargs)


def _keys(result):
    return [r.identity() for r in result.reports]


def _first_cache_entry(cache_dir):
    for dirpath, __, filenames in sorted(os.walk(cache_dir)):
        for name in sorted(filenames):
            if name.endswith(".ast"):
                return os.path.join(dirpath, name)
    raise AssertionError("no cache entries under %s" % cache_dir)


class TestFaultPlanUnit:
    """The injection machinery itself must be deterministic."""

    def test_times_counts_attempts(self):
        with faults.injected([{"site": "pass1.parse", "times": 2}]):
            assert faults.fires("pass1.parse") is not None
            assert faults.fires("pass1.parse") is not None
            assert faults.fires("pass1.parse") is None

    def test_key_narrows_the_fault(self):
        with faults.injected([{"site": "pass1.parse", "key": "a.c"}]):
            assert faults.fires("pass1.parse", key="b.c") is None
            assert faults.fires("pass1.parse", key="a.c") is not None

    def test_probability_is_stateless_and_stable(self):
        with faults.injected(
            [{"site": "pass1.parse", "probability": 0.5}], seed=42
        ):
            verdicts = [
                faults.fires("pass1.parse", key=k) is not None
                for k in ("a.c", "b.c", "c.c", "d.c")
            ]
            # Same plan, same keys -> same verdicts, every time.
            assert verdicts == [
                faults.fires("pass1.parse", key=k) is not None
                for k in ("a.c", "b.c", "c.c", "d.c")
            ]
        with faults.injected(
            [{"site": "pass1.parse", "probability": 1.0}], seed=42
        ):
            assert faults.fires("pass1.parse", key="x.c") is not None
        with faults.injected(
            [{"site": "pass1.parse", "probability": 0.0}], seed=42
        ):
            assert faults.fires("pass1.parse", key="x.c") is None

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            faults.install([{"site": "no.such.site"}])
        faults.clear()

    @pytest.mark.parametrize(
        "site", ["pass2.worker.kill", "pass2.worker.hang", "pass2.analysis"])
    def test_pass2_sites_rejected(self, site):
        # Pass 2 runs in the installing process: no worker to fault.
        with pytest.raises(ValueError):
            faults.install([{"site": site}])
        faults.clear()

    def test_clear_removes_plan_and_env(self):
        faults.install([{"site": "pass1.parse"}])
        assert faults.active()
        faults.clear()
        assert not faults.active()
        assert faults.ENV_VAR not in os.environ

    def test_check_raises_injected_fault(self):
        with faults.injected([{"site": "pass1.parse"}]):
            with pytest.raises(faults.InjectedFault):
                faults.check("pass1.parse", key="x.c")


class TestPass1Recovery:
    @pytest.mark.parametrize("jobs", POOL_JOBS)
    def test_worker_kill_recovered_on_retry(self, workload, jobs):
        with faults.injected(
            [{"site": "pass1.worker.kill", "key": workload["paths"][0],
              "times": 1}]
        ):
            project = _fresh(workload)
            project.compile_files(workload["paths"], jobs=jobs)
        assert [c.filename for c in project.compiled] == workload["paths"]
        assert project.stats.count("pass1_worker_retries") >= 1
        kinds = [d["kind"] for d in project.stats.degradations]
        assert "worker" in kinds
        result = project.run(default_checkers())
        assert _keys(result) == workload["baseline_keys"]

    @pytest.mark.parametrize("jobs", POOL_JOBS)
    def test_parser_raise_recovered_in_process(self, workload, jobs):
        # Two fires: the batch worker and the isolated retry both raise,
        # so recovery must come from the in-process fallback.
        with faults.injected(
            [{"site": "pass1.parse", "key": workload["paths"][0],
              "times": 2}]
        ):
            project = _fresh(workload)
            project.compile_files(workload["paths"], jobs=jobs)
        assert project.stats.count("pass1_inprocess_fallbacks") == 1
        assert [c.filename for c in project.compiled] == workload["paths"]
        result = project.run(default_checkers())
        assert _keys(result) == workload["baseline_keys"]

    @pytest.mark.parametrize("jobs", POOL_JOBS)
    def test_worker_hang_recovered_via_timeout(self, workload, jobs):
        with faults.injected(
            [{"site": "pass1.worker.hang", "key": workload["paths"][0],
              "times": 1, "seconds": 30}]
        ):
            project = _fresh(workload)
            start = time.monotonic()
            project.compile_files(workload["paths"], jobs=jobs,
                                  worker_timeout=1.0)
            assert time.monotonic() - start < 20
        assert project.stats.count("pass1_worker_retries") >= 1
        result = project.run(default_checkers())
        assert _keys(result) == workload["baseline_keys"]

    def test_serial_parse_failure_skips_unit_under_keep_going(self, workload):
        victim = workload["paths"][0]
        with faults.injected([{"site": "pass1.parse", "key": victim}]):
            project = _fresh(workload, keep_going=True)
            project.compile_files(workload["paths"], jobs=1)
        assert project.stats.count("pass1_tasks_skipped") == 1
        assert [c.filename for c in project.compiled] == workload["paths"][1:]
        entry = project.stats.degradations[0]
        assert entry["kind"] == "unit" and victim in entry["detail"]
        # Findings from the surviving units are intact.
        result = project.run(default_checkers())
        survivors = set(_keys(result))
        assert survivors <= set(workload["baseline_keys"])
        assert all(
            key[2] == victim
            for key in set(workload["baseline_keys"]) - survivors
        )

    def test_serial_parse_failure_raises_without_keep_going(self, workload):
        with faults.injected(
            [{"site": "pass1.parse", "key": workload["paths"][0]}]
        ):
            project = _fresh(workload)
            with pytest.raises(faults.InjectedFault):
                project.compile_files(workload["paths"], jobs=1)


class TestCacheRobustness:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "version"])
    @pytest.mark.parametrize("jobs", JOBS)
    def test_corrupt_entry_evicted_and_reparsed(self, workload, tmp_path,
                                                mode, jobs):
        cache = str(tmp_path / "cache")
        cold = _fresh(workload, cache_dir=cache)
        cold.compile_files(workload["paths"], jobs=jobs)
        astcache.corrupt_entry(_first_cache_entry(cache), mode)

        warm = _fresh(workload, cache_dir=cache)
        warm.compile_files(workload["paths"], jobs=jobs)
        assert warm.stats.count("cache_evictions") == 1
        assert warm.stats.count("cache_hits") == len(workload["paths"]) - 1
        assert warm.stats.count("parses") == 1
        entry = warm.stats.degradations[0]
        assert entry["kind"] == "cache"
        result = warm.run(default_checkers())
        assert _keys(result) == workload["baseline_keys"]

        # The eviction re-stored a good entry: the cache self-heals.
        healed = _fresh(workload, cache_dir=cache)
        healed.compile_files(workload["paths"], jobs=jobs)
        assert healed.stats.count("cache_hits") == len(workload["paths"])
        assert healed.stats.count("cache_evictions") == 0

    def test_injected_corruption_at_store_time(self, workload, tmp_path):
        cache = str(tmp_path / "cache")
        with faults.injected(
            [{"site": "cache.corrupt", "times": 1, "mode": "garbage"}]
        ):
            cold = _fresh(workload, cache_dir=cache)
            cold.compile_files(workload["paths"])
        warm = _fresh(workload, cache_dir=cache)
        warm.compile_files(workload["paths"])
        assert warm.stats.count("cache_evictions") == 1
        result = warm.run(default_checkers())
        assert _keys(result) == workload["baseline_keys"]

    def test_unpack_rejects_wrong_payload_type(self):
        import hashlib
        import pickle

        payload = pickle.dumps("not a translation unit")
        framed = (
            astcache.FRAME_MAGIC + hashlib.sha256(payload).digest() + payload
        )
        with pytest.raises(astcache.CacheCorruption):
            astcache.unpack(framed)

    def test_unpack_rejects_legacy_unframed_payload(self, workload,
                                                    tmp_path):
        import pickle

        unit = parse("int f(void) { return 0; }\n", "legacy.c")
        legacy = pickle.dumps(
            {
                "format": 1,
                "parser_version": astcache.PARSER_VERSION,
                "filename": "legacy.c",
                "source_bytes": 26,
                "unit": unit,
            }
        )
        with pytest.raises(astcache.CacheCorruption):
            astcache.unpack(legacy)

        # A pre-checksum entry on disk takes the evict-and-reparse path.
        cache = str(tmp_path / "cache")
        _fresh(workload, cache_dir=cache).compile_files(workload["paths"])
        with open(_first_cache_entry(cache), "wb") as handle:
            handle.write(legacy)
        warm = _fresh(workload, cache_dir=cache)
        warm.compile_files(workload["paths"])
        assert warm.stats.count("cache_evictions") == 1
        assert warm.stats.count("parses") == 1
        result = warm.run(default_checkers())
        assert _keys(result) == workload["baseline_keys"]

    def test_unpack_rejects_truncated_frame(self):
        unit = parse("int f(void) { return 0; }\n", "t.c")
        data = astcache.pack_unit(unit, 26)
        with pytest.raises(astcache.CacheCorruption):
            astcache.unpack(data[: len(data) // 2])


class TestManifestRace:
    """``summary.manifest`` injection: a rival session finishes its
    manifest store in the window between our read and our write.  The
    locked read-merge-write must keep the rival's warm state."""

    def test_rival_entries_survive_the_merge(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        stats = DriverStats()
        with faults.injected([{
            "site": "summary.manifest",
            "fingerprints": {"rival_fn": ["rl", "rm"]},
            "packs": {"rival.c": "rival_frame"},
        }]):
            store.store_manifest(
                "sig", {"our_fn": ["ol", "om"]},
                packs={"ours.c": "our_frame"}, stats=stats,
            )
        doc = store.load_manifest("sig")
        assert doc["fingerprints"] == {
            "our_fn": ["ol", "om"], "rival_fn": ["rl", "rm"],
        }
        assert doc["packs"] == {
            "ours.c": "our_frame", "rival.c": "rival_frame",
        }
        assert stats.count("manifest_merges") == 1

    def test_ours_beat_the_rival_for_shared_functions(self, tmp_path):
        store = astcache.SummaryCache(LocalStore(str(tmp_path)))
        with faults.injected([{
            "site": "summary.manifest",
            "fingerprints": {"shared": ["stale", "stale"]},
        }]):
            store.store_manifest("sig", {"shared": ["fresh", "fresh"]})
        assert store.load_manifest("sig")["fingerprints"] == {
            "shared": ["fresh", "fresh"]}

    def test_incremental_session_survives_interleaved_store(
        self, workload, tmp_path
    ):
        cache = str(tmp_path / "cache")

        def session():
            return IncrementalSession(
                cache, session_signature(checker_names=["free"],
                                         options=AnalysisOptions()),
            )

        checkers = [free_checker(("kfree", "vfree"))]
        cold = _fresh(workload, cache_dir=cache)
        cold.compile_files(workload["paths"])
        with faults.injected([{"site": "summary.manifest"}]):
            first = cold.run(checkers, incremental=session())
        assert cold.stats.count("manifest_merges") == 1

        # The default rival entry landed and persists alongside ours...
        signature = session_signature(
            checker_names=["free"], options=AnalysisOptions()
        )
        summaries = astcache.SummaryCache(LocalStore(cache))
        manifest = summaries.load_manifest(signature)["fingerprints"]
        assert "__rival__" in manifest

        # ...and the warm run is not perturbed: every real root replays.
        warm = _fresh(workload, cache_dir=cache)
        warm.compile_files(workload["paths"])
        second = warm.run(checkers, incremental=session())
        assert _keys(second) == _keys(first)
        assert warm.stats.count("incremental_roots_analyzed") == 0
        assert warm.stats.count("incremental_fallbacks") == 0


class TestEngineDegradation:
    def _reports_by_root(self, workload, extensions):
        """Fault-free serial run: report identities attributed per root."""
        project = _fresh(workload)
        project.compile_files(workload["paths"])
        result = project.analysis(
            AnalysisOptions(capture_root_artifacts=True)).run(extensions)
        per_root = {}
        for artifact in result.root_artifacts:
            per_root.setdefault(artifact.root, []).extend(
                r.identity() for r in artifact.reports
            )
        return per_root

    def test_injected_budget_keeps_other_roots_identical(self, workload):
        extensions = default_checkers()
        per_root = self._reports_by_root(workload, extensions)
        victim = max(per_root, key=lambda root: len(per_root[root]))
        with faults.injected([{"site": "engine.budget", "key": victim}]):
            project = _fresh(workload)
            project.compile_files(workload["paths"])
            result = project.run(default_checkers())
        assert not result.truncated
        assert result.degraded
        assert {d.root for d in result.degraded} == {victim}
        assert all(d.kind == "injected" for d in result.degraded)
        survivors = set(_keys(result))
        lost = set(workload["baseline_keys"]) - survivors
        assert lost <= set(per_root[victim])
        for root, keys in per_root.items():
            if root != victim:
                assert set(keys) <= survivors

    def test_step_budget_degrades_only_offending_root(self):
        # An exponential path-explosion root next to a tiny buggy one.
        chunks = ["int wide(int *p, int a) {", "  int x = 0;", "  kfree(p);"]
        for index in range(24):
            chunks.append("  if (a > %d) { x = x + 1; } else { x = x - 1; }"
                          % index)
        chunks += ["  return x;", "}"]
        chunks += [
            "int buggy(int *p) {",
            "  kfree(p);",
            "  kfree(p);",
            "  return 0;",
            "}",
        ]
        unit = parse("\n".join(chunks), "budget.c")
        options = AnalysisOptions(
            max_steps_per_root=2000, false_path_pruning=False, caching=False
        )
        result = Analysis([unit], options=options).run(free_checker())
        assert not result.truncated
        assert [d.root for d in result.degraded] == ["wide"]
        assert result.degraded[0].kind == "steps"
        assert result.stats["degraded_roots"] == 1
        assert any(r.function == "buggy" for r in result.reports)

    def test_path_budget_records_kind_paths(self):
        chunks = ["int fanout(int *p, int a) {", "  int x = 0;", "  kfree(p);"]
        for index in range(12):
            chunks.append("  if (a > %d) { x = x + 1; } else { x = x - 1; }"
                          % index)
        chunks += ["  return x;", "}"]
        unit = parse("\n".join(chunks), "paths.c")
        options = AnalysisOptions(
            max_paths_per_root=16, false_path_pruning=False, caching=False
        )
        result = Analysis([unit], options=options).run(free_checker())
        assert [d.kind for d in result.degraded] == ["paths"]
        assert not result.truncated

    def test_time_budget_records_kind_time(self):
        unit = parse(
            "int slow(int *p, int a) { int x = 0; kfree(p); x = x + a;"
            " return x; }\n", "slow.c"
        )
        options = AnalysisOptions(max_seconds_per_root=1e-9)
        result = Analysis([unit], options=options).run(free_checker())
        assert [d.kind for d in result.degraded] == ["time"]

    def test_partial_reports_survive_budget_abort(self):
        # The first kfree pair reports before the step budget dies inside
        # the tail of the same root: partial findings must be kept.
        chunks = [
            "int partial(int *p, int a) {",
            "  kfree(p);",
            "  kfree(p);",
            "  int x = 0;",
        ]
        for index in range(24):
            chunks.append("  if (a > %d) { x = x + 1; } else { x = x - 1; }"
                          % index)
        chunks += ["  return x;", "}"]
        unit = parse("\n".join(chunks), "partial.c")
        options = AnalysisOptions(
            max_steps_per_root=2000, false_path_pruning=False, caching=False
        )
        result = Analysis([unit], options=options).run(free_checker())
        assert [d.root for d in result.degraded] == ["partial"]
        assert result.degraded[0].reports_kept >= 1
        assert any(r.function == "partial" for r in result.reports)

    def test_global_budget_still_truncates_but_records(self):
        unit = parse(
            "int a(int *p, int x) { kfree(p); return x; }\n"
            "int b(int *p, int x) { kfree(p); return x; }\n",
            "global.c",
        )
        options = AnalysisOptions(max_steps=1, interprocedural=False)
        result = Analysis([unit], options=options).run(free_checker())
        assert result.truncated
        assert result.degraded[0].kind == "global-steps"

    def test_root_error_policy_degrade(self, workload, monkeypatch):
        extensions = default_checkers()
        per_root = self._reports_by_root(workload, extensions)
        victim = sorted(per_root)[0]
        original = Analysis._run_root

        def explode(self, ext, root):
            if root == victim:
                raise RuntimeError("hostile input")
            return original(self, ext, root)

        monkeypatch.setattr(Analysis, "_run_root", explode)
        project = _fresh(workload)
        project.compile_files(workload["paths"])
        options = AnalysisOptions(root_error_policy="degrade")
        result = project.run(default_checkers(), options)
        assert {d.root for d in result.degraded} == {victim}
        assert all(d.kind == "error" for d in result.degraded)
        for root, keys in per_root.items():
            if root != victim:
                assert set(keys) <= set(_keys(result))

    def test_root_error_policy_raise_is_default(self, workload, monkeypatch):
        def explode(self, ext, root):
            raise RuntimeError("hostile input")

        monkeypatch.setattr(Analysis, "_run_root", explode)
        project = _fresh(workload)
        project.compile_files(workload["paths"])
        with pytest.raises(RuntimeError):
            project.run(default_checkers())


class TestAcceptance:
    """ISSUE 2 acceptance: one run surviving a worker crash, a corrupt
    cache entry, and a budget-exhausted root, with byte-identical
    findings from unaffected roots and all three degradations in
    --stats-json."""

    def test_combined_faults_still_complete(self, workload, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        stats_json = str(tmp_path / "stats.json")
        argv = [
            "--checker", "free", "--checker", "lock",
            "--checker", "mallocfail", "-I", workload["root"],
        ] + workload["paths"]

        # Fault-free baseline (serial, no cache).
        code_baseline = main(argv)
        out_baseline = capsys.readouterr().out

        # Pick a root that reports nothing (so the faulted run's stdout
        # must be byte-identical), attributed via its root artifacts.
        project = _fresh(workload)
        project.compile_files(workload["paths"])
        from repro.checkers import ALL_CHECKERS

        extensions = [ALL_CHECKERS[n]() for n in ("free", "lock", "mallocfail")]
        result = project.analysis(
            AnalysisOptions(capture_root_artifacts=True)).run(extensions)
        reporting = {
            artifact.root for artifact in result.root_artifacts
            if artifact.reports
        }
        quiet_roots = [
            r for r in project.callgraph.roots() if r not in reporting
        ]
        assert quiet_roots, "need a report-free root for the byte-compare"
        victim_root = quiet_roots[0]

        # Warm the cache, then corrupt one entry on disk.
        main(argv + ["--cache-dir", cache])
        capsys.readouterr()
        astcache.corrupt_entry(_first_cache_entry(cache), "garbage")

        # The hostile run: corrupt cache + killed worker + blown budget.
        with faults.injected([
            {"site": "pass1.worker.kill", "key": workload["paths"][0],
             "times": 1},
            {"site": "engine.budget", "key": victim_root},
        ]):
            code_faulted = main(
                argv + ["--cache-dir", cache, "--jobs", "4",
                        "--stats-json", stats_json]
            )
        captured = capsys.readouterr()

        assert code_faulted == code_baseline == 1
        assert captured.out == out_baseline
        with open(stats_json) as handle:
            stats = json.load(handle)
        kinds = {entry["kind"] for entry in stats["degradations"]}
        assert {"worker", "cache", "root"} <= kinds
        assert stats["counters"]["cache_evictions"] == 1
        assert stats["counters"]["pass1_worker_retries"] >= 1
        assert any(
            entry["kind"] == "root" and entry.get("root") == victim_root
            for entry in stats["degradations"]
        )
