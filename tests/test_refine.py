"""Path-feasibility refinement tests (docs/REFINE.md).

The teeth workload is the refinement pass's whole reason to exist: the
``contradictory`` function guards a free with ``x < 5`` and the use
with ``x > 4`` -- the §8 false-path pruner reasons about ``<`` purely
symbolically, so it cannot do the integer off-by-one conversion and
the report survives pruning, while the refinement interval domain
turns the two guards into [..,4] ∩ [5,..] = ∅ and classifies the
report ``infeasible``.  On top of that one differential: the CLI modes
(annotate / demote / drop), the statistical-ranking confidence
feature, verdict caching keyed by (function fingerprint, report hash),
byte-identity across every driver path, ``--prune-runs``, and the
report-pipeline regressions fixed alongside (blank run tokens,
unresolved diff base labels, ``prune(keep=0)`` semantics).
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
from repro.driver.cli import _build_extensions, build_parser, main
from repro.driver.daemon import DaemonClient, XgccDaemon, wait_for_socket
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.store import LocalStore
from repro.engine.analysis import AnalysisOptions
from repro.ranking.statistical import verdict_confidence
from repro.reports.hashing import assign_report_hashes
from repro.reports.history import RunHistory, RunHistoryError
from repro.reports.pipeline import PipelineConfig
from repro.reports.model import Report

free_checker_list = functools.partial(_build_extensions, ("free",), ())

CHECKER_ARGS = ["--checker", "free"]

#: Three single-report functions: one the pruner keeps but the interval
#: domain refutes (strict-inequality off-by-one), one genuinely
#: feasible, one feasible across a loop (exercises the widened family).
TEETH_TREE = {
    "mod.c": (
        "int contradictory(int *p, int x) {\n"
        "    if (x < 5)\n"
        "        kfree(p);\n"
        "    if (x > 4)\n"
        "        return *p;\n"
        "    return 0;\n"
        "}\n"
        "\n"
        "int feasible(int *q, int y) {\n"
        "    if (y > 0)\n"
        "        kfree(q);\n"
        "    if (y > 1)\n"
        "        return *q;\n"
        "    return 0;\n"
        "}\n"
        "\n"
        "int looped(int *r, int n) {\n"
        "    int i;\n"
        "    kfree(r);\n"
        "    for (i = 0; i < n; i++)\n"
        "        n = n - 1;\n"
        "    return *r;\n"
        "}\n"
    ),
}


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.clear()


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
    """``(exit_code, stdout, stderr)`` of one CLI run over ``src``."""
    code = main(CHECKER_ARGS + ["-I", str(src)] + list(extra)
                + c_paths(src))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_json(src, capsys, *extra):
    """The ``--report-json`` document list for one run."""
    __, out, __ = run_cli(src, capsys, "--report-json", "-", *extra)
    docs, __ = json.JSONDecoder().raw_decode(out[out.index("["):])
    return docs


def verdicts_of(docs):
    """``{function: verdict}`` from report documents (None = never
    refined)."""
    out = {}
    for doc in docs:
        feasibility = (doc.get("annotations") or {}).get("feasibility")
        out[doc["function"]] = (
            feasibility.get("verdict") if feasibility else None
        )
    return out


@pytest.fixture
def teeth_tree(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    write_tree(src, TEETH_TREE)
    return src


def counters_from(path):
    with open(str(path)) as handle:
        return json.load(handle)["counters"]


class TestVerdicts:
    def test_teeth_workload_verdicts(self, teeth_tree, capsys):
        docs = report_json(teeth_tree, capsys, "--refine=annotate")
        assert verdicts_of(docs) == {
            "contradictory": "infeasible",
            "feasible": "confirmed",
            "looped": "confirmed",
        }

    def test_a_guard_on_the_error_line_is_not_the_error(self, tmp_path,
                                                        capsys):
        # The error's anchor is the dereference's node, not its line:
        # the false edge of ``y == 0`` on line 6 must not count as
        # having executed ``*p``, which only the true edge reaches.
        src = tmp_path / "src"
        src.mkdir()
        body = (
            "    int x = 0;\n"
            "    kfree(p);\n"
            "    if (y == 0) return 0;\n"
            "    if (y == %d) return *p;\n"
            "    return 1;\n"
            "}\n"
        )
        write_tree(src, {"mod.c": (
            "void kfree(void *p);\n"
            "int f(int *p, int y) {\n" + body % 0
            + "int twin(int *p, int y) {\n" + body % 1
        )})
        docs = report_json(src, capsys, "--no-false-path-pruning",
                           "--refine=annotate")
        assert [(doc["function"], doc["location"]["line"],
                 doc["location"]["column"]) for doc in docs] == [
            ("f", 6, 24), ("twin", 13, 24)]
        verdicts = verdicts_of(docs)
        assert verdicts["f"] != "confirmed"
        assert verdicts["twin"] == "confirmed"

    def test_default_run_never_refines(self, teeth_tree, capsys):
        docs = report_json(teeth_tree, capsys)
        assert verdicts_of(docs) == {
            "contradictory": None, "feasible": None, "looped": None,
        }

    def test_annotate_mode_keeps_text_byte_identical(
        self, teeth_tree, capsys
    ):
        __, baseline, __ = run_cli(teeth_tree, capsys)
        __, annotated, __ = run_cli(teeth_tree, capsys,
                                    "--refine=annotate")
        assert annotated == baseline

    def test_bare_refine_flag_defaults_to_demote(self):
        args = build_parser().parse_args(
            ["--checker", "free", "mod.c", "--refine"]
        )
        assert args.refine == "demote"
        assert build_parser().parse_args(
            ["--checker", "free", "mod.c"]
        ).refine is None


class TestModes:
    def test_demote_sinks_the_infeasible_report(self, teeth_tree, capsys):
        docs = report_json(teeth_tree, capsys, "--refine=demote")
        assert len(docs) == 3
        assert docs[-1]["function"] == "contradictory"
        assert [d["annotations"]["rank"] for d in docs] == [1, 2, 3]
        # The demoted report is still present and annotated, not lost.
        assert docs[-1]["annotations"]["feasibility"]["verdict"] == \
            "infeasible"

    def test_drop_removes_the_infeasible_report(self, teeth_tree, capsys):
        docs = report_json(teeth_tree, capsys, "--refine=drop")
        assert verdicts_of(docs) == {
            "feasible": "confirmed", "looped": "confirmed",
        }
        # Survivor ranks renumber 1-based and gapless.
        assert [d["annotations"]["rank"] for d in docs] == [1, 2]

    def test_drop_keeps_exit_code_one_while_reports_remain(
        self, teeth_tree, capsys
    ):
        code, out, __ = run_cli(teeth_tree, capsys, "--refine=drop")
        assert code == 1
        assert "contradictory" not in out
        assert "feasible" in out and "looped" in out

    def test_demoted_text_is_reordered_not_rewritten(
        self, teeth_tree, capsys
    ):
        __, baseline, __ = run_cli(teeth_tree, capsys)
        __, demoted, __ = run_cli(teeth_tree, capsys, "--refine=demote")
        assert demoted != baseline
        assert sorted(demoted.splitlines()) == \
            sorted(baseline.splitlines())
        assert demoted.splitlines()[-1] == \
            next(line for line in baseline.splitlines()
                 if "contradictory" in line)


class TestStatisticalConfidence:
    class _Log:
        """An ErrorLog stand-in: every rule has identical counts, so
        the z-scores tie and only the confidence tiers separate."""

        def rule_counts(self, rule_id):
            return (10, 1)

    def _report(self, name, verdict=None):
        report = Report("free", "using %s after free!" % name,
                        function=name, variable=name, rule_id="r")
        if verdict is not None:
            report.annotations["feasibility"] = {"verdict": verdict}
        return report

    def test_confidence_tiers(self):
        assert verdict_confidence(self._report("a", "confirmed")) == 0
        assert verdict_confidence(self._report("b")) == 1
        assert verdict_confidence(self._report("c", "unknown")) == 1
        assert verdict_confidence(self._report("d", "infeasible")) == 2

    def test_statistical_rank_orders_by_verdict_confidence(self):
        from repro.ranking.statistical import rank_by_rule_reliability

        reports = [self._report("bad", "infeasible"),
                   self._report("plain"),
                   self._report("good", "confirmed")]
        ranked = rank_by_rule_reliability(reports, self._Log())
        assert [r.function for r in ranked] == ["good", "plain", "bad"]

    def test_unrefined_statistical_order_is_unchanged(self):
        from repro.ranking.statistical import rank_by_rule_reliability

        reports = [self._report("first"), self._report("second"),
                   self._report("third")]
        ranked = rank_by_rule_reliability(list(reports), self._Log())
        assert [r.function for r in ranked] == \
            ["first", "second", "third"]


class TestVerdictCache:
    def test_second_run_serves_every_verdict_from_cache(
        self, teeth_tree, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        cold_stats = tmp_path / "cold.json"
        warm_stats = tmp_path / "warm.json"
        run_cli(teeth_tree, capsys, "--refine=annotate", "--cache-dir",
                cache, "--stats-json", str(cold_stats))
        cold = counters_from(cold_stats)
        assert cold.get("refine_cache_hits", 0) == 0
        assert cold["refine_confirmed"] == 2
        assert cold["refine_infeasible"] == 1

        run_cli(teeth_tree, capsys, "--refine=annotate", "--cache-dir",
                cache, "--stats-json", str(warm_stats))
        warm = counters_from(warm_stats)
        refined = warm["refine_confirmed"] + warm["refine_infeasible"] \
            + warm.get("refine_unknown", 0)
        assert warm["refine_cache_hits"] == refined == 3

    def test_cached_verdicts_equal_fresh_verdicts(
        self, teeth_tree, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        fresh = report_json(teeth_tree, capsys, "--refine=annotate",
                            "--cache-dir", cache)
        cached = report_json(teeth_tree, capsys, "--refine=annotate",
                             "--cache-dir", cache)
        assert verdicts_of(cached) == verdicts_of(fresh)

    def test_function_edit_invalidates_the_cached_verdict(
        self, teeth_tree, tmp_path, capsys
    ):
        # Swap the contradictory guard for a satisfiable one: the report
        # hash is unchanged (hashes exclude bodies) but the fingerprint
        # moves, so the stale infeasible verdict must not replay.
        cache = str(tmp_path / "cache")
        before = report_json(teeth_tree, capsys, "--refine=annotate",
                             "--cache-dir", cache)
        assert verdicts_of(before)["contradictory"] == "infeasible"
        edited = TEETH_TREE["mod.c"].replace("if (x > 4)", "if (x > 3)")
        write_tree(teeth_tree, {"mod.c": edited})
        stats_json = tmp_path / "edited.json"
        docs = report_json(teeth_tree, capsys, "--refine=annotate",
                           "--cache-dir", cache, "--stats-json",
                           str(stats_json))
        assert verdicts_of(docs)["contradictory"] == "confirmed"

    def test_fault_degraded_verdicts_are_never_cached(
        self, teeth_tree, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        with faults.injected([{"site": "refine.budget"}]):
            stats_json = tmp_path / "faulted.json"
            docs = report_json(teeth_tree, capsys, "--refine=annotate",
                               "--cache-dir", cache, "--stats-json",
                               str(stats_json))
            assert set(verdicts_of(docs).values()) == {"unknown"}
            counters = counters_from(stats_json)
            assert counters["refine_unknown"] == 3
            assert counters["refine_budget_hits"] == 3
        # The degraded verdicts were not written back: the next run
        # re-evaluates and lands the real classifications.
        docs = report_json(teeth_tree, capsys, "--refine=annotate",
                           "--cache-dir", cache)
        assert verdicts_of(docs)["contradictory"] == "infeasible"

    def test_injected_evaluator_error_degrades_to_unknown(
        self, teeth_tree, capsys
    ):
        with faults.injected(
            [{"site": "refine.error", "key": "feasible"}]
        ):
            docs = report_json(teeth_tree, capsys, "--refine=annotate")
        verdicts = verdicts_of(docs)
        assert verdicts["feasible"] == "unknown"
        assert verdicts["contradictory"] == "infeasible"


#: One report per verdict reason the cache may hold, across the budgets
#: of :data:`BUDGETS`: a witness, an all-contradictory trace, an
#: interprocedural report, an end-of-path lock report whose trace does
#: not re-anchor, a do-while revisit (``loop-structure``), a for loop
#: that blows a one-visit cap (``revisit-cap``), and every report under
#: the step and path budgets.
KINDS_SOURCE = """
int sink;
int contradictory(int *p, int x) {
    if (x < 5)
        kfree(p);
    if (x > 4)
        return *p;
    return 0;
}
int feasible(int *q, int y) {
    if (y > 0)
        kfree(q);
    if (y > 1)
        return *q;
    return 0;
}
void deref(int *a) { sink = *a; }
void caller(int *b) { kfree(b); deref(b); }
int leak(int x) {
    lock(l);
    if (x)
        return 1;
    unlock(l);
    return 0;
}
int dowhile(int *p, int x, int n) {
    do {
        n = n - 1;
    } while (n > 0);
    if (x < 5)
        kfree(p);
    if (x > 4)
        return *p;
    return 0;
}
int forloop(int *p, int x, int n) {
    int i;
    for (i = 0; i < n; i++)
        sink = i;
    if (x < 5)
        kfree(p);
    if (x > 4)
        return *p;
    return 0;
}
"""

#: Refine budgets that between them produce every cacheable reason.
BUDGETS = {
    "default": {},
    "steps": {"max_steps": 3},
    "paths": {"max_paths": 1},
    "visits": {"max_block_visits": 1},
}

CACHEABLE_REASONS = {
    "witness", "all-paths-contradictory", "interprocedural",
    "trace-not-realized", "loop-structure", "revisit-cap",
    "budget-steps", "budget-paths",
}


class _NoReads:
    """A backend that must never be read (a pinned verdict needs none)."""

    def get_many(self, tier, keys):
        raise AssertionError("store read for %d keys" % len(list(keys)))

    def put_many(self, tier, items):
        return 0


class _Recording(LocalStore):
    """A local store that remembers every refine frame written."""

    def __init__(self, root):
        super().__init__(root)
        self.written = {}

    def put_many(self, tier, items):
        self.written.update(items)
        return super().put_many(tier, items)


def kinds_reports():
    """``(reports, callgraph, fingerprints)`` of :data:`KINDS_SOURCE`
    under the free and lock checkers, hashes assigned."""
    from repro.cfg.callgraph import CallGraph
    from repro.cfg.fingerprint import fingerprint_tables
    from repro.cfront.parser import parse
    from repro.checkers import ALL_CHECKERS
    from repro.engine.analysis import Analysis

    unit = parse(KINDS_SOURCE, "kinds.c")
    result = Analysis([unit]).run(
        [ALL_CHECKERS["free"](), ALL_CHECKERS["lock"]()]
    )
    graph = CallGraph.from_units([unit])
    return list(result.reports), graph, fingerprint_tables(graph)[1]


def feasibility(reports):
    out = {}
    for report in reports:
        out[report.report_hash] = report.annotations.pop("feasibility")
    return out


class TestVerdictCacheKinds:
    """Every verdict but the wall clock's and the faults' is cached,
    under a key that binds the deterministic budgets, and a verdict
    served from the store or the in-memory pin is the verdict
    ``classify_report`` computes."""

    def refine(self, reports, graph, fingerprints, options, backend,
               pin=None):
        from repro.driver.stats import DriverStats
        from repro.refine import refine_reports

        stats = DriverStats()
        refine_reports(reports, graph, options, stats=stats,
                       backend=backend, fingerprints=fingerprints, pin=pin)
        return feasibility(reports), stats.count("refine_cache_hits")

    def test_the_kinds_cover_every_cacheable_reason(self):
        from repro.refine import RefineOptions, classify_report

        reports, graph, __ = kinds_reports()
        reasons = {
            classify_report(report, graph, RefineOptions(**budgets))["reason"]
            for budgets in BUDGETS.values() for report in reports
        }
        assert reasons == CACHEABLE_REASONS

    @pytest.mark.parametrize("budgets", sorted(BUDGETS))
    def test_served_verdicts_equal_fresh_ones(self, tmp_path, budgets):
        from repro.refine import RefineOptions, classify_report

        options = RefineOptions(**BUDGETS[budgets])
        reports, graph, fingerprints = kinds_reports()
        fresh = {r.report_hash: classify_report(r, graph, options)
                 for r in reports}
        backend = LocalStore(str(tmp_path / "store"))
        cold, hits = self.refine(reports, graph, fingerprints, options,
                                 backend)
        assert (cold, hits) == (fresh, 0)
        served, hits = self.refine(reports, graph, fingerprints, options,
                                   backend)
        assert (served, hits) == (fresh, len(reports))
        pin = {}
        pinned, __ = self.refine(reports, graph, fingerprints, options,
                                 backend, pin=pin)
        assert pinned == fresh and len(pin) == len(reports)
        pinned, hits = self.refine(reports, graph, fingerprints, options,
                                   _NoReads(), pin=pin)
        assert (pinned, hits) == (fresh, len(reports))

    def test_a_budget_never_serves_another_budgets_verdict(self, tmp_path):
        from repro.refine import RefineOptions, classify_report

        reports, graph, fingerprints = kinds_reports()
        backend = LocalStore(str(tmp_path / "store"))
        pin = {}
        for budgets in ("steps", "paths", "visits", "default"):
            options = RefineOptions(**BUDGETS[budgets])
            fresh = {r.report_hash: classify_report(r, graph, options)
                     for r in reports}
            verdicts, hits = self.refine(reports, graph, fingerprints,
                                         options, backend, pin=pin)
            assert (verdicts, hits) == (fresh, 0), budgets

    def test_clock_and_fault_verdicts_are_never_written(self, tmp_path,
                                                       monkeypatch):
        from repro.refine import RefineOptions
        from repro.refine import engine

        reports, graph, fingerprints = kinds_reports()
        backend = _Recording(str(tmp_path / "store"))
        pin = {}
        monkeypatch.setattr(engine, "_TIME_CHECK_MASK", 0)
        timed, __ = self.refine(reports, graph, fingerprints,
                                RefineOptions(max_seconds_per_report=-1.0),
                                backend, pin=pin)
        for site in ("refine.budget", "refine.error"):
            with faults.injected([{"site": site}]):
                faulted, __ = self.refine(reports, graph, fingerprints,
                                          RefineOptions(), backend, pin=pin)
            timed.update({"%s %s" % (site, key): verdict
                          for key, verdict in faulted.items()})
        reasons = {verdict["reason"] for verdict in timed.values()}
        assert {"budget-time", "budget-injected", "error"} <= reasons
        stored = [json.loads(frame) for frame in backend.written.values()]
        # Only the interprocedural verdict, decided before any budget.
        assert all(doc["reason"] == "interprocedural" for doc in stored)
        assert all(verdict["reason"] == "interprocedural"
                   for verdict in pin.values())

    def test_faults_fire_on_a_report_whose_verdict_is_not_cached(
        self, teeth_tree, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        report_json(teeth_tree, capsys, "--refine=annotate", "--cache-dir",
                    cache)
        edited = TEETH_TREE["mod.c"].replace("if (x > 4)", "if (x > 3)")
        write_tree(teeth_tree, {"mod.c": edited})
        for site, reason in (("refine.budget", "budget-injected"),
                             ("refine.error", "error")):
            with faults.injected([{"site": site}]):
                docs = report_json(teeth_tree, capsys, "--refine=annotate",
                                   "--cache-dir", cache)
            reasons = {
                doc["function"]: doc["annotations"]["feasibility"]["reason"]
                for doc in docs
            }
            # The edited function missed the cache and met the fault;
            # the unchanged ones were served.
            assert reasons == {"contradictory": reason,
                               "feasible": "witness", "looped": "witness"}
        docs = report_json(teeth_tree, capsys, "--refine=annotate",
                           "--cache-dir", cache)
        assert verdicts_of(docs)["contradictory"] == "confirmed"


@contextlib.contextmanager
def running_daemon(src_dir, cache_dir, sock_path, refine=None,
                   run_keep=None):
    options = AnalysisOptions()
    signature = session_signature(checker_names=["free"], options=options)
    session = IncrementalSession(str(cache_dir), signature,
                                 pin_warm_state=True)
    daemon = XgccDaemon(
        watch_roots=[str(src_dir)], extension_factory=free_checker_list,
        session=session, socket_path=str(sock_path),
        include_paths=[str(src_dir)], cache_dir=str(cache_dir),
        options=options, poll_interval=30.0,
        pipeline=PipelineConfig(refine=refine, prune_keep=run_keep),
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


class TestDifferentialParity:
    """Refined output is byte-identical across every driver path, and
    the verdicts themselves never depend on the path that computed
    them."""

    def test_serial_jobs_cold_warm_daemon_agree(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TEETH_TREE)

        __, baseline, __ = run_cli(src, capsys, "--refine=demote")
        base_verdicts = verdicts_of(
            report_json(src, capsys, "--refine=demote")
        )
        assert base_verdicts["contradictory"] == "infeasible"

        __, jobs_out, __ = run_cli(src, capsys, "--refine=demote",
                                   "--jobs", "4")
        assert jobs_out == baseline
        assert verdicts_of(
            report_json(src, capsys, "--refine=demote", "--jobs", "4")
        ) == base_verdicts

        cache = str(tmp_path / "cache")
        __, cold_inc, __ = run_cli(src, capsys, "--refine=demote",
                                   "--incremental", "--cache-dir", cache)
        assert cold_inc == baseline
        __, warm_inc, __ = run_cli(src, capsys, "--refine=demote",
                                   "--incremental", "--cache-dir", cache)
        assert warm_inc == baseline
        assert verdicts_of(
            report_json(src, capsys, "--refine=demote", "--incremental",
                        "--cache-dir", cache)
        ) == base_verdicts

        sock_dir = tempfile.mkdtemp(prefix="xgccd-")
        try:
            sock = os.path.join(sock_dir, "d.sock")
            with running_daemon(src, tmp_path / "dcache", sock,
                                refine="demote") as daemon:
                with DaemonClient(sock) as client:
                    response = client.request("analyze")
                assert response["reports"] == baseline
                assert verdicts_of(
                    [r.to_dict() for r in daemon._last_reports]
                ) == base_verdicts
        finally:
            shutil.rmtree(sock_dir, ignore_errors=True)

    def test_daemon_warm_analyze_reuses_cached_verdicts(
        self, tmp_path, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TEETH_TREE)
        sock_dir = tempfile.mkdtemp(prefix="xgccd-")
        try:
            sock = os.path.join(sock_dir, "d.sock")
            with running_daemon(src, tmp_path / "dcache", sock,
                                refine="annotate") as daemon:
                with DaemonClient(sock) as client:
                    client.request("analyze")
                    # Force a re-analysis over the unchanged tree: the
                    # verdict cache (store summary tier) must serve all
                    # three verdicts.
                    before = daemon.stats.count("refine_cache_hits")
                    client.request("analyze", force=True)
                assert daemon.stats.count("refine_cache_hits") \
                    - before == 3
        finally:
            shutil.rmtree(sock_dir, ignore_errors=True)

    def test_recorded_runs_carry_verdicts(self, teeth_tree, tmp_path,
                                          capsys):
        cache = str(tmp_path / "cache")
        run_cli(teeth_tree, capsys, "--refine=annotate", "--record-run",
                "--cache-dir", cache)
        from repro.driver.store import open_store

        history = RunHistory(open_store(cache_dir=cache))
        docs = history.load_run(history.latest_run_id())["reports"]
        assert verdicts_of(docs)["contradictory"] == "infeasible"


class TestPruneRuns:
    def record_n_runs(self, src, capsys, cache, n):
        for __ in range(n):
            run_cli(src, capsys, "--record-run", "--cache-dir", cache)

    def history(self, cache):
        from repro.driver.store import open_store

        return RunHistory(open_store(cache_dir=cache))

    def test_standalone_prune_bounds_the_history(
        self, teeth_tree, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        self.record_n_runs(teeth_tree, capsys, cache, 3)
        assert len(self.history(cache).run_ids()) == 3
        code = main(["--prune-runs", "2", "--cache-dir", cache])
        assert code == 0
        assert "pruned 1" in capsys.readouterr().err
        assert len(self.history(cache).run_ids()) == 2

    def test_prune_zero_empties_the_history(self, teeth_tree, tmp_path,
                                            capsys):
        cache = str(tmp_path / "cache")
        self.record_n_runs(teeth_tree, capsys, cache, 2)
        code = main(["--prune-runs", "0", "--cache-dir", cache])
        assert code == 0
        assert self.history(cache).run_ids() == []

    def test_negative_prune_is_rejected(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        os.makedirs(cache)
        code = main(["--prune-runs", "-3", "--cache-dir", cache])
        assert code == 2
        assert "keep must be >= 0" in capsys.readouterr().err

    def test_inline_prune_runs_after_record_run(
        self, teeth_tree, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        self.record_n_runs(teeth_tree, capsys, cache, 3)
        run_cli(teeth_tree, capsys, "--record-run", "--prune-runs", "2",
                "--cache-dir", cache)
        # The just-recorded run survives its own prune.
        assert len(self.history(cache).run_ids()) == 2

    def test_daemon_run_keep_bounds_the_history(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TEETH_TREE)
        cache = tmp_path / "dcache"
        sock_dir = tempfile.mkdtemp(prefix="xgccd-")
        try:
            sock = os.path.join(sock_dir, "d.sock")
            with running_daemon(src, cache, sock, run_keep=2):
                with DaemonClient(sock) as client:
                    for __ in range(3):
                        client.request("analyze", force=True)
            history = RunHistory(
                IncrementalSession(
                    str(cache),
                    session_signature(checker_names=["free"],
                                      options=AnalysisOptions()),
                ).backend
            )
            assert len(history.run_ids()) == 2
        finally:
            shutil.rmtree(sock_dir, ignore_errors=True)


class TestHistoryRegressions:
    def seed(self, tmp_path):
        backend = LocalStore(str(tmp_path / "store"))
        history = RunHistory(backend)
        first = [Report("free", "using a after free!", function="f",
                        variable="a")]
        second = [Report("free", "using b after free!", function="g",
                         variable="b")]
        id1 = history.record_run(assign_report_hashes(first))
        id2 = history.record_run(assign_report_hashes(second))
        return history, id1, id2

    def test_blank_run_tokens_are_rejected(self, tmp_path):
        history, __, __ = self.seed(tmp_path)
        for token in ("", "   ", None):
            with pytest.raises(RunHistoryError, match="blank run token"):
                history.resolve_run_id(token)
        # The regression: "" used to prefix-match every stored run and,
        # with exactly one run, silently resolve to it.
        with pytest.raises(RunHistoryError):
            history.diff("", "latest")

    def test_diff_base_label_is_resolved(self, tmp_path):
        history, id1, id2 = self.seed(tmp_path)
        diff = history.diff(id1[:-4], id2[:-4])
        assert diff["base"] == id1
        assert diff["head"] == id2
        diff = history.diff("latest", None, head_docs=[])
        assert diff["base"] == id2
        assert diff["head"] == "current"

    def test_prune_zero_deletes_every_run(self, tmp_path):
        history, __, __ = self.seed(tmp_path)
        assert history.prune(keep=0) == 2
        assert history.run_ids() == []

    def test_prune_negative_keep_is_rejected(self, tmp_path):
        history, __, __ = self.seed(tmp_path)
        with pytest.raises(RunHistoryError, match=">= 0"):
            history.prune(keep=-1)
        assert len(history.run_ids()) == 2
