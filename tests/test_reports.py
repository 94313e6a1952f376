"""Structured-report tests: the model round-trip, stable hashes under
edits, run history, and ``xgcc --diff``.

The contract (docs/REPORTS.md): structured reports are the product and
text is one renderer, so ``--report-json`` must round-trip losslessly
through ``render_reports`` back to the classic ranked text; report
hashes are *structural* identities, so pure line drift (inserted
declarations), blank-line churn, and edits to unrelated functions keep
every hash fixed, while an actual fix flips exactly the fixed report to
``--resolved``; and every driver path -- serial, ``--jobs``, warm
incremental, the daemon -- assigns the same hashes to the same report
text, byte-identically.
"""

import contextlib
import functools
import json
import os
import re
import shutil
import tempfile
import threading

import pytest

from repro.codegen.project_gen import apply_function_edits, generate_project
from repro.driver.cli import _build_extensions, main
from repro.driver.daemon import DaemonClient, XgccDaemon, wait_for_socket
from repro.driver.dump import load_report_json, render_reports
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.store import LocalStore
from repro.engine.analysis import AnalysisOptions
from repro.reports.hashing import assign_report_hashes, report_base_key
from repro.reports.history import RunHistory, RunHistoryError
from repro.reports.model import Report

cli_checkers = functools.partial(_build_extensions, ("free", "lock"), ())

CHECKER_ARGS = ["--checker", "free", "--checker", "lock"]

#: Declaration lines prepended to a module to drift every line below
#: them.
PAD = "int pad_drift_1;\nint pad_drift_2;\n"

RUN_ID_RE = re.compile(r"recorded run (r[0-9a-f]+)")


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
    """The ``--report-json`` document list for one run (the ranked text
    follows the document on stdout with ``--report-json -``)."""
    __, out, __ = run_cli(src, capsys, "--report-json", "-", *extra)
    docs, __ = json.JSONDecoder().raw_decode(out[out.index("["):])
    return docs


def recorded_run_id(err):
    match = RUN_ID_RE.search(err)
    assert match, "no run id on stderr: %r" % err
    return match.group(1)


def hashes_of(docs):
    return sorted(doc["hash"] for doc in docs)


@pytest.fixture
def gen_tree(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    gen = generate_project(seed=7, n_modules=2, functions_per_module=4,
                           bug_rate=0.5)
    write_tree(src, gen.files)
    return src, gen


#: A handcrafted two-bug module: ``target_bug`` is the one the "real
#: fix" tests repair, ``stable_bug`` the control whose hash must hold.
FIX_TREE = {
    "mod.c": (
        "int stable_bug(int *a) { kfree(a); return *a; }\n"
        "\n"
        "int target_bug(int *b) { kfree(b); return *b; }\n"
    ),
}

FIXED_TREE = {
    "mod.c": FIX_TREE["mod.c"].replace("return *b;", "return 0;"),
}


class TestModelRoundTrip:
    def test_report_json_round_trips_to_identical_text(
        self, gen_tree, capsys
    ):
        # The satellite contract: load(--report-json) -> render ==
        # the classic ranked text, byte for byte.
        src, __ = gen_tree
        __, baseline, __ = run_cli(src, capsys)
        docs = report_json(src, capsys)
        assert docs, "generated tree produced no reports"
        capsys.readouterr()
        assert render_reports(load_report_json(json.dumps(docs))) == baseline

    def test_trace_round_trips_through_the_model(self, gen_tree, capsys):
        src, __ = gen_tree
        __, baseline, __ = run_cli(src, capsys, "--trace")
        docs = report_json(src, capsys)
        loaded = load_report_json(json.dumps(docs))
        assert render_reports(loaded, trace=True) == baseline

    def test_to_dict_from_dict_is_lossless(self, gen_tree, capsys):
        src, __ = gen_tree
        for doc in report_json(src, capsys):
            report = Report.from_dict(doc)
            assert report.to_dict() == doc
            assert Report.from_dict(report.to_dict()).format() == \
                report.format()

    def test_annotations_never_change_rendered_text(self, gen_tree, capsys):
        src, __ = gen_tree
        docs = report_json(src, capsys)
        for doc in docs:
            report = Report.from_dict(doc)
            bare = report.render_text(trace=True)
            report.annotations["rank"] = 99
            report.annotations["triage"] = {"verdict": "confirmed"}
            assert report.render_text(trace=True) == bare

    def test_rank_annotations_present_in_json(self, gen_tree, capsys):
        src, __ = gen_tree
        docs = report_json(src, capsys)
        ranks = [doc["annotations"]["rank"] for doc in docs]
        assert ranks == list(range(1, len(docs) + 1))

    def test_every_report_carries_a_hash(self, gen_tree, capsys):
        src, __ = gen_tree
        docs = report_json(src, capsys)
        for doc in docs:
            assert re.fullmatch(r"[0-9a-f]{40}", doc["hash"])

    def test_duplicate_base_keys_get_distinct_hashes(self):
        twin_a = Report("free", "using p after free!", function="f",
                        variable="p")
        twin_b = Report("free", "using p after free!", function="f",
                        variable="p")
        assert report_base_key(twin_a) == report_base_key(twin_b)
        assign_report_hashes([twin_a, twin_b])
        assert twin_a.report_hash != twin_b.report_hash
        # Re-assignment is idempotent.
        first = (twin_a.report_hash, twin_b.report_hash)
        assign_report_hashes([twin_a, twin_b])
        assert (twin_a.report_hash, twin_b.report_hash) == first


class TestHashStability:
    def test_line_drift_keeps_hashes_fixed(self, gen_tree, capsys):
        src, gen = gen_tree
        before = report_json(src, capsys)
        assert before
        for name in gen.files:
            if name.endswith(".c"):
                path = src / name
                path.write_text(PAD + path.read_text())
        after = report_json(src, capsys)
        # The drift is real: report lines moved ...
        assert [d["location"]["line"] for d in after] != \
            [d["location"]["line"] for d in before]
        # ... but the identities did not.
        assert hashes_of(after) == hashes_of(before)

    def test_blank_line_churn_keeps_hashes_fixed(self, gen_tree, capsys):
        src, gen = gen_tree
        before = report_json(src, capsys)
        for name in gen.files:
            if name.endswith(".c"):
                path = src / name
                path.write_text("\n\n\n" + path.read_text())
        assert hashes_of(report_json(src, capsys)) == hashes_of(before)

    def test_unrelated_function_edits_keep_hashes_fixed(
        self, tmp_path, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=7, n_modules=2, functions_per_module=4,
                               bug_rate=0.5)
        write_tree(src, gen.files)
        before = report_json(src, capsys)
        involved = {doc["function"] for doc in before}
        # A seeded in-place literal bump in functions that report
        # nothing: a token-stream change that must not move any hash.
        for seed in range(32):
            edited, edits = apply_function_edits(gen, k=1, seed=seed)
            if all(edit.function not in involved for edit in edits):
                break
        else:
            pytest.skip("no edit site outside the reporting functions")
        write_tree(src, edited.files)
        assert hashes_of(report_json(src, capsys)) == hashes_of(before)

    def test_real_fix_changes_exactly_one_hash(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, FIX_TREE)
        before = report_json(src, capsys)
        assert len(before) == 2
        write_tree(src, FIXED_TREE)
        after = report_json(src, capsys)
        assert len(after) == 1
        assert after[0]["function"] == "stable_bug"
        assert after[0]["hash"] in hashes_of(before)


class TestRunHistory:
    def seed_runs(self, tmp_path):
        backend = LocalStore(str(tmp_path / "store"))
        history = RunHistory(backend)
        first = [Report("free", "using a after free!", function="f",
                        variable="a"),
                 Report("free", "using b after free!", function="g",
                        variable="b")]
        second = [Report("free", "using b after free!", function="g",
                         variable="b"),
                  Report("lock", "double lock!", function="h",
                         variable="l")]
        id1 = history.record_run(assign_report_hashes(first),
                                 meta={"tag": "base"})
        id2 = history.record_run(assign_report_hashes(second))
        return history, id1, id2

    def test_record_list_load(self, tmp_path):
        history, id1, id2 = self.seed_runs(tmp_path)
        assert history.run_ids() == [id1, id2]
        listed = history.list_runs()
        assert [row["run_id"] for row in listed] == [id1, id2]
        assert listed[0]["report_count"] == 2
        assert listed[0]["meta"] == {"tag": "base"}
        assert len(history.load_reports(id1)) == 2

    def test_resolve_latest_and_prefix(self, tmp_path):
        history, id1, id2 = self.seed_runs(tmp_path)
        assert history.resolve_run_id("latest") == id2
        assert history.resolve_run_id("HEAD") == id2
        assert history.resolve_run_id(id1[:-1]) == id1
        with pytest.raises(RunHistoryError):
            history.resolve_run_id("r")  # ambiguous
        with pytest.raises(RunHistoryError):
            history.resolve_run_id("zzz")

    def test_diff_buckets(self, tmp_path):
        history, id1, id2 = self.seed_runs(tmp_path)
        diff = history.diff(id1, id2)
        assert [d["message"] for d in diff["new"]] == ["double lock!"]
        assert [d["message"] for d in diff["resolved"]] == \
            ["using a after free!"]
        assert [d["message"] for d in diff["unresolved"]] == \
            ["using b after free!"]
        assert diff["suppressed"] == []

    def test_prune_keeps_newest(self, tmp_path):
        history, id1, id2 = self.seed_runs(tmp_path)
        assert history.prune(keep=1) == 1
        assert history.run_ids() == [id2]

    def test_undecodable_run_degrades(self, tmp_path):
        history, id1, id2 = self.seed_runs(tmp_path)
        history.backend.put_many("run", {id1: b"not json"})
        with pytest.raises(RunHistoryError):
            history.load_run(id1)
        # Listing skips the broken frame instead of failing.
        assert [row["run_id"] for row in history.list_runs()] == [id2]


class TestDiffCLI:
    def record(self, src, capsys, cache):
        code, out, err = run_cli(src, capsys, "--cache-dir", cache,
                                 "--record-run")
        return recorded_run_id(err), out

    def test_line_drift_diffs_empty(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        cache = str(tmp_path / "cache")
        write_tree(src, FIX_TREE)
        base, __ = self.record(src, capsys, cache)
        (src / "mod.c").write_text(PAD + (src / "mod.c").read_text())
        head, __ = self.record(src, capsys, cache)
        code, out, __ = run_cli(src, capsys, "--diff", base, head,
                                "--cache-dir", cache)
        assert code == 0
        assert "== new (0) ==" in out
        assert "== resolved (0) ==" in out
        assert "== unresolved (2) ==" in out

    def test_real_fix_is_exactly_resolved(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        cache = str(tmp_path / "cache")
        write_tree(src, FIX_TREE)
        base, __ = self.record(src, capsys, cache)
        write_tree(src, FIXED_TREE)
        head, __ = self.record(src, capsys, cache)

        code, out, __ = run_cli(src, capsys, "--diff", base, head,
                                "--resolved", "--cache-dir", cache)
        assert code == 0
        # Bare output with exactly one bucket selected: the fixed
        # report's classic line, nothing else.
        assert out.count("\n") == 1
        assert "target_bug" in out

        code, out, __ = run_cli(src, capsys, "--diff", base, head,
                                "--new", "--cache-dir", cache)
        assert (code, out) == (0, "")

        # The reverse direction: the bug "appears", exit code 1.
        code, out, __ = run_cli(src, capsys, "--diff", head, base,
                                "--new", "--cache-dir", cache)
        assert code == 1
        assert "target_bug" in out

    def test_diff_latest_and_json(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        cache = str(tmp_path / "cache")
        write_tree(src, FIX_TREE)
        base, __ = self.record(src, capsys, cache)
        write_tree(src, FIXED_TREE)
        self.record(src, capsys, cache)
        code, out, __ = run_cli(src, capsys, "--diff", base, "latest",
                                "--cache-dir", cache, "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert [d["function"] for d in doc["resolved"]] == ["target_bug"]
        assert doc["new"] == []
        assert len(doc["unresolved"]) == 1

    def test_diff_unknown_run_is_exit_2(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        os.makedirs(cache)
        code = main(["--diff", "rdeadbeef", "latest",
                     "--cache-dir", cache])
        assert code == 2
        assert "xgcc:" in capsys.readouterr().err


@contextlib.contextmanager
def running_daemon(src_dir, cache_dir, sock_path):
    options = AnalysisOptions()
    signature = session_signature(
        checker_names=["free", "lock"], options=options
    )
    session = IncrementalSession(str(cache_dir), signature,
                                 pin_warm_state=True)
    daemon = XgccDaemon(
        watch_roots=[str(src_dir)], extension_factory=cli_checkers,
        session=session, socket_path=str(sock_path),
        include_paths=[str(src_dir)], cache_dir=str(cache_dir),
        options=options, poll_interval=30.0,
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
    """Every driver path renders the same bytes and assigns the same
    hashes: text is one renderer, the hash is one identity."""

    def test_serial_jobs_warm_daemon_agree(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=11, n_modules=2,
                               functions_per_module=4, bug_rate=0.5)
        write_tree(src, gen.files)

        __, baseline, __ = run_cli(src, capsys)
        base_docs = report_json(src, capsys)
        assert base_docs

        __, jobs_out, __ = run_cli(src, capsys, "--jobs", "4")
        assert jobs_out == baseline
        assert hashes_of(report_json(src, capsys, "--jobs", "4")) == \
            hashes_of(base_docs)

        cache = str(tmp_path / "cache")
        __, cold_inc, __ = run_cli(src, capsys, "--incremental",
                                   "--cache-dir", cache)
        assert cold_inc == baseline
        __, warm_inc, __ = run_cli(src, capsys, "--incremental",
                                   "--cache-dir", cache)
        assert warm_inc == baseline
        warm_docs = report_json(src, capsys, "--incremental",
                                "--cache-dir", cache)
        assert hashes_of(warm_docs) == hashes_of(base_docs)

        sock_dir = tempfile.mkdtemp(prefix="xgccd-")
        try:
            sock = os.path.join(sock_dir, "d.sock")
            with running_daemon(src, tmp_path / "dcache", sock):
                with DaemonClient(sock) as client:
                    response = client.request("analyze")
            assert response["reports"] == baseline
        finally:
            shutil.rmtree(sock_dir, ignore_errors=True)

    def test_daemon_records_runs_diffable_offline(self, tmp_path, capsys):
        # The daemon persists every fresh analysis into the same run
        # history offline --diff reads.
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, FIX_TREE)
        cache = tmp_path / "dcache"
        sock_dir = tempfile.mkdtemp(prefix="xgccd-")
        try:
            sock = os.path.join(sock_dir, "d.sock")
            with running_daemon(src, cache, sock):
                with DaemonClient(sock) as client:
                    first = client.request("analyze")
                    write_tree(src, FIXED_TREE)
                    client.request("notify", paths=[str(src / "mod.c")])
                    second = client.request("analyze")
            assert first["run_id"] and second["run_id"]
            assert first["run_id"] != second["run_id"]
            code, out, __ = run_cli(
                src, capsys, "--diff", first["run_id"], second["run_id"],
                "--resolved", "--cache-dir", str(cache),
            )
            assert code == 0
            assert "target_bug" in out
            assert out.count("\n") == 1
        finally:
            shutil.rmtree(sock_dir, ignore_errors=True)
