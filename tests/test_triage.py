"""Persistent-triage tests: the one predicate, the one file format,
backend sharing, and suppression surviving edits.

The contract (docs/REPORTS.md): every suppression decision in the
system flows through :class:`TriageStore.match` -- by stable hash (the
precise spelling), by rule (§9 "suppress them all"), or by §8 history
key -- with hash > rule > history precision; the file format and the
shared-backend document are the same JSON shape (legacy bare-list
HistoryDatabase files still load); and a hash-keyed suppression keeps
matching after the tree drifts, a daemon restarts, or the state round-
trips through a RemoteStore.
"""

import json
import os

import pytest

from repro.driver.cli import main
from repro.driver.report_server import ReportServer
from repro.driver.store import LocalStore, RemoteStore
from repro.engine.history import HistoryDatabase
from repro.reports.hashing import assign_report_hashes
from repro.reports.model import Report
from repro.reports.triage import (
    TriageEntry,
    TriageError,
    TriageStore,
)

CHECKER_ARGS = ["--checker", "free", "--checker", "lock"]

PAD = "int pad_drift_1;\nint pad_drift_2;\n"

TREE = {
    "mod.c": (
        "int stable_bug(int *a) { kfree(a); return *a; }\n"
        "\n"
        "int target_bug(int *b) { kfree(b); return *b; }\n"
    ),
}


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
    code = main(CHECKER_ARGS + ["-I", str(src)] + list(extra)
                + c_paths(src))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_json(src, capsys, *extra):
    __, out, __ = run_cli(src, capsys, "--report-json", "-", *extra)
    docs, __ = json.JSONDecoder().raw_decode(out[out.index("["):])
    return docs


def sample_reports():
    reports = [
        Report("free_checker", "using a after free!", function="f",
               variable="a", rule_id="kfree"),
        Report("free_checker", "using b after free!", function="g",
               variable="b", rule_id="vfree"),
        Report("lock_checker", "double lock!", function="h",
               variable="l", rule_id="lock"),
    ]
    return assign_report_hashes(reports)


class TestEntryValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(TriageError):
            TriageEntry("line", 12)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(TriageError):
            TriageEntry("rule", "kfree", verdict="maybe")

    def test_history_key_must_be_five_fields(self):
        with pytest.raises(TriageError):
            TriageEntry("history", ("checker", "file"))

    def test_from_dict_missing_field(self):
        with pytest.raises(TriageError):
            TriageEntry.from_dict({"kind": "rule"})


class TestPredicate:
    def test_hash_matches_exactly_one_report(self):
        reports = sample_reports()
        store = TriageStore()
        store.suppress_hash(reports[1].report_hash)
        kept, suppressed = store.apply(reports)
        assert [r.variable for r in suppressed] == ["b"]
        assert [r.variable for r in kept] == ["a", "l"]

    def test_rule_matches_the_group(self):
        reports = sample_reports()
        store = TriageStore()
        store.suppress_rule("kfree")
        assert store.is_suppressed(reports[0])
        assert not store.is_suppressed(reports[1])

    def test_history_key_matches(self):
        reports = sample_reports()
        store = TriageStore()
        store.suppress_history(reports[2].history_key())
        assert store.is_suppressed(reports[2])
        assert not store.is_suppressed(reports[0])

    def test_precision_hash_beats_rule_beats_history(self):
        reports = sample_reports()
        report = reports[0]
        store = TriageStore()
        store.suppress_history(report.history_key())
        assert store.match(report).kind == "history"
        store.suppress_rule(report.rule_id)
        assert store.match(report).kind == "rule"
        store.suppress_hash(report.report_hash)
        assert store.match(report).kind == "hash"

    def test_match_dict_agrees_with_match(self):
        reports = sample_reports()
        store = TriageStore()
        store.suppress_rule("vfree")
        store.suppress_hash(reports[2].report_hash)
        for report in reports:
            entry = store.match(report)
            entry_d = store.match_dict(report.to_dict())
            assert (entry is None) == (entry_d is None)
            if entry is not None:
                assert entry.identity() == entry_d.identity()

    def test_confirmed_keeps_report_with_severity_override(self):
        reports = sample_reports()
        store = TriageStore()
        store.suppress_hash(reports[0].report_hash, verdict="confirmed",
                            severity="SECURITY")
        kept, suppressed = store.apply(reports)
        assert suppressed == []
        assert kept[0].severity == "SECURITY"
        assert kept[0].annotations["triage"]["verdict"] == "confirmed"

    def test_same_target_decision_replaces(self):
        store = TriageStore()
        store.suppress_rule("kfree", reason="first")
        store.suppress_rule("kfree", reason="second")
        assert len(store) == 1
        assert store.entries[0].reason == "second"


class TestFileFormat:
    def test_save_load_round_trip(self, tmp_path):
        store = TriageStore()
        store.suppress_hash("a" * 40, reason="flaky", author="alice")
        store.suppress_rule("kfree", verdict="intentional")
        store.suppress_history(("c", "f.c", "fn", "v", "msg"))
        path = str(tmp_path / "triage.json")
        store.save(path)
        loaded = TriageStore.load(path)
        assert sorted(e.identity() for e in loaded) == \
            sorted(e.identity() for e in store)
        assert loaded.match_dict({"hash": "a" * 40}).reason == "flaky"

    def test_bare_history_list_is_rejected(self, tmp_path):
        # Pre-triage HistoryDatabase files were a bare list of §8 keys;
        # the one document format is an object.
        path = str(tmp_path / "history.json")
        key = ["free_checker", "mod.c", "f", "a", "using a after free!"]
        with open(path, "w") as handle:
            json.dump([key], handle)
        with pytest.raises(TriageError, match="not an object"):
            TriageStore.load(path)

    def test_history_database_facade_interoperates(self, tmp_path):
        reports = sample_reports()
        db = HistoryDatabase()
        db.suppress(reports[0])
        path = str(tmp_path / "db.json")
        db.save(path)
        # The façade writes the one format; TriageStore reads it back.
        store = TriageStore.load(path)
        assert store.is_suppressed(reports[0])
        assert HistoryDatabase.load(path).is_suppressed(reports[0])

    def test_load_path_missing_is_empty(self, tmp_path):
        assert len(TriageStore.load_path(str(tmp_path / "absent"))) == 0


class TestBackendRoundTrip:
    def test_local_backend(self, tmp_path):
        backend = LocalStore(str(tmp_path / "store"))
        store = TriageStore()
        store.suppress_rule("kfree", reason="noisy")
        store.save_backend(backend)
        loaded = TriageStore.load_backend(backend)
        assert len(loaded) == 1
        assert loaded.entries[0].reason == "noisy"

    def test_empty_backend_is_empty_store(self, tmp_path):
        backend = LocalStore(str(tmp_path / "store"))
        assert len(TriageStore.load_backend(backend)) == 0

    def test_corrupt_backend_document_raises(self, tmp_path):
        backend = LocalStore(str(tmp_path / "store"))
        backend.put_many("run", {"triage": b"not json"})
        with pytest.raises(TriageError):
            TriageStore.load_backend(backend)

    def test_remote_store_round_trip(self, tmp_path):
        # The sharing path: one writer, a different client, one server.
        root = tmp_path / "store-root"
        root.mkdir()
        server = ReportServer(backend=LocalStore(root=str(root)))
        server.start()
        try:
            writer = TriageStore()
            writer.suppress_hash("b" * 40, verdict="intentional",
                                 reason="known-benign")
            writer.save_backend(RemoteStore(server.url))
            loaded = TriageStore.load_backend(RemoteStore(server.url))
            assert loaded.match_dict({"hash": "b" * 40}).reason == \
                "known-benign"
        finally:
            server.stop()

    def test_merge_other_wins(self):
        ours = TriageStore()
        ours.suppress_rule("kfree", reason="ours")
        theirs = TriageStore()
        theirs.suppress_rule("kfree", reason="theirs")
        theirs.suppress_rule("vfree")
        ours.merge(theirs)
        assert len(ours) == 2
        assert ours._entries[("rule", "kfree")].reason == "theirs"


class TestTriageCLI:
    def test_record_and_suppress_via_file(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        triage = str(tmp_path / "triage.json")
        docs = report_json(src, capsys)
        target = next(d for d in docs if d["function"] == "target_bug")

        # Record mode: no input files, just the decision.
        code = main(["--triage-suppress", target["hash"],
                     "--triage", triage, "--triage-reason", "wontfix"])
        assert code == 0
        assert "triaged hash" in capsys.readouterr().err
        stored = TriageStore.load(triage)
        assert stored.entries[0].reason == "wontfix"
        assert stored.entries[0].author

        code, out, __ = run_cli(src, capsys, "--triage", triage)
        assert "target_bug" not in out
        assert "stable_bug" in out

    def test_rule_key_spelling(self, tmp_path, capsys):
        # "rule:ID" records a rule-kind entry (bare tokens are hashes).
        triage = str(tmp_path / "triage.json")
        main(["--triage-suppress", "rule:kfree", "--triage", triage])
        capsys.readouterr()
        stored = TriageStore.load(triage)
        assert [e.identity() for e in stored] == [("rule", "kfree")]
        kept = stored.filter(sample_reports())
        assert [r.variable for r in kept] == ["b", "l"]

    def test_suppress_and_rerun_in_one_invocation(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        triage = str(tmp_path / "triage.json")
        docs = report_json(src, capsys)
        target = next(d for d in docs if d["function"] == "target_bug")
        # --triage-suppress HASH with input files records the entry and
        # lets it suppress in the same run.
        code, out, __ = run_cli(src, capsys, "--triage", triage,
                                "--triage-suppress", target["hash"])
        assert "target_bug" not in out
        assert "stable_bug" in out

    def test_hash_suppression_survives_line_drift(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        triage = str(tmp_path / "triage.json")
        docs = report_json(src, capsys)
        target = next(d for d in docs if d["function"] == "target_bug")
        main(["--triage-suppress", target["hash"], "--triage", triage])
        capsys.readouterr()

        # Drift every line; the hash-keyed decision keeps matching.
        (src / "mod.c").write_text(PAD + (src / "mod.c").read_text())
        code, out, __ = run_cli(src, capsys, "--triage", triage)
        assert "target_bug" not in out
        assert "stable_bug" in out

    def test_shared_store_triage_applies_without_flag(
        self, tmp_path, capsys
    ):
        # Triage recorded into the shared backend suppresses every
        # later run over that backend -- no --triage flag needed.
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        cache = str(tmp_path / "cache")
        docs = report_json(src, capsys)
        target = next(d for d in docs if d["function"] == "target_bug")
        code = main(["--triage-suppress", target["hash"],
                     "--cache-dir", cache])
        assert code == 0
        capsys.readouterr()
        code, out, __ = run_cli(src, capsys, "--cache-dir", cache)
        assert "target_bug" not in out
        assert "stable_bug" in out

    def test_store_url_round_trip(self, tmp_path, capsys):
        # The ISSUE acceptance bar: triage survives a --store-url
        # round-trip (recorded by one client, applied by another).
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        root = tmp_path / "store-root"
        root.mkdir()
        server = ReportServer(backend=LocalStore(root=str(root)))
        server.start()
        try:
            docs = report_json(src, capsys)
            target = next(d for d in docs if d["function"] == "target_bug")
            code = main(["--triage-suppress", target["hash"],
                         "--store-url", server.url])
            assert code == 0
            capsys.readouterr()
            code, out, __ = run_cli(src, capsys, "--store-url", server.url)
            assert "target_bug" not in out
            assert "stable_bug" in out
        finally:
            server.stop()

    def test_severity_rank_consolidation_unchanged(self, tmp_path, capsys):
        # The consolidated suppress_rule path must not disturb ranked
        # output when no triage exists.
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, TREE)
        __, plain, __ = run_cli(src, capsys)
        __, ranked, __ = run_cli(src, capsys, "--rank", "severity")
        assert plain == ranked
