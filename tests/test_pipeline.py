"""The report pipeline (``repro.reports.pipeline``) as the CLI runs it:
one timer per stage, one error policy, and the store checks that come
before any analysis."""

import json

import pytest

from repro.driver.cli import main
from repro.driver.project import Project
from repro.driver.stats import WALL_TIMERS
from repro.engine.history import HistoryDatabase
from repro.reports.history import RunHistory

STAGES = ("triage", "refine", "rank", "record", "prune")

SOURCE = (
    "int f(int *p) { kfree(p); return *p; }\n"
    "int g(int *q) { kfree(q); kfree(q); return 0; }\n"
)


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "m.c"
    path.write_text(SOURCE)
    return str(path)


def run(argv, capsys):
    code = main(["--checker", "free"] + argv)
    out, err = capsys.readouterr()
    return code, out, err


def stats_of(path):
    with open(path) as handle:
        return json.load(handle)


class TestStageTimers:
    def test_every_stage_is_timed(self, tmp_path, source, capsys):
        stats = str(tmp_path / "stats.json")
        code, out, err = run(
            ["--refine=demote", "--record-run", "--cache-dir",
             str(tmp_path / "cache"), "--stats-json", stats, source],
            capsys,
        )
        assert code == 1 and "recorded run r" in err
        timers = stats_of(stats)["timers_s"]
        for stage in STAGES:
            assert timers[stage] >= 0.0, stage

    def test_a_plain_run_times_the_stages_too(self, tmp_path, source,
                                              capsys):
        stats = str(tmp_path / "stats.json")
        run(["--stats-json", stats, source], capsys)
        assert set(STAGES) <= set(stats_of(stats)["timers_s"])

    def test_render_and_report_json_are_timed(self, tmp_path, source,
                                              capsys):
        stats = str(tmp_path / "stats.json")
        run(["--report-json", str(tmp_path / "r.json"), "--stats-json",
             stats, source], capsys)
        timers = stats_of(stats)["timers_s"]
        assert timers["render"] >= 0.0
        assert timers["report_json"] >= 0.0

    def test_run_wall_less_the_wall_timers_is_unaccounted(self, tmp_path,
                                                          source, capsys):
        stats = str(tmp_path / "stats.json")
        run(["--stats-json", stats, source], capsys)
        timers = stats_of(stats)["timers_s"]
        covered = sum(timers.get(name, 0.0) for name in WALL_TIMERS)
        assert 0.0 < covered <= timers["run_wall"]
        assert timers["unaccounted"] == pytest.approx(
            timers["run_wall"] - covered, abs=1e-5
        )


class TestErrorPolicy:
    def test_unreadable_triage_file_degrades(self, tmp_path, source,
                                             capsys):
        plain = run([source], capsys)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        stats = str(tmp_path / "stats.json")
        code, out, err = run(
            ["--triage", str(bad), "--stats-json", stats, source], capsys
        )
        assert (code, out) == plain[:2]
        assert "xgcc: ignoring %s: " % bad in err
        doc = stats_of(stats)
        assert doc["counters"]["triage_load_errors"] == 1
        assert [entry["kind"] for entry in doc["degradations"]] == [
            "reports"
        ]

    def test_bare_list_history_file_degrades(self, tmp_path, source,
                                             capsys):
        plain = run([source], capsys)
        history = tmp_path / "history.json"
        history.write_text(json.dumps([["free_checker", source, "f", "p",
                                        "using p after free!"]]))
        code, out, err = run(["--triage", str(history), source], capsys)
        assert (code, out) == plain[:2]
        assert "not an object" in err

    def test_history_file_passed_as_triage_suppresses(self, tmp_path,
                                                      source, capsys):
        code, out, err = run([source], capsys)
        history = HistoryDatabase()
        history.suppress_key("free_checker", source, "g", "q",
                             "double free of q!")
        path = str(tmp_path / "history.json")
        history.save(path)
        stats = str(tmp_path / "stats.json")
        __, triaged, __ = run(["--triage", path, "--stats-json", stats,
                               source], capsys)
        assert "double free of q!" in out
        assert triaged.splitlines() == [
            line for line in out.splitlines() if "double free" not in line]
        assert stats_of(stats)["counters"]["triage_suppressed"] == 1
        with pytest.raises(SystemExit) as exit_info:
            main(["--checker", "free", "--history", path, source])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("method, counter, line", [
        ("record_run", "report_run_record_errors", "run not recorded"),
        ("prune", "report_run_prune_errors", "runs not pruned"),
    ])
    def test_failed_record_or_prune_degrades(self, tmp_path, source, capsys,
                                             monkeypatch, method, counter,
                                             line):
        plain = run([source], capsys)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(RunHistory, method, fail)
        stats = str(tmp_path / "stats.json")
        code, out, err = run(
            ["--record-run", "--prune-runs", "3", "--cache-dir",
             str(tmp_path / "cache"), "--stats-json", stats, source],
            capsys,
        )
        assert (code, out) == plain[:2]
        assert "xgcc: %s: disk full" % line in err
        assert stats_of(stats)["counters"][counter] == 1


class TestStoreChecksComeFirst:
    @pytest.mark.parametrize("flags, message", [
        (["--record-run"], "--record-run requires --cache-dir"),
        (["--prune-runs", "2"], "--prune-runs requires --cache-dir"),
        (["--record-run", "--prune-runs", "-1", "--cache-dir", "unused"],
         "keep must be >= 0"),
    ], ids=["record-run", "prune-runs", "negative-prune"])
    def test_usage_error_before_pass_1(self, source, capsys, monkeypatch,
                                       flags, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("pass 1 ran before the usage check")

        monkeypatch.setattr(Project, "compile_files", unreachable)
        with pytest.raises(SystemExit) as info:
            main(["--checker", "free"] + flags + [source])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--jobs", "0"], "--jobs must be >= 1 (got 0)"),
        (["--jobs", "-3"], "--jobs must be >= 1 (got -3)"),
        (["--max-steps-per-root", "-1"], "--max-steps-per-root must be >= 1"),
        (["--max-steps-per-root", "0"], "--max-steps-per-root must be >= 1"),
        (["--max-paths-per-root", "-2"], "--max-paths-per-root must be >= 1"),
        (["--max-seconds-per-root", "-1"],
         "--max-seconds-per-root must be > 0"),
        (["--max-seconds-per-root", "0"],
         "--max-seconds-per-root must be > 0"),
        (["--max-seconds-per-root", "nan"],
         "--max-seconds-per-root must be > 0"),
        (["--worker-timeout", "-5", "--jobs", "2"],
         "--worker-timeout must be > 0"),
        (["--poll-interval", "0"], "--poll-interval must be > 0"),
        (["--cache-gc-days", "-1"], "--cache-gc-days must be >= 0"),
    ])
    def test_nonsense_numeric_flag_before_pass_1(self, source, capsys,
                                                 monkeypatch, flags,
                                                 message):
        def unreachable(*args, **kwargs):
            raise AssertionError("pass 1 ran before the usage check")

        monkeypatch.setattr(Project, "compile_files", unreachable)
        with pytest.raises(SystemExit) as info:
            main(["--checker", "free"] + flags + [source])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--jobs", "1"],
        ["--max-steps-per-root", "1"],
        ["--max-seconds-per-root", "inf"],
        ["--cache-gc-days", "0", "--cache-gc", "--cache-dir", "CACHE"],
    ])
    def test_edge_values_are_accepted(self, tmp_path, source, capsys, flags):
        flags = [str(tmp_path / "c") if flag == "CACHE" else flag
                 for flag in flags]
        code, out, err = run(flags + [source], capsys)
        assert code in (0, 1), err
