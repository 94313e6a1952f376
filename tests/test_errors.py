"""Report / ErrorLog unit tests."""

from repro.cfront.source import Location
from repro.engine.errors import ErrorLog
from repro.reports.model import Report


def report(line=5, column=2, message="m", checker="c", **kw):
    return Report(checker, message, Location("f.c", line, column), **kw)


class TestErrorReport:
    def test_distance_same_file(self):
        r = report(line=30, origin_location=Location("f.c", 10, 1))
        assert r.distance == 20

    def test_distance_cross_file(self):
        r = report(line=5, origin_location=Location("other.c", 5, 1))
        assert r.distance == 1000

    def test_distance_without_origin(self):
        assert report().distance == 0

    def test_is_local(self):
        assert report(call_chain=0).is_local
        assert not report(call_chain=2).is_local

    def test_identity_includes_position(self):
        assert report(line=5).identity() != report(line=6).identity()
        assert report(column=2).identity() == report(column=2).identity()

    def test_history_key_excludes_position(self):
        a = report(line=5, function="f", variable="p")
        b = report(line=500, function="f", variable="p")
        assert a.history_key() == b.history_key()

    def test_format_contains_location_and_checker(self):
        text = report(function="fn").format()
        assert "f.c:5:2" in text
        assert "in fn" in text

    def test_why_trace(self):
        r = report(trace=[("entered state v.freed", Location("f.c", 3, 1)),
                          ("became a synonym of p", Location("f.c", 4, 1))])
        text = r.format_trace()
        assert "entered state v.freed at f.c:3:1" in text
        assert "became a synonym of p at f.c:4:1" in text

    def test_engine_populates_trace(self):
        from conftest import run_checker
        from repro.checkers import free_checker

        code = "int f(int *p) { int *q; kfree(p); q = p; return *q; }"
        result = run_checker(code, free_checker())
        trace_events = [event for event, __ in result.reports[0].trace]
        assert trace_events[0].startswith("entered state v.freed")
        assert any("synonym" in event for event in trace_events)


class TestErrorLog:
    def test_dedup(self):
        log = ErrorLog()
        assert log.add(report()) is not None
        assert log.add(report()) is None  # same identity: dropped
        assert len(log) == 1

    def test_different_lines_kept(self):
        log = ErrorLog()
        log.add(report(line=1))
        log.add(report(line=2))
        assert len(log) == 2

    def test_counters(self):
        log = ErrorLog()
        log.count_example("rule", Location("f.c", 1, 1))
        log.count_example("rule", Location("f.c", 2, 1))
        log.count_violation("rule", Location("f.c", 3, 1))
        assert log.rule_counts("rule") == (2, 1)

    def test_counters_dedup_sites(self):
        log = ErrorLog()
        site = Location("f.c", 1, 1)
        log.count_example("rule", site)
        log.count_example("rule", Location("f.c", 1, 1))
        assert log.rule_counts("rule") == (1, 0)

    def test_unknown_rule(self):
        assert ErrorLog().rule_counts("nothing") == (0, 0)

    def test_iteration(self):
        log = ErrorLog()
        log.add(report(line=1))
        log.add(report(line=2))
        assert len(list(log)) == 2
