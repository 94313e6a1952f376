"""History-based false-positive suppression tests (§8)."""

import os

from repro.cfront.source import Location
from repro.reports.model import Report
from repro.engine.history import HistoryDatabase


def report(line=10, message="using p after free!", function="f",
           variable="p", checker="free_checker", filename="dev.c"):
    return Report(
        checker=checker,
        message=message,
        location=Location(filename, line, 1),
        function=function,
        variable=variable,
    )


class TestHistoryMatching:
    def test_suppress_and_filter(self):
        db = HistoryDatabase()
        db.suppress(report())
        assert db.filter([report()]) == []

    def test_line_numbers_do_not_matter(self):
        # §8: matching fields are "relatively invariant under edits
        # (unlike, for example, line numbers)."
        db = HistoryDatabase()
        db.suppress(report(line=10))
        moved = report(line=250)
        assert db.is_suppressed(moved)

    def test_function_name_matters(self):
        db = HistoryDatabase()
        db.suppress(report(function="f"))
        assert not db.is_suppressed(report(function="g"))

    def test_variable_matters(self):
        db = HistoryDatabase()
        db.suppress(report(variable="p"))
        assert not db.is_suppressed(report(variable="q"))

    def test_message_matters(self):
        db = HistoryDatabase()
        db.suppress(report(message="using p after free!"))
        assert not db.is_suppressed(report(message="double free of p!"))

    def test_file_matters(self):
        db = HistoryDatabase()
        db.suppress(report(filename="dev.c"))
        assert not db.is_suppressed(report(filename="other.c"))

    def test_mixed_filtering(self):
        db = HistoryDatabase()
        db.suppress(report(function="known_fp"))
        reports = [report(function="known_fp"), report(function="new_bug")]
        kept = db.filter(reports)
        assert [r.function for r in kept] == ["new_bug"]


class TestPersistence:
    def test_save_load(self, tmp_path):
        db = HistoryDatabase()
        db.suppress(report())
        path = os.path.join(tmp_path, "history.json")
        db.save(path)
        loaded = HistoryDatabase.load(path)
        assert loaded.is_suppressed(report())
        assert len(loaded) == 1


class TestCrossVersionScenario:
    """Simulate two 'versions' of a module: inspecting version 1 marks a
    false positive; analyzing version 2 (edited, different line numbers)
    keeps it suppressed while new errors surface."""

    V1 = (
        "int f(int *p) { kfree(p); debug_dump(p); return 0; }\n"
    )
    V2 = (
        "/* new header comment */\n"
        "\n"
        "int f(int *p) { kfree(p); debug_dump(p); return 0; }\n"
        "int g(int *q) { kfree(q); return *q; }\n"
    )

    def checker(self):
        from repro.cfront import astnodes as ast
        from repro.metal import ANY_POINTER, Extension
        from repro.metal.patterns import Callout

        ext = Extension("free_checker")
        ext.state_var("v", ANY_POINTER)
        ext.transition("start", "{ kfree(v) }", to="v.freed")

        def used(context):
            obj = context.bindings.get("v")
            point = context.point
            if obj is None:
                return False
            if isinstance(point, ast.Call):
                key = ast.structural_key(obj)
                return any(ast.structural_key(a) == key for a in point.args)
            from repro.metal.callouts import mc_is_deref_of

            return mc_is_deref_of(point, obj)

        ext.transition(
            "v.freed", Callout(used, "any use"), to="v.stop",
            action=lambda ctx: ctx.err("use of freed %s", ctx.identifier("v")),
        )
        return ext

    def test_scenario(self):
        from conftest import run_checker

        v1 = run_checker(self.V1, self.checker(), filename="dev.c")
        assert len(v1.reports) == 1  # the debug_dump false positive

        db = HistoryDatabase()
        db.suppress(v1.reports[0])  # human inspected: false positive

        v2 = run_checker(self.V2, self.checker(), filename="dev.c")
        surviving = db.filter(v2.reports)
        assert len(v2.reports) == 2
        assert len(surviving) == 1
        assert surviving[0].function == "g"
