"""Integration tests for the engine's less-travelled features: file-scope
inactivation (§6.1), state on a callee's return value (not propagated,
as in the paper), analysis budgets, switch-carried state, and goto
paths."""

from conftest import messages, run_checker

from repro.checkers import free_checker, lock_checker
from repro.driver.project import Project
from repro.engine.analysis import AnalysisOptions


class TestFileScopeVariables:
    def project(self, a_c, b_c):
        project = Project()
        project.compile_text(a_c, "a.c")
        project.compile_text(b_c, "b.c")
        return project

    def test_reactivated_down_the_call_chain(self):
        # §6.1: "they may reenter scope before the callee returns if the
        # analysis reaches a function further down the call chain that is
        # in the same file as the original caller."
        a_c = (
            "static int *cache;\n"
            "int a_touch(void) { return *cache; }\n"
            "int a_free(void) {\n"
            "    kfree(cache);\n"
            "    b_work();\n"
            "    return 0;\n"
            "}\n"
        )
        b_c = "int b_work(void) { a_touch(); return 0; }\n"
        result = self.project(a_c, b_c).run(free_checker())
        assert [(r.function, r.location.line) for r in result.reports] == [
            ("a_touch", 2)
        ]

    def test_reactivated_after_return(self):
        a_c = (
            "static int *cache;\n"
            "int a_free(void) {\n"
            "    kfree(cache);\n"
            "    b_noop();\n"
            "    return *cache;\n"
            "}\n"
        )
        b_c = "int b_noop(void) { return 0; }\n"
        result = self.project(a_c, b_c).run(free_checker())
        assert [(r.function, r.location.line) for r in result.reports] == [
            ("a_free", 5)
        ]

    def test_inactive_while_in_other_file(self):
        # b.c has its own 'cache' identifier; a.c's static must not match.
        a_c = (
            "static int *cache;\n"
            "int a_free(void) {\n"
            "    kfree(cache);\n"
            "    b_deref();\n"
            "    return 0;\n"
            "}\n"
        )
        b_c = (
            "int *cache;\n"  # a DIFFERENT cache (b.c's own)
            "int b_deref(void) { return *cache; }\n"
        )
        result = self.project(a_c, b_c).run(free_checker())
        assert not any(r.function == "b_deref" for r in result.reports)

    def test_static_vars_table(self):
        project = self.project("static int *cache;\nint a(void){return 0;}\n",
                               "int b(void){return 0;}\n")
        assert project.static_vars == {"cache": "a.c"}


class TestReturnStatePropagation:
    CODE = (
        "int *make(int n) {\n"
        "    int *p = kmalloc(n);\n"
        "    kfree(p);\n"
        "    return p;\n"
        "}\n"
        "int root(int n) {\n"
        "    int *q = make(n);\n"
        "    return *q;\n"
        "}\n"
    )

    def test_default_paper_behaviour_misses_it(self):
        result = run_checker(self.CODE, free_checker())
        assert messages(result) == []


class TestBudget:
    def test_truncation_flag(self):
        code = "int f(int *p) { kfree(p); return *p; }"
        result = run_checker(
            code, free_checker(), options=AnalysisOptions(max_steps=3)
        )
        assert result.truncated

    def test_no_budget(self):
        code = "int f(int *p) { kfree(p); return *p; }"
        result = run_checker(
            code, free_checker(), options=AnalysisOptions(max_steps=None)
        )
        assert not result.truncated
        assert len(result.reports) == 1


class TestSwitchCarriedState:
    def test_release_in_some_cases_only(self):
        code = (
            "int f(int *l, int mode) {\n"
            "    lock(l);\n"
            "    switch (mode) {\n"
            "    case 0:\n"
            "        unlock(l);\n"
            "        return 0;\n"
            "    case 1:\n"
            "        return 1;\n"  # leak!
            "    default:\n"
            "        unlock(l);\n"
            "        return 2;\n"
            "    }\n"
            "}\n"
        )
        result = run_checker(code, lock_checker())
        assert messages(result) == ["lock l never released!"]

    def test_switch_constant_dispatch_prunes(self):
        code = (
            "int f(int *p) {\n"
            "    int mode = 2;\n"
            "    kfree(p);\n"
            "    switch (mode) {\n"
            "    case 1:\n"
            "        return *p;\n"  # unreachable: mode == 2
            "    case 2:\n"
            "        return 0;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == []

    def test_fallthrough_carries_state(self):
        code = (
            "int f(int *l, int mode) {\n"
            "    switch (mode) {\n"
            "    case 0:\n"
            "        lock(l);\n"
            "        /* fallthrough */\n"
            "    case 1:\n"
            "        unlock(l);\n"
            "        return 0;\n"
            "    }\n"
            "    return 0;\n"
            "}\n"
        )
        result = run_checker(code, lock_checker())
        # case 1 entered directly: unlock-without-lock; case 0 path clean
        assert messages(result) == ["releasing lock l without acquiring it!"]


class TestGotoPaths:
    def test_error_path_via_goto(self):
        # the kernel's "goto out_unlock" idiom, done wrong
        code = (
            "int f(int *l, int err) {\n"
            "    lock(l);\n"
            "    if (err)\n"
            "        goto out;\n"  # skips the unlock!
            "    unlock(l);\n"
            "out:\n"
            "    return err;\n"
            "}\n"
        )
        result = run_checker(code, lock_checker())
        assert messages(result) == ["lock l never released!"]

    def test_goto_idiom_done_right(self):
        code = (
            "int f(int *l, int err) {\n"
            "    int rc = 0;\n"
            "    lock(l);\n"
            "    if (err) {\n"
            "        rc = -1;\n"
            "        goto out;\n"
            "    }\n"
            "    rc = 1;\n"
            "out:\n"
            "    unlock(l);\n"
            "    return rc;\n"
            "}\n"
        )
        result = run_checker(code, lock_checker())
        assert messages(result) == []

    def test_backward_goto_terminates(self):
        code = (
            "int f(int *p, int n) {\n"
            "again:\n"
            "    n--;\n"
            "    if (n > 0)\n"
            "        goto again;\n"
            "    kfree(p);\n"
            "    return 0;\n"
            "}\n"
        )
        result = run_checker(code, free_checker())
        assert result.stats["points_visited"] < 500
        assert messages(result) == []


class TestStatsAccounting:
    def test_stats_keys_present(self):
        result = run_checker("int f(void) { return 0; }", free_checker())
        for key in (
            "points_visited",
            "blocks_traversed",
            "paths_completed",
            "cache_hits",
            "function_cache_hits",
            "calls_followed",
        ):
            assert key in result.stats

    def test_multiple_extensions_accumulate(self):
        code = "int f(int *p) { kfree(p); lock(p); return 0; }"
        from repro.cfront.parser import parse
        from repro.engine.analysis import Analysis

        analysis = Analysis([parse(code)])
        result = analysis.run([free_checker(), lock_checker()])
        assert len(result.tables) == 2
        assert {r.checker for r in result.reports} == {"lock_checker"}
