"""Interprocedural engine tests: refine/restore (Table 2), function
summaries, recursion, file-scope inactivation (§6)."""

from conftest import messages, run_checker

from repro.cfront.parser import parse
from repro.checkers import free_checker, lock_checker
from repro.engine.analysis import Analysis, AnalysisOptions
from repro.metal import compile_metal


class TestTable2Rows:
    """Each row of Table 2 as a micro-program: state must survive the call
    (refine) and the return (restore)."""

    def test_row1_plain_argument(self):
        # Actual xa, formal xf, state on xa.
        code = (
            "void callee(int *xf) { kfree(xf); }\n"
            "int caller(int *xa) { callee(xa); return *xa; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using xa after free!"]

    def test_row1_restore_direction(self):
        # State created on the formal maps back to the actual.
        code = (
            "void callee(int *xf) { kfree(xf); *xf = 1; }\n"
            "int caller(int *xa) { callee(xa); return 0; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using xf after free!"]

    def test_row2_address_of(self):
        # Actual &xa, formal xf, state on xa: state(*xf) = state(xa).
        code = (
            "void callee(int **xf) { kfree(*xf); }\n"
            "int caller(int *xa) { callee(&xa); return *xa; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using xa after free!"]

    def test_row3_field_dot(self):
        code = (
            "struct s { int *field; };\n"
            "void callee(struct s xf) { kfree(xf.field); }\n"
            "int caller(struct s xa) { callee(xa); return *xa.field; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using xa.field after free!"]

    def test_row4_field_arrow(self):
        code = (
            "struct s { int *field; };\n"
            "void callee(struct s *xf) { kfree(xf->field); }\n"
            "int caller(struct s *xa) { callee(xa); return *xa->field; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using xa->field after free!"]

    def test_row5_deref(self):
        # Actual xa, formal xf, state on *xa.
        code = (
            "void callee(int **xf) { kfree(*xf); }\n"
            "int caller(int **xa) { callee(xa); return **xa; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using *xa after free!"]

    def test_deeper_indirection(self):
        # "The final four rules actually apply at all levels of
        # indirection."
        code = (
            "struct s { struct s *next; int *data; };\n"
            "void callee(struct s *xf) { kfree(xf->next->data); }\n"
            "int caller(struct s *xa) { callee(xa); return *xa->next->data; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using xa->next->data after free!"]

    def test_state_into_callee(self):
        # refine direction: freed state visible inside the callee.
        code = (
            "int callee(int *xf) { return *xf; }\n"
            "int caller(int *xa) { kfree(xa); return callee(xa); }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using xf after free!"]

    def test_by_value_option(self):
        # With by-value restore, the callee's state changes to the plain
        # actual do not come back.
        code = (
            "void callee(int *xf) { kfree(xf); }\n"
            "int caller(int *xa) { callee(xa); return *xa; }\n"
        )
        result = run_checker(
            code, free_checker(), options=AnalysisOptions(by_value_params=True)
        )
        assert messages(result) == []


class TestCallerLocalsSaved:
    def test_untouched_local_state_survives_call(self):
        code = (
            "void noop(int x) { x = x + 1; }\n"
            "int caller(int *p, int x) { kfree(p); noop(x); return *p; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using p after free!"]

    def test_local_state_not_visible_in_callee(self):
        # p is not passed, so the callee must not see (or kill) its state.
        code = (
            "void other(int *q) { *q = 1; }\n"
            "int caller(int *p, int *q) { kfree(p); other(q); return *p; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using p after free!"]


class TestFunctionSummaries:
    def test_summary_cache_hit(self):
        code = (
            "void helper(int *p) { *p = 1; }\n"
            "int root(int *a, int *b, int *c) { helper(a); helper(b);"
            " helper(a); kfree(c); return 0; }\n"
        )
        unit = parse(code)
        analysis = Analysis([unit])
        analysis.run(free_checker())
        assert analysis.stats["function_cache_hits"] >= 1

    def test_callee_analyzed_in_new_state(self):
        # top-down: helper re-analyzed when reached with freed state.
        code = (
            "int helper(int *p) { return *p; }\n"
            "int root(int *a) { helper(a); kfree(a); helper(a); return 0; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using p after free!"]

    def test_union_of_exit_states(self):
        # §2.2 step 12: outgoing instances are the union over exit paths.
        code = (
            "void callee(int *p, int *w, int c) {\n"
            "    if (c)\n"
            "        kfree(p);\n"
            "    else\n"
            "        kfree(w);\n"
            "}\n"
            "int caller(int *p, int *w, int c) {\n"
            "    callee(p, w, c);\n"
            "    return *p + *w;\n"
            "}\n"
        )
        result = run_checker(code, free_checker())
        assert sorted(messages(result)) == [
            "using p after free!",
            "using w after free!",
        ]

    def test_stopped_in_callee_stays_stopped(self):
        code = (
            "void fixup(int *p) { p = 0; }\n"  # kills its own view only
            "void really_fix(int **p) { *p = 0; }\n"
            "int caller(int *a) { kfree(a); really_fix(&a); return *a; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == []

    def test_stopped_then_recreated_in_callee_survives(self):
        # The callee's first kfree stops the caller's freed p (a double
        # free); its second kfree tracks p again, so p leaves the call
        # freed and the caller's kfree after it is a second double free.
        code = (
            "int callee(int *p) {\n"
            "    kfree(p);\n"
            "    kfree(p);\n"
            "    return 0;\n"
            "}\n"
            "int caller(int *p) {\n"
            "    kfree(p);\n"
            "    callee(p);\n"
            "    kfree(p);\n"
            "    return 0;\n"
            "}\n"
        )
        for caching in (True, False):
            result = run_checker(
                code, free_checker(), options=AnalysisOptions(caching=caching)
            )
            assert sorted(
                (r.message, r.location.line) for r in result.reports
            ) == [("double free of p!", 2), ("double free of p!", 9)]

    def test_stopped_then_recreated_within_one_block(self):
        # Same as above, but the stop and the re-creation happen in one
        # basic block (no call splits it): the block summary must record
        # the new instance as the stopped tuple's continuation.
        ext = compile_metal(
            "sm twice {\n"
            " state decl any_pointer v;\n"
            " start: { *v } ==> v.seen ;\n"
            " v.seen: { *v } ==> v.stop,"
            " { err(\"second deref of %s\", mc_identifier(v)); } ;\n"
            "}\n"
        )
        code = (
            "int sink;\n"
            "int callee(int *p) {\n"
            "    sink = *p;\n"
            "    sink = *p;\n"
            "    return 0;\n"
            "}\n"
            "int caller(int *p) {\n"
            "    sink = *p;\n"
            "    callee(p);\n"
            "    sink = *p;\n"
            "    return 0;\n"
            "}\n"
        )
        for caching in (True, False):
            result = run_checker(
                code, ext, options=AnalysisOptions(caching=caching)
            )
            assert sorted(r.location.line for r in result.reports) == [3, 10]

    def test_unknown_callee_skipped(self):
        # §6: "if the function's CFG is not available, the system silently
        # continues."
        code = "int caller(int *p) { mystery(p); kfree(p); return *p; }"
        result = run_checker(code, free_checker())
        assert messages(result) == ["using p after free!"]

    def test_matched_calls_not_followed(self):
        # kfree is matched by the extension, so even a defined kfree body
        # is not traversed (Fig. 5 caption).
        code = (
            "void kfree(int *x) { *x = 0; }\n"
            "int caller(int *p) { kfree(p); return *p; }\n"
        )
        result = run_checker(code, free_checker(), roots=["caller"])
        assert messages(result) == ["using p after free!"]


class TestRecursion:
    def test_self_recursion_terminates(self):
        code = (
            "int fact(int n, int *p) {\n"
            "    if (n <= 1) return 1;\n"
            "    return n * fact(n - 1, p);\n"
            "}\n"
        )
        result = run_checker(code, free_checker())
        assert result.stats["points_visited"] < 5000

    def test_mutual_recursion_terminates(self):
        code = (
            "int is_even(int n);\n"
            "int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }\n"
            "int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }\n"
        )
        result = run_checker(code, free_checker())
        assert result.stats["points_visited"] < 5000

    def test_recursion_with_state(self):
        # unsound-by-design: incomplete summaries are assumed sufficient,
        # but the analysis must still terminate and not crash.
        code = (
            "void walk(int *p, int n) {\n"
            "    if (n == 0) {\n"
            "        kfree(p);\n"
            "        return;\n"
            "    }\n"
            "    walk(p, n - 1);\n"
            "}\n"
        )
        result = run_checker(code, free_checker())
        assert result.stats["points_visited"] < 5000


class TestCallChainRanking:
    def test_call_chain_recorded(self):
        code = (
            "int deep(int *p) { return *p; }\n"
            "int mid(int *p) { return deep(p); }\n"
            "int root(int *p) { kfree(p); return mid(p); }\n"
        )
        result = run_checker(code, free_checker())
        assert len(result.reports) == 1
        assert result.reports[0].call_chain == 2
        assert not result.reports[0].is_local

    def test_local_error_has_zero_chain(self):
        result = run_checker(
            "int f(int *p) { kfree(p); return *p; }", free_checker()
        )
        assert result.reports[0].call_chain == 0
        assert result.reports[0].is_local


class TestGlobalState:
    def test_global_variable_state_passes_through(self):
        code = (
            "int *cached;\n"
            "void helper(int n) { n = n + 1; }\n"
            "int root(void) { kfree(cached); helper(3); return *cached; }\n"
        )
        result = run_checker(code, free_checker())
        assert messages(result) == ["using cached after free!"]

    def test_gstate_across_calls(self):
        # global interrupt state flows into and back out of callees
        code = (
            "void helper(void) { sti(); }\n"
            "int root(void) { cli(); helper(); return 0; }\n"
        )
        from repro.checkers import interrupt_checker

        result = run_checker(code, interrupt_checker())
        assert messages(result) == []

    def test_gstate_error_in_callee(self):
        code = (
            "void helper(void) { cli(); }\n"
            "int root(void) { cli(); helper(); sti(); return 0; }\n"
        )
        from repro.checkers import interrupt_checker

        result = run_checker(code, interrupt_checker())
        assert messages(result) == ["disabling interrupts twice (nested cli)"]
