"""Lock checker tests (Figure 3) including the recursive-depth variant."""

from conftest import messages, run_checker

from repro.checkers import LOCK_CHECKER_SOURCE, lock_checker
from repro.checkers.lock import counting_lock_checker
from repro.metal import compile_metal


class TestFigure3:
    def test_release_without_acquire(self):
        result = run_checker("int f(int *l) { unlock(l); return 0; }", lock_checker())
        assert messages(result) == ["releasing lock l without acquiring it!"]

    def test_double_acquire(self):
        result = run_checker(
            "int f(int *l) { lock(l); lock(l); unlock(l); return 0; }",
            lock_checker(),
        )
        assert messages(result) == ["double acquire of lock l!"]

    def test_never_released(self):
        result = run_checker("int f(int *l) { lock(l); return 0; }", lock_checker())
        assert messages(result) == ["lock l never released!"]

    def test_clean_pairing(self):
        result = run_checker(
            "int f(int *l) { lock(l); unlock(l); return 0; }", lock_checker()
        )
        assert messages(result) == []

    def test_missing_release_on_error_path_only(self):
        code = (
            "int f(int *l, int e) {\n"
            "    lock(l);\n"
            "    if (e)\n"
            "        return -1;\n"
            "    unlock(l);\n"
            "    return 0;\n"
            "}\n"
        )
        result = run_checker(code, lock_checker())
        assert messages(result) == ["lock l never released!"]

    def test_two_locks_tracked_independently(self):
        code = (
            "int f(int *a, int *b) {\n"
            "    lock(a); lock(b);\n"
            "    unlock(b);\n"
            "    return 0;\n"
            "}\n"
        )
        result = run_checker(code, lock_checker())
        assert messages(result) == ["lock a never released!"]

    def test_custom_function_names(self):
        ext = lock_checker("spin_lock", "spin_unlock", "spin_trylock")
        code = "int f(int *l) { spin_lock(l); return 0; }"
        result = run_checker(code, ext)
        assert messages(result) == ["lock l never released!"]

    def test_figure_text_size(self):
        n_lines = len([l for l in LOCK_CHECKER_SOURCE.splitlines() if l.strip()])
        assert 10 <= n_lines <= 200


class TestCountingLockChecker:
    """§3.2: data values track recursive lock depth."""

    def test_balanced_recursion(self):
        code = (
            "int f(int *l) { lock(l); lock(l); unlock(l); unlock(l);"
            " return 0; }"
        )
        result = run_checker(code, counting_lock_checker())
        assert messages(result) == []

    def test_depth_goes_negative(self):
        code = (
            "int f(int *l) { lock(l); unlock(l); unlock(l); return 0; }"
        )
        result = run_checker(code, counting_lock_checker())
        assert any("more times than acquired" in m for m in messages(result))

    def test_depth_exceeds_limit(self):
        acquires = " ".join("lock(l);" for __ in range(6))
        code = "int f(int *l) { %s return 0; }" % acquires
        result = run_checker(code, counting_lock_checker())
        assert any("acquired 5 times" in m for m in messages(result))

    def test_leak_reports_depth(self):
        code = "int f(int *l) { lock(l); lock(l); return 0; }"
        result = run_checker(code, counting_lock_checker())
        assert any("still held 2 deep" in m for m in messages(result))
