"""Parallel two-pass driver + persistent AST cache tests (docs/DRIVER.md).

Covers: pass-1 fan-out determinism, cold/warm cache behaviour and
invalidation, call-graph component partitioning, report equivalence of
pass-1 fan-out with serial runs (byte-identical, same order, same
ranking), and the CLI flags.
"""

import json
import os
import random

import pytest

from repro.checkers import free_checker, lock_checker
from repro.cfg.callgraph import CallGraph
from repro.codegen.project_gen import default_checkers, generate_project
from repro.driver.cli import main
from repro.driver.project import Project
from repro.ranking import rank_by_rule_reliability, stratify

TOY_KERNEL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "toy_kernel",
)
TOY_SOURCES = sorted(
    os.path.join(TOY_KERNEL, name)
    for name in os.listdir(TOY_KERNEL)
    if name.endswith(".c")
)
TOY_INCLUDE = os.path.join(TOY_KERNEL, "include")


def toy_checkers():
    """A fresh extension list for the toy kernel (extensions are
    stateful: one list per run)."""
    return [free_checker(("kfree",)), lock_checker()]


def toy_project(**kwargs):
    return Project(include_paths=[TOY_INCLUDE], **kwargs)


def report_keys(result):
    return [
        (r.checker, r.message, r.location.filename, r.location.line,
         r.location.column, r.function)
        for r in result.reports
    ]


def write_generated(tmp_path, **kwargs):
    """Materialize a generated project on disk; returns (dir, c-paths)."""
    gen = generate_project(**kwargs)
    for name, text in gen.files.items():
        (tmp_path / name).write_text(text)
    paths = sorted(
        str(tmp_path / name) for name in gen.files if name.endswith(".c")
    )
    return str(tmp_path), paths


class TestCompileFilesParallel:
    def test_parallel_matches_serial(self, tmp_path):
        root, paths = write_generated(tmp_path, seed=3, n_modules=3,
                                      functions_per_module=4)
        serial = Project(include_paths=[root])
        serial.compile_files(paths, jobs=1)
        parallel = Project(include_paths=[root])
        parallel.compile_files(paths, jobs=2)

        assert [c.filename for c in parallel.compiled] == paths
        assert [c.filename for c in serial.compiled] == paths
        assert parallel.total_source_bytes() == serial.total_source_bytes()
        assert set(parallel.callgraph.functions) == set(
            serial.callgraph.functions
        )
        assert parallel.static_vars == serial.static_vars

    def test_results_in_input_order(self):
        project = toy_project()
        compiled = project.compile_files(TOY_SOURCES, jobs=2)
        assert [c.filename for c in compiled] == TOY_SOURCES

    def test_single_file_stays_serial(self):
        project = toy_project()
        project.compile_files(TOY_SOURCES[:1], jobs=4)
        assert len(project.compiled) == 1
        assert project.stats.count("parses") == 1

    def test_unpicklable_reader_falls_back_to_serial(self, tmp_path):
        src = tmp_path / "one.c"
        src.write_text("int f(void) { return 0; }\n")
        two = tmp_path / "two.c"
        two.write_text("int g(void) { return 1; }\n")
        reader = lambda path: open(path).read()  # noqa: E731 -- unpicklable
        project = Project(file_reader=reader)
        project.compile_files([str(src), str(two)], jobs=2)
        assert project.stats.count("pass1_serial_fallback") == 1
        assert len(project.compiled) == 2


class TestAstCache:
    def test_cold_then_warm(self, tmp_path):
        cache = str(tmp_path / "cache")

        cold = toy_project(cache_dir=cache)
        cold.compile_files(TOY_SOURCES)
        n = len(TOY_SOURCES)
        assert cold.stats.count("parses") == n
        assert cold.stats.count("cache_misses") == n
        assert cold.stats.count("cache_hits") == 0

        warm = toy_project(cache_dir=cache)
        warm.compile_files(TOY_SOURCES)
        assert warm.stats.count("cache_hits") == n
        assert warm.stats.count("parses") == 0  # zero re-parses
        assert all(c.from_cache for c in warm.compiled)
        # Size accounting survives cache-hit loads (expansion_ratio /
        # total_source_bytes would silently zero out otherwise).
        assert warm.total_source_bytes() == cold.total_source_bytes() > 0
        assert all(c.emitted_bytes > 0 for c in warm.compiled)
        assert set(warm.callgraph.functions) == set(cold.callgraph.functions)

    def test_warm_hits_under_jobs(self, tmp_path):
        cache = str(tmp_path / "cache")
        toy_project(cache_dir=cache).compile_files(TOY_SOURCES, jobs=2)
        warm = toy_project(cache_dir=cache)
        warm.compile_files(TOY_SOURCES, jobs=2)
        assert warm.stats.count("cache_hits") == len(TOY_SOURCES)
        assert warm.stats.count("parses") == 0

    def test_define_change_invalidates(self, tmp_path):
        cache = str(tmp_path / "cache")
        src = tmp_path / "d.c"
        src.write_text(
            "#ifdef MODE\nint f(void) { return 1; }\n"
            "#else\nint f(void) { return 0; }\n#endif\n"
        )
        first = Project(cache_dir=cache)
        first.compile_files([str(src)])
        assert first.stats.count("cache_misses") == 1

        changed = Project(cache_dir=cache, defines={"MODE": "1"})
        changed.compile_files([str(src)])
        assert changed.stats.count("cache_misses") == 1
        assert changed.stats.count("cache_hits") == 0

        again = Project(cache_dir=cache, defines={"MODE": "1"})
        again.compile_files([str(src)])
        assert again.stats.count("cache_hits") == 1

    def test_header_edit_invalidates_includer(self, tmp_path):
        cache = str(tmp_path / "cache")
        (tmp_path / "h.h").write_text("#define LIMIT 10\n")
        src = tmp_path / "u.c"
        src.write_text('#include "h.h"\nint f(void) { return LIMIT; }\n')

        first = Project(include_paths=[str(tmp_path)], cache_dir=cache)
        first.compile_files([str(src)])
        assert first.stats.count("cache_misses") == 1

        # The cache key hashes the *preprocessed* token stream, so a
        # header edit invalidates every file that saw it.
        (tmp_path / "h.h").write_text("#define LIMIT 20\n")
        second = Project(include_paths=[str(tmp_path)], cache_dir=cache)
        second.compile_files([str(src)])
        assert second.stats.count("cache_misses") == 1
        assert second.stats.count("cache_hits") == 0

    def test_same_line_comment_edit_still_hits(self, tmp_path):
        cache = str(tmp_path / "cache")
        src = tmp_path / "c.c"
        src.write_text("int f(void) { return 3; }\n")
        Project(cache_dir=cache).compile_files([str(src)])

        # No token moves: the token-stream key still matches.
        src.write_text("int f(void) { return 3; } /* tweak */\n")
        warm = Project(cache_dir=cache)
        warm.compile_files([str(src)])
        assert warm.stats.count("cache_hits") == 1
        assert warm.stats.count("parses") == 0

    def test_line_shifting_comment_edit_misses_and_matches_cold(
        self, tmp_path, capsys
    ):
        # Token positions are part of the key: a warm hit here would
        # print the pre-edit line:column.
        work = tmp_path / "work"
        work.mkdir()
        for name in os.listdir(TOY_KERNEL):
            if name.endswith(".c"):
                with open(os.path.join(TOY_KERNEL, name)) as handle:
                    (work / name).write_text(handle.read())
        sources = sorted(str(work / n) for n in os.listdir(str(work)))
        argv = ["--checker", "free", "--checker", "lock",
                "-I", TOY_INCLUDE] + sources
        cache = str(tmp_path / "cache")
        main(argv + ["--cache-dir", cache])
        capsys.readouterr()

        devices = work / "devices.c"
        devices.write_text("/* c1\n c2\n c3 */\n\n\n" + devices.read_text())
        stats = str(tmp_path / "stats.json")
        warm_code = main(argv + ["--cache-dir", cache, "--stats-json", stats])
        warm = capsys.readouterr().out
        cold_code = main(argv)
        cold = capsys.readouterr().out
        assert (warm_code, warm) == (cold_code, cold)
        assert "devices.c:41:14" in cold
        with open(stats) as handle:
            counters = json.load(handle)["counters"]
        assert counters["parses"] == 1
        assert counters["cache_hits"] == len(sources) - 1


def components(graph):
    """The weakly connected components, as sorted name lists ordered by
    first member, grouped by :meth:`CallGraph.component_labels`."""
    parts = {}
    for name, label in sorted(graph.component_labels().items()):
        parts.setdefault(label or name, []).append(name)
    return sorted(parts.values())


class TestDependencyReads:
    """The fast path checks every path a dependency record lists; a
    header many units include is read and hashed once per pass-1 call,
    and again by the next call."""

    def test_a_shared_header_is_read_once_per_call(self, tmp_path):
        header = str(tmp_path / "h.h")
        sources = [str(tmp_path / ("m%d.c" % i)) for i in range(3)]
        with open(header, "w") as handle:
            handle.write("#define N 1\n")
        for i, path in enumerate(sources):
            with open(path, "w") as handle:
                handle.write('#include "h.h"\nint f%d(void) { return N; }\n'
                             % i)
        reads = []

        def counting_reader(path):
            reads.append(path)
            with open(path) as handle:
                return handle.read()

        cache = str(tmp_path / "cache")

        def compile_once():
            project = Project(include_paths=[str(tmp_path)],
                              cache_dir=cache, file_reader=counting_reader)
            project.compile_files(sources)
            return project

        compile_once()
        del reads[:]
        warm = compile_once()
        assert warm.stats.count("ast_fast_hits") == len(sources)
        assert reads.count(header) == 1
        assert sorted(path for path in reads if path != header) == sources
        # A new call reads it again: an edit between calls is seen.
        with open(header, "w") as handle:
            handle.write("#define N 2\n")
        del reads[:]
        edited = compile_once()
        assert reads.count(header) >= 1
        assert edited.stats.count("ast_fast_misses") == len(sources)


class TestCallGraphComponents:
    def test_partition(self):
        from repro.cfront.parser import parse

        unit = parse(
            "int leaf(int x) { return x; }\n"
            "int a(int x) { return leaf(x); }\n"
            "int b(int x) { return a(x) + external(x); }\n"
            "int lone(int x) { return external(x); }\n"
            "int r1(int x) { return shared(x); }\n"
            "int r2(int x) { return shared(x); }\n"
            "int shared(int x) { return x; }\n"
        )
        graph = CallGraph.from_units([unit])
        assert components(graph) == [
            ["a", "b", "leaf"],
            ["lone"],
            ["r1", "r2", "shared"],
        ]
        assert graph.component_labels()["lone"] == ""

    def test_components_cover_all_roots(self):
        project = toy_project()
        project.compile_files(TOY_SOURCES)
        graph = project.callgraph
        members = [n for part in components(graph) for n in part]
        assert sorted(members) == sorted(graph.functions)
        for part in components(graph):
            assert graph.connected(part[:1]) == set(part)


class TestParallelAnalysis:
    def test_toy_kernel_matches_serial(self):
        serial = toy_project()
        serial.compile_files(TOY_SOURCES)
        serial_result = serial.run(toy_checkers())

        parallel = toy_project()
        parallel.compile_files(TOY_SOURCES, jobs=2)
        parallel_result = parallel.run(toy_checkers())

        # Same reports, same order -- not just as sets.
        assert report_keys(parallel_result) == report_keys(serial_result)
        assert parallel_result.stats["errors"] == serial_result.stats["errors"]

    def test_generated_project_matches_serial(self, tmp_path):
        root, paths = write_generated(
            tmp_path, seed=11, n_modules=3, functions_per_module=5,
            cross_calls=False,
        )

        serial = Project(include_paths=[root])
        serial.compile_files(paths)
        serial_result = serial.run(default_checkers())

        parallel = Project(include_paths=[root])
        parallel.compile_files(paths, jobs=2)
        parallel_result = parallel.run(default_checkers())

        assert report_keys(parallel_result) == report_keys(serial_result)

        # Ranking consumes report order and the merged example/violation
        # sites, so identical ranking output is the end-to-end check.
        s_rank = stratify(serial_result.reports)
        p_rank = stratify(parallel_result.reports)
        assert [r.format() for r in p_rank] == [r.format() for r in s_rank]
        s_stat = rank_by_rule_reliability(
            serial_result.reports, serial_result.log
        )
        p_stat = rank_by_rule_reliability(
            parallel_result.reports, parallel_result.log
        )
        assert [r.format() for r in p_stat] == [r.format() for r in s_stat]

    def test_single_component_runs_serial(self, tmp_path):
        src = tmp_path / "s.c"
        src.write_text(
            "int helper(int *p) { kfree(p); return 0; }\n"
            "int entry(int *p) { helper(p); return *p; }\n"
        )
        project = Project()
        project.compile_files([str(src)], jobs=2)
        result = project.run(toy_checkers())
        assert list(project.stats.workers) == [os.getpid()]  # no pool
        assert len(result.reports) == 1


def ranked_report_lines(root, paths, jobs=1, cache_dir=None):
    """One driver configuration end-to-end: the final ranked report text.

    This is the full observable output surface -- ranking consumes report
    order, severities, and the merged example/violation sites, so two
    configurations that agree here agree everywhere a user can see.
    """
    project = Project(include_paths=[root], cache_dir=cache_dir)
    project.compile_files(paths, jobs=jobs)
    result = project.run(default_checkers())
    return [r.format() for r in stratify(result.reports)]


class TestDifferentialHarness:
    """Differential property test (docs/TESTING.md): for randomized
    generated projects, every driver configuration -- serial, jobs=N,
    cold cache, warm cache -- must produce byte-identical ranked
    reports.  Seeds are drawn from a seeded PRNG so failures replay."""

    SEEDS = sorted(random.Random(0xD1FF).sample(range(10_000), 4))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_modes_agree(self, tmp_path, seed):
        root, paths = write_generated(
            tmp_path, seed=seed, n_modules=2, functions_per_module=4,
            cross_calls=bool(seed % 2),
        )
        cache = str(tmp_path / "cache")

        serial = ranked_report_lines(root, paths)
        assert ranked_report_lines(root, paths, jobs=2) == serial
        assert ranked_report_lines(root, paths, cache_dir=cache) == serial
        # Warm re-run: zero re-parses, still byte-identical.
        warm = Project(include_paths=[root], cache_dir=cache)
        warm.compile_files(paths, jobs=2)
        assert warm.stats.count("parses") == 0
        warm_result = warm.run(default_checkers())
        assert [r.format() for r in stratify(warm_result.reports)] == serial

    def test_hypothesis_sweep_if_available(self):
        hypothesis = pytest.importorskip("hypothesis")
        import shutil
        import tempfile

        from hypothesis import strategies as st

        @hypothesis.settings(
            max_examples=6, deadline=None, derandomize=True,
            suppress_health_check=list(hypothesis.HealthCheck),
        )
        @hypothesis.given(
            seed=st.integers(min_value=0, max_value=99_999),
            n_modules=st.integers(min_value=1, max_value=3),
            cross=st.booleans(),
        )
        def check(seed, n_modules, cross):
            # tmp_path is function-scoped, which hypothesis forbids; use
            # a throwaway directory per example instead.
            workdir = tempfile.mkdtemp(prefix="xgcc-diff-")
            try:
                gen = generate_project(
                    seed=seed, n_modules=n_modules, functions_per_module=3,
                    cross_calls=cross,
                )
                for name, text in gen.files.items():
                    with open(os.path.join(workdir, name), "w") as handle:
                        handle.write(text)
                paths = sorted(
                    os.path.join(workdir, name)
                    for name in gen.files
                    if name.endswith(".c")
                )
                serial = ranked_report_lines(workdir, paths)
                assert ranked_report_lines(workdir, paths, jobs=2) == serial
                cache = os.path.join(workdir, "cache")
                assert (
                    ranked_report_lines(workdir, paths, cache_dir=cache)
                    == serial
                )
                assert (
                    ranked_report_lines(
                        workdir, paths, jobs=2, cache_dir=cache
                    )
                    == serial
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)

        check()


class TestParallelCLI:
    def test_jobs_flag_matches_serial(self, capsys):
        argv = ["--checker", "lock", "--checker", "free",
                "-I", TOY_INCLUDE] + TOY_SOURCES
        code_serial = main(argv)
        out_serial = capsys.readouterr().out
        code_parallel = main(argv + ["--jobs", "2"])
        out_parallel = capsys.readouterr().out
        assert code_parallel == code_serial == 1
        assert out_parallel == out_serial

    def test_cache_dir_and_stats_json(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        stats_json = str(tmp_path / "stats.json")
        argv = ["--checker", "lock", "-I", TOY_INCLUDE,
                "--cache-dir", cache, "--stats-json", stats_json]
        main(argv + TOY_SOURCES)
        capsys.readouterr()
        first = json.load(open(stats_json))
        assert first["counters"]["parses"] == len(TOY_SOURCES)
        assert first["counters"]["cache_misses"] == len(TOY_SOURCES)
        assert "traverse" in first["timers_s"]
        assert first["engine"]["errors"] == 1

        main(argv + TOY_SOURCES)
        capsys.readouterr()
        second = json.load(open(stats_json))
        assert second["counters"]["cache_hits"] == len(TOY_SOURCES)
        assert "parses" not in second["counters"]

    @pytest.mark.parametrize("extra", [[], ["--incremental"]],
                             ids=["plain", "incremental"])
    def test_serial_stats_json_times_lexing_and_pass2(self, tmp_path,
                                                       capsys, extra):
        stats_json = str(tmp_path / "stats.json")
        main(["--checker", "lock", "--checker", "free", "-I", TOY_INCLUDE,
              "--cache-dir", str(tmp_path / "cache"),
              "--stats-json", stats_json] + extra + TOY_SOURCES)
        capsys.readouterr()
        stats = json.load(open(stats_json))
        timers, counters = stats["timers_s"], stats["counters"]
        assert stats["schema_version"] == 20
        assert timers["pass2_wall"] > 0
        assert 0 < timers["lex"] <= timers["preprocess"]
        assert counters["tokens_lexed"] > counters["parses"]

    def test_stats_flag_prints_driver_lines(self, capsys):
        main(["--checker", "lock", "-I", TOY_INCLUDE, "--stats",
              "--jobs", "2"] + TOY_SOURCES)
        err = capsys.readouterr().err
        assert "driver.parses" in err
        assert "driver.pass1_wall_s" in err
        assert "driver.pass2_wall_s" in err
