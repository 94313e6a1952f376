"""Parallel driver + persistent AST cache benchmarks (docs/DRIVER.md).

Four series, dumped to ``BENCH_parallel.json`` with the host's
``cpu_count``:

- pass-1 wall-clock, serial vs ``jobs=2`` and ``jobs=4``, on generated
  50- and 200-file projects (speedup asserted only when the host has the
  cores to show it);
- cold vs warm cache: the warm run must do *zero* re-parses -- every
  file is a cache hit -- and beat the cold run's wall-clock;
- pass-2 wall-clock, serial vs component-parallel, same-report check;
- pass-2 wall-clock on the e2e corpus (``benchmarks/e2e/corpus.py``,
  seed 1) at ``jobs=1`` and ``jobs=2``, alternating: whether pass-2
  workers pay for themselves on this host.
"""

import gc
import json
import os
import statistics
import sys
import time

from repro.codegen.project_gen import default_checkers, generate_project
from repro.driver.project import Project

SUMMARY_PATH = "BENCH_parallel.json"
_summary = {}


def _dump_summary():
    _summary["cpu_count"] = os.cpu_count()
    with open(SUMMARY_PATH, "w") as handle:
        json.dump(_summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


def materialize(tmp_path, n_files, functions_per_file=3, seed=7):
    """Write a generated ``n_files``-module project to disk."""
    generated = generate_project(
        seed=seed, n_modules=n_files,
        functions_per_module=functions_per_file, cross_calls=False,
    )
    root = tmp_path / ("proj_%d" % n_files)
    root.mkdir()
    for name, text in generated.files.items():
        (root / name).write_text(text)
    paths = sorted(
        str(root / name) for name in generated.files if name.endswith(".c")
    )
    return str(root), paths


def timed_pass1(root, paths, jobs, cache_dir=None):
    project = Project(include_paths=[root], cache_dir=cache_dir)
    start = time.perf_counter()
    project.compile_files(paths, jobs=jobs)
    return time.perf_counter() - start, project


def test_pass1_scaling(benchmark, tmp_path):
    cores = os.cpu_count() or 1
    print("\npass-1 wall-clock (serial vs parallel), %d cores:" % cores)
    rows = {}
    for n_files in (50, 200):
        root, paths = materialize(tmp_path, n_files)
        row = {}
        for jobs in (1, 2, 4):
            elapsed, project = timed_pass1(root, paths, jobs)
            assert len(project.compiled) == n_files
            row["jobs%d" % jobs] = round(elapsed, 4)
        speedup4 = row["jobs1"] / row["jobs4"]
        print("  %3d files: serial %.2fs  jobs=2 %.2fs  jobs=4 %.2fs  "
              "(x%.2f at 4)" % (n_files, row["jobs1"], row["jobs2"],
                                row["jobs4"], speedup4))
        row["speedup_jobs4"] = round(speedup4, 2)
        rows["%d_files" % n_files] = row
        if n_files == 200 and cores >= 4:
            # The fan-out claim, only meaningful with real parallelism.
            assert speedup4 >= 1.5
    _summary["pass1_scaling"] = rows
    _dump_summary()
    root, paths = materialize(tmp_path, 10, seed=9)
    benchmark(timed_pass1, root, paths, 1)


def test_incremental_cache(benchmark, tmp_path):
    n_files = 50
    root, paths = materialize(tmp_path, n_files, seed=21)
    cache_dir = str(tmp_path / "astcache")

    cold_s, cold = timed_pass1(root, paths, 1, cache_dir=cache_dir)
    warm_s, warm = timed_pass1(root, paths, 1, cache_dir=cache_dir)

    print("\nincremental cache, %d files: cold %.2fs -> warm %.2fs (x%.1f)"
          % (n_files, cold_s, warm_s, cold_s / warm_s))
    assert cold.stats.count("parses") == n_files
    # A warm cache turns pass 1 into pure load_emitted work.
    assert warm.stats.count("parses") == 0
    assert warm.stats.count("cache_hits") == n_files
    assert warm_s < cold_s
    assert warm.total_source_bytes() == cold.total_source_bytes()
    _summary["incremental_cache"] = {
        "files": n_files,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
    }
    _dump_summary()
    benchmark(timed_pass1, root, paths, 1, cache_dir)


def test_pass2_components(benchmark, tmp_path):
    root, paths = materialize(tmp_path, 12, functions_per_file=5, seed=4)

    def analyze(jobs):
        project = Project(include_paths=[root])
        project.compile_files(paths)
        start = time.perf_counter()
        result = project.run(default_checkers(), jobs=jobs,
                             extension_factory=default_checkers)
        return time.perf_counter() - start, project, result

    serial_s, __, serial_result = analyze(1)
    parallel_s, parallel, parallel_result = analyze(4)
    keys = lambda result: [  # noqa: E731
        (r.message, r.location.filename, r.location.line)
        for r in result.reports
    ]
    assert keys(parallel_result) == keys(serial_result)
    assert parallel.stats.count("pass2_components") > 1

    print("\npass-2, %d components: serial %.2fs, jobs=4 %.2fs"
          % (parallel.stats.count("pass2_components"), serial_s, parallel_s))
    _summary["pass2_components"] = {
        "components": parallel.stats.count("pass2_components"),
        "serial_s": round(serial_s, 4),
        "jobs4_s": round(parallel_s, 4),
        "reports": len(serial_result.reports),
    }
    _dump_summary()
    benchmark(analyze, 1)


def test_corpus_pass2_jobs(tmp_path):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    from repro.checkers import ALL_CHECKERS

    generated, __ = corpus.generate_kcorpus(1)
    root = str(tmp_path / "kcorpus")
    paths = corpus.write_tree(generated, root)
    names = ("free", "lock", "mallocfail", "range", "user-pointer")
    factory = lambda: [ALL_CHECKERS[name]() for name in names]  # noqa: E731
    project = Project(include_paths=[os.path.join(root, "include")])
    project.compile_files(paths)
    project.callgraph  # built once, outside the timed runs
    walls = {1: [], 2: []}
    outputs = {}
    for __ in range(5):
        for jobs in (1, 2):
            # Collector paused, as in a one-shot CLI run (docs/DRIVER.md,
            # "The cyclic collector").
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = project.run(factory(), jobs=jobs,
                                     extension_factory=factory)
                walls[jobs].append(time.perf_counter() - start)
            finally:
                gc.enable()
            outputs[jobs] = [report.to_dict() for report in result.reports]
    assert outputs[1] == outputs[2]
    row = {
        "jobs%d_s" % jobs: round(statistics.median(series), 4)
        for jobs, series in walls.items()
    }
    row["runs"] = len(walls[1])
    print("\ncorpus pass 2 (median of %d alternating): jobs=1 %.3fs, "
          "jobs=2 %.3fs" % (row["runs"], row["jobs1_s"], row["jobs2_s"]))
    _summary["corpus_pass2_jobs"] = row
    _dump_summary()
