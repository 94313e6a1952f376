"""Parallel driver + persistent AST cache benchmarks (docs/DRIVER.md).

Three series, dumped to ``BENCH_parallel.json`` with the host's
``cpu_count``:

- pass-1 wall-clock, serial vs ``jobs=2`` and ``jobs=4``, on generated
  50- and 200-file projects (speedup asserted only when the host has the
  cores to show it);
- cold vs warm cache: the warm run must do *zero* re-parses -- every
  file is a cache hit -- and beat the cold run's wall-clock;
- whole CLI runs over the e2e corpus (``benchmarks/e2e/corpus.py``,
  seed 1) at ``--jobs 1`` and ``--jobs 2``, alternating, plain and cold
  ``--incremental``: pass-1 fan-out plus the serial pass 2, with
  byte-identical reports.
"""

import json
import os
import statistics
import subprocess
import sys
import time

from repro.codegen.project_gen import generate_project
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


def _quartiles(series):
    """``[q1, median, q3]`` of ``series``, rounded for the summary."""
    return [round(value, 4)
            for value in statistics.quantiles(series, n=4, method="inclusive")]


def test_corpus_jobs(tmp_path):
    """Whole CLI runs over the e2e corpus (seed 1, the e2e flags) at
    ``--jobs 1`` and ``--jobs 2``, alternating, without a cache and as a
    cold ``--incremental`` run: what pass-1 workers buy on this host.
    Pass 2 is serial either way, so stdout must be byte-identical."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
    try:
        import corpus
    finally:
        sys.path.pop(0)

    generated, __ = corpus.generate_kcorpus(1)
    root = str(tmp_path / "kcorpus")
    paths = corpus.write_tree(generated, root)
    argv = [sys.executable, "-m", "repro.driver.cli"]
    for name in ("free", "lock", "mallocfail", "range", "user-pointer"):
        argv += ["--checker", name]
    argv += ["-I", os.path.join(root, "include"), "--refine=demote",
             "--rank", "statistical"]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    modes = ("plain", "incremental")
    walls = {(mode, jobs): [] for mode in modes for jobs in (1, 2)}
    outputs = {mode: set() for mode in modes}
    rounds = 5
    for index in range(rounds):
        for mode in modes:
            for jobs in (1, 2):
                flags = ["--jobs", str(jobs)]
                if mode == "incremental":  # a fresh cache: every run is cold
                    flags += ["--incremental", "--cache-dir",
                              str(tmp_path / ("cache-%d-%d" % (jobs, index)))]
                start = time.perf_counter()
                proc = subprocess.run(argv + flags + paths, env=env,
                                      stdout=subprocess.PIPE, check=False)
                walls[(mode, jobs)].append(time.perf_counter() - start)
                assert proc.returncode == 1, proc.returncode
                outputs[mode].add(proc.stdout)
    assert len(outputs["plain"]) == 1
    assert outputs["incremental"] == outputs["plain"]
    row = {"runs": rounds}
    for mode in modes:
        row[mode] = {
            "jobs%d_s" % jobs: _quartiles(walls[(mode, jobs)])
            for jobs in (1, 2)
        }
        print("\ncorpus whole run, %s (q1/median/q3 of %d alternating): "
              "jobs=1 %s  jobs=2 %s"
              % (mode, rounds, row[mode]["jobs1_s"], row[mode]["jobs2_s"]))
    _summary["corpus_jobs"] = row
    _dump_summary()
