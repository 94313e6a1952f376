"""Tests of the end-to-end benchmark itself (outside the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402
import trace as spans  # noqa: E402

assert os.path.dirname(spans.__file__) == HERE, spans.__file__


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# -- corpus ---------------------------------------------------------------------


def _sequence(seed):
    """Every tree of a short function-edit then header-edit sequence."""
    project, teeth = corpus.generate_kcorpus(seed, n_modules=8)
    trees = [project.files]
    for step in range(4):
        project = corpus.edit_function(project, seed, step)
        trees.append(project.files)
    for index in range(corpus.N_HEADERS):
        project = corpus.edit_header(project, index)
        trees.append(project.files)
    return trees, teeth, project.bugs


def _edited(trees):
    return [
        sorted(name for name in before if before[name] != after[name])
        for before, after in zip(trees, trees[1:])
    ]


def test_same_seed_gives_byte_identical_trees_and_edits(tmp_path):
    first, second = _sequence(1), _sequence(1)
    assert first == second
    for label in ("a", "b"):
        corpus.write_tree(
            corpus.generate_kcorpus(1, n_modules=8)[0], str(tmp_path / label)
        )
    for name in corpus.generate_kcorpus(1, n_modules=8)[0].files:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_different_seed_changes_trees_and_edits():
    (trees1, __, __), (trees2, __, __) = _sequence(1), _sequence(2)
    assert trees1[0] != trees2[0]
    assert _edited(trees1)[:4] != _edited(trees2)[:4]


def test_each_edit_changes_one_file():
    trees, __, __ = _sequence(3)
    edited = _edited(trees)
    assert all(len(names) == 1 for names in edited)
    assert all(names[0].endswith(".c") for names in edited[:4])
    assert [names[0] for names in edited[4:]] == [
        corpus.header_name(i) for i in range(corpus.N_HEADERS)
    ]


def test_ground_truth_is_balanced_and_labelled():
    project, teeth = corpus.generate_kcorpus(5)
    kinds = {}
    for bug in project.bugs:
        kinds[bug.kind] = kinds.get(bug.kind, 0) + 1
    assert len(kinds) == 8 and len(set(kinds.values())) == 1
    assert sorted(set(teeth.values())) == [corpus.CONFIRMED,
                                           corpus.INFEASIBLE]
    assert len(teeth) == 2 * len(range(0, 64, 3))


# -- tracing ----------------------------------------------------------------------


def _xgcc_argv(tree, cache):
    argv = []
    for name in run.CHECKERS:
        argv += ["--checker", name]
    return argv + [
        "-I", os.path.join(tree, "include"), "--refine=demote", "--rank",
        "statistical", "--incremental", "--cache-dir", cache,
    ]


def test_traced_run_matches_untraced_and_accounts_for_its_time(tmp_path):
    tree = str(tmp_path / "tree")
    paths = corpus.write_tree(corpus.generate_kcorpus(2, n_modules=8)[0],
                              tree)
    env = dict(os.environ, PYTHONPATH=run.SRC)
    out = str(tmp_path / "trace.json")
    plain = subprocess.run(
        [sys.executable, "-m", "repro.driver.cli"]
        + _xgcc_argv(tree, str(tmp_path / "c1")) + paths,
        capture_output=True, env=env, timeout=300,
    )
    traced = subprocess.run(
        [sys.executable, run.TRACED, out, "--"]
        + _xgcc_argv(tree, str(tmp_path / "c2")) + paths,
        capture_output=True, env=env, timeout=300,
    )
    assert plain.returncode == traced.returncode == 1
    assert plain.stdout and traced.stdout == plain.stdout

    events = spans.load(out)
    names = {event["name"] for event in events}
    assert {"cli.main", "cfront.preprocess", "engine.traverse",
            "store.write", "refine"} <= names
    for tid in {event["tid"] for event in events}:
        thread = [e for e in events if e["tid"] == tid
                  and e["name"] != "trace.write"]
        tops = [e for e in thread if not any(
            o is not e and o["ts"] <= e["ts"]
            and e["ts"] + e["dur"] <= o["ts"] + o["dur"] for o in thread)]
        assert [top["name"] for top in tops] == ["cli.main"]
        for top in tops:
            total = sum(e["args"]["self_us"]
                        for e in spans.subtree(events, top))
            assert abs(total - top["dur"]) <= 0.01 * top["dur"]


# -- reference seconds ------------------------------------------------------------


def test_reference_seconds_scale_times_and_keep_counts():
    ref = run.REFERENCE_S * 2  # the machine runs at half the nominal speed
    assert run.reference_seconds([(3.0, ref), (1.0, ref / 2)]) == [1.5, 1.0]
    sample = {"engine.traverse_s": 4.0, "refine.s": 2.0,
              "engine.points_visited": 10, "_wall_s": 8.0, "_ast_hits": 3}
    assert run.in_reference_seconds(sample, ref) == {
        "engine.traverse_s": 2.0, "refine.s": 1.0,
        "engine.points_visited": 10, "_wall_s": 4.0, "_ast_hits": 3}
    assert run.reference_wall() > 0


# -- compare --------------------------------------------------------------------


METRICS = {
    "op_s.p50": {"better": "lower", "bound": 0.1},
    "recall": {"better": "higher", "bound": 0.02},
    "engine.traverse_s": {"better": "lower"},
}


def _runs(metric, values, workload="edit"):
    return [{"workload": workload, "seed": seed,
             "result": {"metrics": {metric: {"value": v, "unit": "s"}}}}
            for seed, v in enumerate(values, 1)]


def _verdict(metric, parent, change):
    rows = run.compare_rows(_runs(metric, parent), _runs(metric, change),
                            METRICS)
    assert len(rows) == 1
    return rows[0]


STEADY = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]


def test_compare_claims_a_gain_only_when_it_wins_nine_in_ten():
    row = _verdict("op_s.p50", STEADY, [v * 0.8 for v in STEADY])
    assert row["verdict"] == "improved" and row["win_rate"] == 1.0
    mixed = [v * 0.8 for v in STEADY[:8]] + [1.2, 1.2]
    assert _verdict("op_s.p50", STEADY, mixed)["verdict"] != "improved"


def test_compare_applies_the_bound_in_the_metric_direction():
    assert _verdict("op_s.p50", STEADY,
                    [v * 1.2 for v in STEADY])["verdict"] == "regressed"
    assert _verdict("op_s.p50", STEADY,
                    [v * 1.05 for v in STEADY])["verdict"] == "within bound"
    recall = [0.8] * 10
    assert _verdict("recall", recall, [0.7] * 10)["verdict"] == "regressed"
    assert _verdict("recall", recall, [0.9] * 10)["verdict"] == "improved"


def test_compare_reports_unresolved_when_spread_exceeds_bound():
    noisy = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1.0, 1.05]
    assert _verdict("op_s.p50", noisy,
                    list(reversed(noisy)))["verdict"] == "unresolved"


def test_compare_counts_ties_for_neither_side():
    row = _verdict("op_s.p50", STEADY, STEADY)
    assert row["win_rate"] == 0.0 and row["verdict"] == "within bound"
    assert _verdict("engine.traverse_s", STEADY,
                    STEADY)["verdict"] == "no bound"


def test_compare_reads_sets_from_files(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"sets": [{"runs": _runs("recall", [1])},
                                         {"runs": _runs("recall", [2])}]}))
    assert run.load_runs(str(path) + "#1")[0]["result"]["metrics"][
        "recall"]["value"] == 2
    single = tmp_path / "set.json"
    single.write_text(json.dumps({"runs": _runs("recall", [3])}))
    assert len(run.load_runs(str(single))) == 1


# -- the benchmark end to end --------------------------------------------------


def test_benchmark_json_matches_what_run_prints():
    doc = run._benchmark()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [m["name"] for m in doc["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run._unit(m["name"]) for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def _quick(*extra):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", "--seed", "2"] + list(extra),
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    return proc, time.monotonic() - start


def _by_workload(final):
    out = {}
    for key, metric in final["metrics"].items():
        workload, name = key.split(".", 1)
        out.setdefault(workload, {})[name] = metric["value"]
    return out


def test_quick_run_checks_outputs_and_prints_every_metric():
    proc, elapsed = _quick()
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert elapsed < 60
    final = _last_json(proc.stdout)
    assert final["correct"] and final["failed"] == 0
    names = {m["name"] for m in run._benchmark()["end_to_end"]}
    metrics = _by_workload(final)
    assert sorted(metrics) == sorted(run.WORKLOADS)
    for values in metrics.values():
        assert set(values) == names
        assert all(values[name] > 0 for name in names)
        assert values["teeth_accuracy"] == 1.0


def test_quick_trace_run_accounts_for_each_workload():
    proc, __ = _quick("--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    final = _last_json(proc.stdout)
    assert final["correct"]
    names = {m["name"] for m in run._benchmark()["per_layer"]}
    for workload, values in _by_workload(final).items():
        assert set(values) == names
        assert values["trace.unaccounted_share"] < 0.05, workload
        assert values["cfront.preprocess_calls"] >= 1, workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "benchmarks" / "e2e"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
