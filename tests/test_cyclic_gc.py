"""The CLI's cyclic-collector policy (docs/DRIVER.md, "The cyclic
collector").

One-shot ``xgcc`` runs pause CPython's cyclic collector and give the
caller back its prior collector state however ``main`` leaves;
``--watch`` keeps the collector; the process entry point freezes the
heap before exiting, which must not cost a byte of output; and the
run's store backend is closed, so no socket is left for a finalizer.
"""

import contextlib
import gc
import json
import os
import subprocess
import sys

import pytest

from repro.driver import cli
from repro.driver.cli import main
from repro.driver.report_server import ReportServer
from repro.driver.store import LocalStore
from repro.reports.history import RunHistory

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
TOY = os.path.join(REPO, "examples", "toy_kernel")
TOY_ARGS = ["--checker", "lock", "--checker", "free",
            "-I", os.path.join(TOY, "include")] + sorted(
    os.path.join(TOY, name) for name in os.listdir(TOY)
    if name.endswith(".c")
)


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the collector on or off, then restore it."""
    prior = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if prior else gc.disable)()


@contextlib.contextmanager
def counted_passes():
    """The generations of every collector pass started in the block."""
    passes = []

    def hook(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield passes
    finally:
        gc.callbacks.remove(hook)


def run_entry_point(argv, *python_flags):
    """One ``xgcc`` child through ``python -m repro.driver.cli``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable] + list(python_flags)
        + ["-m", "repro.driver.cli"] + list(argv),
        cwd=REPO, env=env, capture_output=True, timeout=300,
    )


def test_one_shot_run_makes_no_collector_pass(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    with collector(True), counted_passes() as passes:
        code = main(TOY_ARGS + ["--stats-json", str(stats)])
    assert code == 1
    assert passes == []
    payload = json.loads(stats.read_text())
    assert payload["schema_version"] == 20
    assert payload["counters"]["cyclic_gc_passes"] == 0
    assert payload["timers_s"]["cyclic_gc"] == 0.0
    assert "double free" in capsys.readouterr().out


def _not_a_directory(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    return TOY_ARGS + ["--cache-dir", str(blocker)]


EXITS = {
    # name: (argv builder, expected exit status or SystemExit code)
    "return": (lambda tmp_path: TOY_ARGS, 1),
    "parser-error": (lambda tmp_path: [], "SystemExit"),
    "bad-flag": (lambda tmp_path: ["--jobs", "many"], "SystemExit"),
    "oserror": (_not_a_directory, 2),
}


@pytest.mark.parametrize("prior", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("exit_path", sorted(EXITS))
def test_caller_collector_state_is_restored(tmp_path, capsys, exit_path,
                                            prior):
    build_argv, expected = EXITS[exit_path]
    with collector(prior):
        if expected == "SystemExit":
            with pytest.raises(SystemExit) as info:
                main(build_argv(tmp_path))
            assert info.value.code == 2
        else:
            assert main(build_argv(tmp_path)) == expected
        assert gc.isenabled() is prior
    err = capsys.readouterr().err
    if exit_path == "oserror":
        assert "Not a directory" in err
    if exit_path == "parser-error":
        assert "no input files" in err
    if exit_path == "bad-flag":
        assert "invalid int value" in err


def test_watch_keeps_the_collector(tmp_path, monkeypatch):
    seen = []

    def fake_daemon_mode(parser, args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "_daemon_mode", fake_daemon_mode)
    with collector(True):
        assert main(["--watch", str(tmp_path)]) == 0
        assert gc.isenabled()
    assert seen == [True]


#: A child that counts collector passes from the moment ``main`` has
#: paused the collector until the last atexit hook: none may run, not
#: even between ``main`` restoring the collector and the exit freeze.
ENTRY_PROBE = """
import atexit, gc, sys
from repro.driver import cli
passes, paused = [], []
gc.callbacks.append(
    lambda phase, info: paused and phase == "start" and passes.append(1))
run = cli._main
def paused_main(parser, args):
    paused.append(gc.isenabled())
    return run(parser, args)
cli._main = paused_main
atexit.register(lambda: sys.stderr.write(
    "probe: paused=%r passes=%d\\n" % (paused, len(passes))))
cli.entry_point()
"""


def test_entry_point_runs_no_pass_through_exit():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", ENTRY_PROBE] + TOY_ARGS,
                          cwd=REPO, env=env, capture_output=True,
                          timeout=300)
    stderr = proc.stderr.decode()
    assert proc.returncode == 1, stderr
    assert "probe: paused=[False] passes=0\n" in stderr
    assert b"double free" in proc.stdout


def _run_outputs(tmp_path, label, run):
    """``(stdout, report JSON, run record)`` of one toy-kernel run; the
    record drops the fields that name the run (id, timestamp)."""
    cache = tmp_path / ("cache-" + label)
    report = tmp_path / ("report-%s.json" % label)
    stdout = run(TOY_ARGS + ["--cache-dir", str(cache), "--record-run",
                             "--report-json", str(report)])
    history = RunHistory(LocalStore(root=str(cache)))
    record = history.load_run(history.latest_run_id())
    del record["run_id"], record["timestamp"]
    return stdout, report.read_bytes(), json.dumps(record, sort_keys=True)


def test_entry_point_output_matches_in_process_run(tmp_path, capsys):
    def in_process(argv):
        assert main(argv) == 1
        return capsys.readouterr().out.encode()

    def child(argv):
        proc = run_entry_point(argv)
        assert proc.returncode == 1, proc.stderr.decode()
        return proc.stdout

    expected = _run_outputs(tmp_path, "in-process", in_process)
    assert expected[0] and b'"hash"' in expected[1]
    assert _run_outputs(tmp_path, "child", child) == expected


def test_store_connection_is_closed_at_exit(tmp_path):
    root = tmp_path / "store-root"
    root.mkdir()
    server = ReportServer(backend=LocalStore(root=str(root)))
    server.start()
    try:
        stats = tmp_path / "stats.json"
        proc = run_entry_point(
            TOY_ARGS + ["--incremental", "--record-run",
                        "--store-url", server.url,
                        "--stats-json", str(stats)],
            "-X", "dev",
        )
    finally:
        server.stop()
    stderr = proc.stderr.decode()
    assert proc.returncode == 1, stderr
    assert json.loads(stats.read_text())["counters"]["store_round_trips"] > 0
    assert "ResourceWarning" not in stderr


def test_a_warm_daemon_request_leaves_no_cyclic_garbage(tmp_path,
                                                        monkeypatch):
    """One warm ``analyze`` after a one-function edit: refcounting frees
    the run's :class:`Analysis` as soon as its result is dropped, and
    what the collector still finds is a few dozen objects (it was about
    3,100 before the tracker, dispatch-table, and refine-CFG cycles
    were broken)."""
    import functools
    import weakref

    from repro.codegen.project_gen import (
        apply_function_edits,
        generate_project,
    )
    from repro.driver.daemon import XgccDaemon
    from repro.driver.session import IncrementalSession, session_signature
    from repro.engine.analysis import Analysis, AnalysisOptions
    from repro.reports.pipeline import PipelineConfig

    src = tmp_path / "src"
    src.mkdir()

    def write(gen):
        for name, text in gen.files.items():
            (src / name).write_text(text)

    gen = generate_project(seed=5, n_modules=4, functions_per_module=5,
                           bug_rate=0.5)
    write(gen)
    options = AnalysisOptions()
    checkers = ("free", "lock")
    session = IncrementalSession(
        str(tmp_path / "cache"),
        session_signature(checker_names=checkers, options=options),
        pin_warm_state=True,
    )
    daemon = XgccDaemon(
        watch_roots=[str(src)],
        extension_factory=functools.partial(cli._build_extensions, checkers,
                                            ()),
        session=session, socket_path=str(tmp_path / "unused.sock"),
        include_paths=[str(src)], cache_dir=str(tmp_path / "cache"),
        options=options,
        pipeline=PipelineConfig(rank="statistical", refine="demote"),
    )
    daemon.analyze()
    gen, __ = apply_function_edits(gen, k=1, seed=3)
    write(gen)

    analyses = []
    init = Analysis.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        analyses.append(weakref.ref(self))

    monkeypatch.setattr(Analysis, "__init__", tracked)
    gc.collect()
    with collector(False):
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            response = daemon.analyze()
            dead = [ref() is None for ref in analyses]
            found = gc.collect()
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert response["ok"] and response["served_from"] == "analysis"
    assert response["roots_analyzed"] > 0
    assert dead and all(dead)
    assert found < 200
