"""Per-function facts computed once at parse time (docs/DRIVER.md,
"Function fingerprints").

The parser keeps each function definition's local content hash (over
its tokens) on the decl, and pass 1 its direct-callee set; the AST frame
and the daemon's pinned units carry them, so a warm run hashes no
definition it did not reparse and the call graph links without
re-walking unchanged bodies.  The Merkle
fingerprint pass is memoized on the call graph: the session and the
refine hook share one pass per run.

Covers: carried values survive a frame round trip and match a fresh
parse after a coupled, refining daemon burst (soundness), and the
mechanism itself -- definition-hash and fingerprint-pass counts on warm
CLI runs and warm daemon requests.
"""

import functools
import os
import shutil

import pytest

from repro.cfg import fingerprint as fpmod
from repro.cfront import parser as parsermod
from repro.checkers import audit_checker, free_checker, path_kill_extension
from repro.codegen.project_gen import (
    apply_function_edits,
    generate_global_project,
)
from repro.driver import cache as astcache
from repro.driver.cli import _build_extensions, main
from repro.driver.daemon import XgccDaemon
from repro.driver.project import Project
from repro.driver.session import IncrementalSession, session_signature
from repro.engine.analysis import AnalysisOptions
from repro.reports.pipeline import PipelineConfig

TOY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "toy_kernel",
)


def global_suite():
    """Coupled composition: annotations (pathkill) and user globals
    (audit) cross roots."""
    return [
        path_kill_extension(),
        free_checker(("kfree", "vfree")),
        audit_checker(),
    ]


def write_tree(dirpath, files):
    for name, text in files.items():
        (dirpath / name).write_text(text)


def make_daemon(src, cache, extension_factory, names, refine=None):
    """An in-process daemon (no socket served: ``analyze`` is called
    directly)."""
    options = AnalysisOptions()
    session = IncrementalSession(
        str(cache),
        session_signature(checker_names=names, options=options),
        pin_warm_state=True,
    )
    return XgccDaemon(
        watch_roots=[str(src)], extension_factory=extension_factory,
        session=session, socket_path=str(src / "unused.sock"),
        include_paths=[str(src)], cache_dir=str(cache), options=options,
        pipeline=PipelineConfig(refine=refine),
    )


def carried_facts(unit):
    return {decl.name: (decl.token_hash, decl.direct_callees)
            for decl in unit.functions()}


def assert_carried_facts_fresh(unit, include_paths=(), text=None):
    """Every definition carries a hash and callee set equal to those of a
    fresh parse of its file (``text`` in place of the file's contents)."""
    functions = unit.functions()
    assert functions
    project = Project(include_paths=list(include_paths))
    if text is None:
        fresh = project.compile_file(unit.filename)
    else:
        fresh = project.compile_text(text, unit.filename)
    facts = carried_facts(unit)
    assert all(hash_ is not None and callees is not None
               for hash_, callees in facts.values())
    assert facts == carried_facts(fresh.unit)


class CallCounter:
    """Counts calls of one module attribute, passing through."""

    def __init__(self, monkeypatch, owner, attr):
        self.calls = 0
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)


class TestSoundness:
    def test_pack_unpack_round_trip_keeps_carried_facts(self):
        text = ("int leaf(int x) { return x + 1; }\n"
                "int top(int x) { return leaf(x) + ext(x); }\n")
        compiled = Project().compile_text(text, "t.c")
        unit, __ = astcache.unpack(astcache.pack_unit(compiled.unit, 0))
        after = carried_facts(unit)
        assert after == carried_facts(compiled.unit)
        assert after["top"][1] == ("ext", "leaf")
        assert_carried_facts_fresh(unit, text=text)

    def test_coupled_refining_daemon_burst_keeps_pins_fresh(self, tmp_path):
        gen = generate_global_project(seed=3)
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, gen.files)
        daemon = make_daemon(
            src, tmp_path / "cache", global_suite,
            ["pathkill", "free", "audit"], refine="demote",
        )
        assert daemon.analyze()["ok"]
        tree = gen
        for seed in (1, 2):
            tree, __ = apply_function_edits(tree, k=1, seed=seed)
            write_tree(src, tree.files)
            response = daemon.analyze()
            assert response["ok"]
            assert response["files_reparsed"] >= 1
        assert daemon.analyze(force=True)["ok"]
        assert daemon._units
        for pin in daemon._units.values():
            assert_carried_facts_fresh(pin.compiled.unit, [str(src)])


class TestMechanism:
    def _toy_copy(self, tmp_path):
        work = tmp_path / "toy"
        shutil.copytree(TOY, str(work))
        return work

    def _cli(self, work, cache, capsys):
        paths = sorted(str(work / n) for n in os.listdir(str(work))
                       if n.endswith(".c"))
        code = main(
            ["--checker", "lock", "--checker", "free", "--incremental",
             "--refine=demote", "--cache-dir", str(cache),
             "-I", str(work / "include")] + paths
        )
        assert code in (0, 1)
        return capsys.readouterr().out

    def test_warm_cli_run_hashes_no_definition_and_fingerprints_once(
            self, tmp_path, capsys, monkeypatch):
        work = self._toy_copy(tmp_path)
        cache = tmp_path / "cache"
        cold = self._cli(work, cache, capsys)
        hashes = CallCounter(monkeypatch, parsermod, "definition_hash")
        passes = CallCounter(
            monkeypatch, fpmod, "strongly_connected_components")
        warm = self._cli(work, cache, capsys)
        assert warm == cold
        assert hashes.calls == 0
        assert passes.calls == 1

    def test_warm_daemon_request_hashes_only_the_reparsed_unit(
            self, tmp_path, monkeypatch):
        src = tmp_path / "src"
        shutil.copytree(TOY, str(src))
        shutil.copy(str(src / "include" / "kernel.h"), str(src))
        factory = functools.partial(_build_extensions, ("free", "lock"), ())
        daemon = make_daemon(src, tmp_path / "cache", factory,
                             ["free", "lock"], refine="demote")
        assert daemon.analyze()["ok"]
        edited = src / "devices.c"
        text = edited.read_text()
        assert "dev->flags = 0;" in text
        edited.write_text(text.replace("dev->flags = 0;",
                                       "dev->flags = 0 + 0;", 1))
        hashes = CallCounter(monkeypatch, parsermod, "definition_hash")
        passes = CallCounter(
            monkeypatch, fpmod, "strongly_connected_components")
        response = daemon.analyze()
        assert response["ok"]
        assert response["files_reparsed"] == 1
        reparsed = daemon._units[str(edited)].compiled.unit
        assert hashes.calls == len(reparsed.functions())
        assert passes.calls == 1


@pytest.mark.parametrize("salt", ["", "ctx"])
def test_fingerprint_tables_share_one_pass_per_graph(salt, monkeypatch):
    project = Project()
    project.compile_text("int f(void) { return g(); }\n", "m.c")
    graph = project.callgraph
    passes = CallCounter(monkeypatch, fpmod, "strongly_connected_components")
    first = fpmod.fingerprint_tables(graph, salt)
    assert fpmod.fingerprint_tables(graph, salt) is first
    assert passes.calls == 1
