"""Two-pass driver and CLI tests (§6)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.driver.cli import main
from repro.driver.project import Project


MODULE_A = """
#define LOCKDEP 1
#include "shared.h"

static int module_counter;

int handler_a(struct device *dev) {
    lock(&dev->lck);
    dev->count = dev->count + 1;
    unlock(&dev->lck);
    return 0;
}
"""

MODULE_B = """
#include "shared.h"

int handler_b(struct device *dev, int err) {
    lock(&dev->lck);
    if (err)
        return -1;
    unlock(&dev->lck);
    return 0;
}
"""

SHARED_H = "struct device { int count; int lck; };\n"


@pytest.fixture
def source_tree(tmp_path):
    (tmp_path / "shared.h").write_text(SHARED_H)
    (tmp_path / "a.c").write_text(MODULE_A)
    (tmp_path / "b.c").write_text(MODULE_B)
    return tmp_path


class TestTwoPass:
    def test_pass1_emits_asts(self, source_tree, tmp_path):
        emit_dir = str(tmp_path / "emitted")
        project = Project(include_paths=[str(source_tree)], emit_dir=emit_dir)
        project.compile_file(str(source_tree / "a.c"))
        assert os.path.exists(os.path.join(emit_dir, "a.c.ast"))

    def test_emitted_files_larger_than_source(self, source_tree):
        # §6: emitted AST files "are typically four or five times larger
        # than the text representation" -- ours are at least that.
        project = Project(include_paths=[str(source_tree)])
        compiled = project.compile_file(str(source_tree / "a.c"))
        assert compiled.expansion_ratio > 2.0

    def test_pass2_reassembles(self, source_tree, tmp_path):
        emit_dir = str(tmp_path / "emitted")
        pass1 = Project(include_paths=[str(source_tree)], emit_dir=emit_dir)
        pass1.compile_file(str(source_tree / "a.c"))
        pass1.compile_file(str(source_tree / "b.c"))

        pass2 = Project()
        pass2.load_emitted(os.path.join(emit_dir, "a.c.ast"))
        pass2.load_emitted(os.path.join(emit_dir, "b.c.ast"))
        assert set(pass2.callgraph.functions) == {"handler_a", "handler_b"}

    def test_static_vars_registered(self, source_tree):
        project = Project(include_paths=[str(source_tree)])
        project.compile_file(str(source_tree / "a.c"))
        assert "module_counter" in project.static_vars

    def test_whole_project_analysis(self, source_tree):
        from repro.checkers import lock_checker

        project = Project(include_paths=[str(source_tree)])
        project.compile_file(str(source_tree / "a.c"))
        project.compile_file(str(source_tree / "b.c"))
        result = project.run(lock_checker())
        assert [r.function for r in result.reports] == ["handler_b"]

    def test_load_emitted_keeps_size_accounting(self, source_tree, tmp_path):
        emit_dir = str(tmp_path / "emitted")
        pass1 = Project(include_paths=[str(source_tree)], emit_dir=emit_dir)
        original = pass1.compile_file(str(source_tree / "a.c"))

        pass2 = Project()
        loaded = pass2.load_emitted(os.path.join(emit_dir, "a.c.ast"))
        assert loaded is pass2.compiled[0]
        assert loaded.from_cache
        assert loaded.source_bytes == original.source_bytes > 0
        assert loaded.emitted_bytes == os.path.getsize(
            os.path.join(emit_dir, "a.c.ast")
        )
        assert pass2.total_source_bytes() == original.source_bytes
        assert loaded.expansion_ratio == pytest.approx(
            original.expansion_ratio
        )

    def test_callgraph_built_once_per_batch(self, source_tree, monkeypatch):
        from repro.cfg.callgraph import CallGraph

        builds = []
        original = CallGraph.from_units.__func__

        def counting(cls, units):
            builds.append(len(list(units)))
            return original(cls, units)

        monkeypatch.setattr(CallGraph, "from_units", classmethod(counting))

        project = Project(include_paths=[str(source_tree)])
        project.compile_files(
            [str(source_tree / "a.c"), str(source_tree / "b.c")]
        )
        project.callgraph
        project.callgraph  # cached: still one build for the batch
        assert builds == [2]

        # Registering another unit invalidates the cached graph.
        project.compile_file(str(source_tree / "a.c"))
        project.callgraph
        assert builds == [2, 3]


class TestCLI:
    def test_list_checkers(self, capsys):
        assert main(["--list-checkers"]) == 0
        out = capsys.readouterr().out
        assert "free" in out and "lock" in out

    def test_run_builtin_checker(self, source_tree, capsys):
        code = main(
            [
                "--checker", "lock",
                "-I", str(source_tree),
                str(source_tree / "a.c"),
                str(source_tree / "b.c"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # errors found
        assert "never released" in out
        assert "handler_b" in out

    def test_clean_run_returns_zero(self, source_tree, capsys):
        code = main(
            ["--checker", "lock", "-I", str(source_tree), str(source_tree / "a.c")]
        )
        assert code == 0

    def test_metal_file(self, source_tree, tmp_path, capsys):
        metal = tmp_path / "leak.metal"
        metal.write_text(
            "sm leak {\n"
            " state decl any_pointer l;\n"
            " start: { lock(l) } ==> l.held ;\n"
            " l.held: { unlock(l) } ==> l.stop\n"
            '  | $end_of_path$ ==> l.stop, { err("held at exit"); } ;\n'
            "}\n"
        )
        code = main(
            [
                "--metal", str(metal),
                "-I", str(source_tree),
                str(source_tree / "b.c"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "held at exit" in out

    def test_engine_toggles(self, source_tree, capsys):
        code = main(
            [
                "--checker", "lock",
                "--no-false-path-pruning",
                "--no-synonyms",
                "--stats",
                "-I", str(source_tree),
                str(source_tree / "a.c"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "points_visited" in err

    def test_history_suppression(self, source_tree, tmp_path, capsys):
        from repro.engine.history import HistoryDatabase

        db = HistoryDatabase()
        db.suppress_key(
            "lock_checker",
            str(source_tree / "b.c"),
            "handler_b",
            "&dev->lck",
            "lock &dev->lck never released!",
        )
        history = tmp_path / "hist.json"
        db.save(str(history))
        code = main(
            [
                "--checker", "lock",
                "--triage", str(history),
                "-I", str(source_tree),
                str(source_tree / "b.c"),
            ]
        )
        assert code == 0

    def test_json_format(self, tmp_path, capsys):
        import json

        src = tmp_path / "j.c"
        src.write_text("int f(int *p) { kfree(p); return *p; }\n")
        code = main(["--checker", "free", "--format", "json", str(src)])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1
        assert data[0]["checker"] == "free_checker"
        assert data[0]["function"] == "f"
        assert data[0]["path"][0]["event"].startswith("entered state")

    def test_trace_format(self, tmp_path, capsys):
        src = tmp_path / "t.c"
        src.write_text(
            "int f(int *p) { int *q; kfree(p); q = p; return *q; }\n"
        )
        code = main(["--checker", "free", "--trace", str(src)])
        assert code == 1
        out = capsys.readouterr().out
        assert "entered state v.freed" in out
        assert "synonym" in out

    def test_infer_pairs_mode(self, tmp_path, capsys):
        src = tmp_path / "pairs.c"
        src.write_text(
            "int a1(int *l) { grab(l); work(); drop(l); return 0; }\n"
            "int a2(int *l) { grab(l); drop(l); return 0; }\n"
            "int a3(int *l) { grab(l); work(); drop(l); return 0; }\n"
            "int a4(int *l) { grab(l); work(); drop(l); return 0; }\n"
            "int bad(int *l) { grab(l); work(); return 0; }\n"
        )
        code = main(["--infer", "pairs", str(src)])
        captured = capsys.readouterr()
        assert code == 1
        assert "grab() called without a matching drop()" in captured.out
        assert "inferred rule" in captured.err

    def test_infer_retcheck_mode(self, tmp_path, capsys):
        src = tmp_path / "ret.c"
        src.write_text(
            "int open_dev(int n);\n"
            "int a(int n) { if (open_dev(n) < 0) return -1; return 0; }\n"
            "int b(int n) { return open_dev(n); }\n"
            "int c(int n) { int fd = open_dev(n); return fd; }\n"
            "int d(int n) { if (open_dev(n)) return 1; return 0; }\n"
            "int bad(int n) { open_dev(n); return 0; }\n"
        )
        code = main(["--infer", "retcheck", str(src)])
        captured = capsys.readouterr()
        assert code == 1
        assert "result of open_dev() ignored" in captured.out

    def test_infer_nullarg_mode(self, tmp_path, capsys):
        src = tmp_path / "na.c"
        src.write_text(
            "struct s { int x; };\n"
            "int a(struct s *p) { register_dev(p); return 0; }\n"
            "int b(struct s *p) { register_dev(p); return 0; }\n"
            "int c(struct s *p) { register_dev(p); return 0; }\n"
            "int d(struct s *p) { register_dev(p); return 0; }\n"
            "int bad(void) { register_dev(0); return 0; }\n"
        )
        code = main(["--infer", "nullarg", str(src)])
        captured = capsys.readouterr()
        assert code == 1
        assert "NULL passed as argument 0 of register_dev()" in captured.out

    def test_define_flag(self, tmp_path, capsys):
        src = tmp_path / "c.c"
        src.write_text(
            "#ifdef BUGGY\n"
            "int f(int *p) { kfree(p); return *p; }\n"
            "#else\n"
            "int f(int *p) { kfree(p); return 0; }\n"
            "#endif\n"
        )
        assert main(["--checker", "free", str(src)]) == 0
        assert main(["--checker", "free", "-D", "BUGGY", str(src)]) == 1

    def test_startup_imports_no_network_stack(self):
        # The store client imports http.client lazily, and nothing on
        # the start-up path pulls in an event loop: a CLI run pays for
        # neither import unless it talks to a store.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        ))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.driver.cli; "
             "print(sorted(m for m in sys.modules"
             " if m.startswith(('http', 'async'))))"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"
