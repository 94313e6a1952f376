"""Dump-tool tests (CFG text/DOT, call graph, summaries)."""

import pytest

from repro.cfront.parser import parse
from repro.cfg import CallGraph
from repro.cfg.builder import build_cfg
from repro.checkers import free_checker
from repro.driver.cli import main
from repro.driver.dump import (
    dump_callgraph,
    dump_cfg,
    dump_cfg_dot,
    dump_summaries,
)
from repro.engine.analysis import Analysis

CODE = """
int helper(int *p) { kfree(p); return 0; }
int root(int *p, int c) {
    if (c)
        helper(p);
    return *p;
}
"""


@pytest.fixture
def callgraph():
    return CallGraph.from_units([parse(CODE, "d.c")])


class TestDumpCfg:
    def test_text_dump(self, callgraph):
        cfg = build_cfg(callgraph.functions["root"])
        text = dump_cfg(cfg)
        assert "CFG root" in text
        assert "[entry" in text or "[entry]" in text
        assert "T:B" in text and "F:B" in text
        assert "return *p" in text

    def test_dot_dump(self, callgraph):
        cfg = build_cfg(callgraph.functions["root"])
        dot = dump_cfg_dot(cfg)
        assert dot.startswith('digraph "root"')
        assert dot.rstrip().endswith("}")
        assert '[label="T"]' in dot
        assert "B0 ->" in dot

    def test_loop_header_marked(self):
        unit = parse("int f(int n) { while (n) n--; return n; }")
        cfg = build_cfg(unit.functions()[0])
        text = dump_cfg(cfg)
        assert "loop-head havoc={n}" in text


class TestDumpCallgraph:
    def test_roots_marked(self, callgraph):
        text = dump_callgraph(callgraph)
        assert " * root -> helper" in text
        assert "helper" in text
        assert "[external: kfree]" in text


class TestDumpSummaries:
    def test_figure5_style_rows(self):
        unit = parse(CODE, "d.c")
        analysis = Analysis([unit])
        table = analysis.run_one(free_checker())
        text = dump_summaries(analysis, table, ["helper"])
        assert "== helper ==" in text
        assert "v:p->$unknown) --> (start,v:p->freed)" in text
        assert "sfx:" in text


class TestDumpCLI:
    def test_dump_cfg_mode(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text(CODE)
        assert main(["--dump", "cfg", str(src)]) == 0
        out = capsys.readouterr().out
        assert "CFG helper" in out and "CFG root" in out

    def test_dump_dot_mode(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text(CODE)
        assert main(["--dump", "dot", str(src)]) == 0
        assert 'digraph "root"' in capsys.readouterr().out

    def test_dump_callgraph_mode(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text(CODE)
        assert main(["--dump", "callgraph", str(src)]) == 0
        assert "callgraph (2 functions" in capsys.readouterr().out

    def test_dump_summaries_mode(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text(CODE)
        code = main(["--checker", "free", "--dump", "summaries", str(src)])
        assert code == 1  # the use-after-free is still reported
        captured = capsys.readouterr()
        assert "summaries for free_checker" in captured.err
        assert "-->" in captured.err

    def test_kinds_combine_callgraph_first(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text(CODE)
        parts = []
        for kind in ("callgraph", "cfg"):
            assert main(["--dump", kind, str(src)]) == 0
            parts.append(capsys.readouterr().out)
        assert main(["--dump", "cfg", "--dump", "callgraph", str(src)]) == 0
        assert capsys.readouterr().out == "".join(parts)

    @pytest.mark.parametrize("flag", ["--dump-cfg", "--dump-dot",
                                      "--dump-callgraph", "--dump-summaries"])
    def test_old_dump_flags_are_usage_errors(self, tmp_path, flag):
        src = tmp_path / "d.c"
        src.write_text(CODE)
        with pytest.raises(SystemExit) as exit_info:
            main([flag, str(src)])
        assert exit_info.value.code == 2
