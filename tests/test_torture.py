"""Front-end torture tests: every file in tests/data must parse,
round-trip through the unparser, build CFGs, and survive a full analysis
run without crashing.

The generated-pathology section stresses the hostile shapes real code
bases throw at a checker -- deep block nesting, huge switches, long
pointer-synonym chains -- and proves the per-root budgets degrade only
the offending root instead of aborting the run (docs/DRIVER.md,
"Degradation semantics")."""

import glob
import os

import pytest

from repro.cfront import astnodes as ast
from repro.cfront.parser import parse
from repro.cfront.unparse import unparse
from repro.cfg.builder import build_cfg
from repro.checkers import free_checker, null_checker
from repro.engine.analysis import Analysis, AnalysisOptions
from repro.metal.patterns import MATCH_NOTHING
from repro.metal.sm import Extension

DATA = os.path.join(os.path.dirname(__file__), "data")
FILES = sorted(glob.glob(os.path.join(DATA, "*.c")))


def walk_everything():
    """An extension whose start rule is unanchored, so no root is
    skipped as dead (docs/ENGINE.md, "Live roots") and every construct
    is walked even where no checker's start call appears."""
    ext = Extension("walk_everything")
    ext.transition("start", MATCH_NOTHING)
    return ext


def read(path):
    with open(path) as handle:
        return handle.read()


@pytest.mark.parametrize("path", FILES, ids=[os.path.basename(p) for p in FILES])
class TestTortureFiles:
    def test_parses(self, path):
        unit = parse(read(path), path)
        assert unit.decls

    def test_roundtrips(self, path):
        first = parse(read(path), path)
        text = unparse(first)
        second = parse(text, path)
        assert ast.structural_key(first) == ast.structural_key(second)

    def test_cfgs_build(self, path):
        unit = parse(read(path), path)
        for decl in unit.functions():
            cfg = build_cfg(decl)
            assert cfg.entry is not None
            assert cfg.exit.is_exit

    def test_analysis_survives(self, path):
        unit = parse(read(path), path)
        result = Analysis([unit]).run(
            [free_checker(), null_checker(), walk_everything()]
        )
        assert result.stats["points_visited"] > 0

    def test_deterministic_analysis(self, path):
        unit_a = parse(read(path), path)
        unit_b = parse(read(path), path)
        a = Analysis([unit_a]).run(free_checker())
        b = Analysis([unit_b]).run(free_checker())
        assert sorted(r.identity() for r in a.reports) == sorted(
            r.identity() for r in b.reports
        )


def test_corpus_is_nontrivial():
    assert len(FILES) >= 3
    total = sum(len(read(p).splitlines()) for p in FILES)
    assert total > 150


# -- generated pathologies ---------------------------------------------------
#
# These shapes are generated rather than committed: a 10k-case switch is
# noise in a data directory but three lines of generator.


def deeply_nested_source(depth=256):
    """``depth`` nested conditional blocks with a double free at the
    bottom -- stresses parser recursion and CFG depth."""
    lines = ["int nested(int *p, int a) {"]
    for index in range(depth):
        lines.append("if (a > %d) { int x%d = a;" % (index, index))
    lines += ["kfree(p);", "kfree(p);"]
    lines += ["}"] * depth
    lines += ["return a;", "}"]
    return "\n".join(lines)


def wide_switch_source(cases=10_000):
    """A ``cases``-branch switch whose default arm double-frees."""
    lines = ["int dispatch(int *p, int a) {", "int x = 0;", "switch (a) {"]
    for index in range(cases):
        lines.append("case %d: x = %d; break;" % (index, index))
    lines += [
        "default: kfree(p); kfree(p); break;",
        "}",
        "return x;",
        "}",
    ]
    return "\n".join(lines)


def synonym_chain_source(length=300):
    """A freed pointer copied down a ``length``-long chain of locals;
    the use at the end is only reachable through synonym mirroring."""
    lines = ["int chain(int *p) {", "kfree(p);", "int *s0 = p;"]
    for index in range(1, length):
        lines.append("int *s%d = s%d;" % (index, index - 1))
    lines += ["return *s%d;" % (length - 1), "}"]
    return "\n".join(lines)


def benign_buggy_source():
    """A tiny root whose report must survive any neighbour's collapse."""
    return "int benign(int *q) { kfree(q); kfree(q); return 0; }"


PATHOLOGIES = {
    "nested": deeply_nested_source,
    "switch": wide_switch_source,
    "chain": synonym_chain_source,
}


@pytest.mark.parametrize("name", sorted(PATHOLOGIES))
class TestGeneratedPathologies:
    def test_parses_and_builds_cfgs(self, name):
        unit = parse(PATHOLOGIES[name](), name + ".c")
        for decl in unit.functions():
            cfg = build_cfg(decl)
            assert cfg.entry is not None
            assert cfg.exit.is_exit

    def test_analysis_finds_the_planted_bug(self, name):
        unit = parse(PATHOLOGIES[name](), name + ".c")
        result = Analysis([unit]).run(free_checker())
        assert result.reports, "planted bug not found in %s" % name
        assert not result.truncated
        assert not result.degraded

    def test_budget_degrades_root_not_run(self, name):
        """A starvation-level per-root step budget abandons only the
        pathological root: the run completes, is not truncated, and the
        benign root's report survives untouched."""
        hostile = parse(PATHOLOGIES[name](), name + ".c")
        benign = parse(benign_buggy_source(), "benign.c")
        options = AnalysisOptions(max_steps_per_root=50, caching=False)
        result = Analysis([hostile, benign]).run(free_checker())
        baseline_benign = [
            r.identity() for r in result.reports if r.function == "benign"
        ]
        assert baseline_benign

        budgeted = Analysis([hostile, benign], options=options).run(
            free_checker()
        )
        assert not budgeted.truncated
        hostile_root = hostile.functions()[0].name
        assert [d.root for d in budgeted.degraded] == [hostile_root]
        assert budgeted.degraded[0].kind == "steps"
        assert budgeted.stats["degraded_roots"] == 1
        assert [
            r.identity() for r in budgeted.reports if r.function == "benign"
        ] == baseline_benign


def test_nested_depth_scales_past_default_recursion():
    # Python's default recursion limit is 1000; the parser bumps it, so
    # a 600-deep block tree must still parse.
    unit = parse(deeply_nested_source(depth=600), "deep600.c")
    assert unit.functions()[0].name == "nested"


def test_time_budget_on_pathological_root():
    hostile = parse(wide_switch_source(cases=2_000), "switch.c")
    benign = parse(benign_buggy_source(), "benign.c")
    options = AnalysisOptions(max_seconds_per_root=1e-9, caching=False)
    result = Analysis([hostile, benign], options=options).run(free_checker())
    assert not result.truncated
    assert {d.kind for d in result.degraded} == {"time"}
    # Both roots blow a 1ns budget; the run still visits every root
    # rather than aborting at the first.
    assert {d.root for d in result.degraded} == {"benign", "dispatch"}
