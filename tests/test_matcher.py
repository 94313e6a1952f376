"""The dispatch tables in front of the metal interpreter (docs/MATCHER.md).

Every rule is matched by the interpreter, ``Pattern.match``; the tables
only choose which rules it tries.  They can change a result only by
hiding a rule the interpreter would match, so the evidence is:

* hypothesis properties: for random pattern/point pairs (base patterns
  and ``&&``/``||``/``!``/callout/``$end_of_path$`` compositions, seeded
  and unseeded, at normal and end-of-path points), whenever the
  interpreter matches, the rule's state table offers it as a candidate
  and ``any_candidates`` says yes;
* dispatch-table unit tests: every seed checker's transitions land in
  exactly one source-state table, in declaration order;
* engine counters: the ``matcher_*`` stats move;
* the differential harness: every seed checker over the torture files
  and the Section 7.1 global workload -- serial and with pass 1 at
  ``jobs=4``, cold and warm/incremental -- produces byte-identical
  ranked reports, RootArtifacts, and annotation deltas with the tables
  and with an admit-all dispatch that offers every rule at every point.
"""

import os
import re
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cfg.blocks import ReturnMarker
from repro.cfront import astnodes as ast
from repro.cfront.parser import parse, parse_expression
from repro.checkers import ALL_CHECKERS, audit_checker, free_checker
from repro.checkers.pathkill import path_kill_extension
from repro.driver.cli import build_parser
from repro.driver.project import Project
from repro.driver.session import IncrementalSession, session_signature
from repro.engine.analysis import Analysis, AnalysisOptions, _EndOfPathPoint
from repro.metal import (
    ANY_EXPR,
    ANY_POINTER,
    ANY_SCALAR,
    Extension,
)
from repro.metal import compile as compile_mod
from repro.metal.compile import CompiledExtension
from repro.metal.patterns import (
    Callout,
    EndOfPath,
    MatchContext,
    NotPattern,
    compile_pattern,
    match,
)
from repro.ranking.severity import stratify

HOLES = {"v": ANY_POINTER, "x": ANY_EXPR, "n": ANY_SCALAR}
DATA = os.path.join(os.path.dirname(__file__), "data")
TORTURE = ["torture_kernelish", "torture_stmts", "torture_exprs",
           "torture_decls"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


# ---------------------------------------------------------------------------
# helpers


#: The synthetic point ``$end_of_path$`` rules match at.
END_POINT = _EndOfPathPoint(
    SimpleNamespace(cfg=SimpleNamespace(decl=SimpleNamespace(location=None)))
)


def dispatched(pattern, point, seed=None, end_of_path=False):
    """Match ``pattern`` at ``point`` with the interpreter; when it
    matches, assert the dispatch tables offer the rule, both out of an
    instance state and out of a global state.  Returns whether it
    matched."""
    bindings = dict(seed or {})
    ctx = MatchContext(point, bindings, end_of_path=end_of_path)
    if not pattern.match(point, bindings, ctx):
        return False
    ext = Extension("dispatch")
    ext.state_var("v", ANY_POINTER)
    specific = ext.transition("v.held", pattern, to="v.stop")
    global_ = ext.transition("start", pattern)
    compiled = ext.compiled()
    cls = type(point)
    assert compiled.any_candidates(cls, end_of_path)
    for table, rule in (
        (compiled.specific_table("v", "held"), specific),
        (compiled.global_table("start"), global_),
    ):
        offered = table.candidates(cls, end_of_path)
        assert rule in [crule.rule for crule in offered], (pattern, point)
    return True


def table_rules(compiled):
    """Every CompiledRule of an extension's tables."""
    tables = list(compiled.specific.values()) + list(
        compiled.globals_.values()
    )
    return [crule for table in tables for crule in table.rules]


def admit_all():
    """Offer every rule of a state at every point: the tables' filter
    switched off, so each state's rules reach the interpreter in
    declaration order (docs/MATCHER.md)."""
    return mock.patch.object(compile_mod, "_admits", lambda kinds, cls: True)


def reports_of(code, extension, filename="m.c"):
    unit = parse(code, filename)
    analysis = Analysis([unit], options=AnalysisOptions())
    result = analysis.run(extension)
    return [r.format_trace() for r in stratify(result.reports)], result


# ---------------------------------------------------------------------------
# hypothesis properties: the tables never hide an interpreter match


IDENTS = ["p", "q", "buf", "count"]
FUNCS = ["kfree", "lock", "get"]
CONCRETE = {"v": "p", "x": "buf", "n": "count"}

_leaf = st.sampled_from(IDENTS + ["0", "1"])
_pattern_leaf = st.sampled_from(IDENTS + ["0", "1", "v", "x", "n"])


def _grow(leaves):
    def build(inner):
        return st.one_of(
            st.builds("{}({})".format, st.sampled_from(FUNCS), inner),
            st.builds("{}({}, {})".format, st.sampled_from(FUNCS), inner,
                      inner),
            st.builds("({} {} {})".format, inner,
                      st.sampled_from(["+", "-", "=="]), inner),
            st.builds("*{}".format, st.sampled_from(IDENTS)),
            st.builds("{} = {}".format, st.sampled_from(IDENTS), inner),
        )

    return st.recursive(leaves, build, max_leaves=5)


expr_texts = _grow(_leaf)
pattern_texts = _grow(_pattern_leaf)


def _instantiate(pattern_text):
    """Replace hole names with concrete identifiers: a point the pattern
    is guaranteed to have a fighting chance against."""
    return re.sub(
        r"\b([vxn])\b", lambda m: CONCRETE[m.group(1)], pattern_text
    )


def _point(text):
    return parse_expression(text)


class TestCompiledVsInterpreterProperties:
    """The compiled dispatch tables agree with the interpreter: every
    match the interpreter makes, the tables offer."""

    @settings(max_examples=200, deadline=None)
    @given(pattern_texts, expr_texts)
    def test_random_pairs_agree(self, ptext, etext):
        dispatched(compile_pattern(ptext, HOLES), _point(etext))

    @settings(max_examples=200, deadline=None)
    @given(pattern_texts)
    def test_instantiated_points_agree(self, ptext):
        """Force frequent successes: match each pattern against its own
        hole-substituted instantiation."""
        pattern = compile_pattern(ptext, HOLES)
        dispatched(pattern, _point(_instantiate(ptext)))

    @settings(max_examples=200, deadline=None)
    @given(pattern_texts, pattern_texts,
           st.sampled_from(["and", "or", "not", "callout", "eop"]),
           st.booleans())
    # A hole conjoined with a concrete node admits that node's class.
    @example("x", "buf", "and", False)
    @example("buf", "x", "and", False)
    def test_compositions_agree(self, left_text, right_text, combinator,
                                at_end):
        left = compile_pattern(left_text, HOLES)
        right = compile_pattern(right_text, HOLES)
        if combinator == "and":
            pattern = left & right
        elif combinator == "or":
            pattern = left | right
        elif combinator == "not":
            pattern = left & NotPattern(right)
        elif combinator == "callout":
            pattern = left & Callout(
                lambda ctx: isinstance(ctx.point, ast.Call), "is_call"
            )
        else:
            pattern = (left & right) | EndOfPath()
        if at_end:
            dispatched(pattern, END_POINT, end_of_path=True)
        else:
            dispatched(pattern, _point(_instantiate(left_text)))

    @settings(max_examples=150, deadline=None)
    @given(pattern_texts, st.sampled_from(IDENTS))
    def test_seeded_matches_agree(self, ptext, seed_ident):
        """The engine seeds the state variable before matching; the
        tables must offer every rule the seeded interpreter matches."""
        pattern = compile_pattern(ptext, HOLES)
        seed = {"v": parse_expression(seed_ident)}
        dispatched(pattern, _point(_instantiate(ptext)), seed)

    def test_return_marker_agreement(self):
        pattern = compile_pattern("return x;", HOLES)
        marker = ReturnMarker(parse_expression("count + 1"), None)
        assert dispatched(pattern, marker)
        assert not dispatched(pattern, ReturnMarker(None, None))
        # A hole never swallows the marker itself.
        assert not dispatched(compile_pattern("x", HOLES), marker)
        # $end_of_path$ is offered only at the end of a path.
        assert dispatched(EndOfPath(), END_POINT, end_of_path=True)
        assert not dispatched(EndOfPath(), marker)

    def test_repeated_hole_agreement(self):
        pattern = compile_pattern("get(x, x)", HOLES)
        assert dispatched(pattern, _point("get(buf, buf)"))
        assert not dispatched(pattern, _point("get(buf, count)"))


# ---------------------------------------------------------------------------
# dispatch tables


class TestDispatchTables:
    @pytest.mark.parametrize("name", sorted(ALL_CHECKERS))
    def test_every_transition_in_exactly_one_table(self, name):
        ext = ALL_CHECKERS[name]()
        compiled = ext.compiled()
        assert isinstance(compiled, CompiledExtension)
        seen = [id(crule.rule) for crule in table_rules(compiled)]
        assert sorted(seen) == sorted(id(r) for r in ext.transitions)

    @pytest.mark.parametrize("name", sorted(ALL_CHECKERS))
    def test_tables_keyed_by_source_and_ordered(self, name):
        ext = ALL_CHECKERS[name]()
        compiled = ext.compiled()
        for (var, value), table in compiled.specific.items():
            for crule in table.rules:
                source = crule.rule.source
                assert not source.is_global
                assert (source.var, source.value) == (var, value)
        for value, table in compiled.globals_.items():
            for crule in table.rules:
                assert crule.rule.source.is_global
                assert crule.rule.source.value == value
        position = {id(rule): i for i, rule in enumerate(ext.transitions)}
        for table in list(compiled.specific.values()) + list(
            compiled.globals_.values()
        ):
            indices = [position[id(crule.rule)] for crule in table.rules]
            # Declaration order survives table construction: first-match-
            # wins tie-breaking is the transition list's order.
            assert indices == sorted(indices)
            source = table.rules[0].rule.source
            assert tuple(crule.rule for crule in table.rules) == (
                ext.transitions_from(source)
            )

    def test_miss_memo_is_one_dict_probe(self):
        ext = free_checker()
        compiled = ext.compiled()
        # Assignments can never match the free checker's Call/Unary rules.
        assert not compiled.any_candidates(ast.Assign, False)
        assert (ast.Assign, False) in compiled._any_memo
        assert compiled.any_candidates(ast.Call, False)


# ---------------------------------------------------------------------------
# satellite caches


class TestSatelliteCaches:
    def test_has_holes_precompute(self):
        holed = compile_pattern("kfree(v)", HOLES)
        plain = compile_pattern("kfree(p)", {})
        assert holed.has_holes
        assert not plain.has_holes
        # Hole-free failure leaves caller bindings untouched.
        bindings = {"z": parse_expression("q")}
        ctx = MatchContext(_point("lock(p)"), bindings)
        assert not plain.match(_point("lock(p)"), bindings, ctx)
        assert set(bindings) == {"z"}
        assert match(plain, _point("kfree(p)")) == {}

    def test_transitions_from_cached_grouping(self):
        ext = free_checker()
        ref = ext.transitions[-1].source
        group = ext.transitions_from(ref)
        assert group
        assert all(
            (t.source.var, t.source.value) == (ref.var, ref.value)
            for t in group
        )
        assert list(group) == [
            t for t in ext.transitions
            if not t.source.is_global
            and (t.source.var, t.source.value) == (ref.var, ref.value)
        ]
        # Same mutation key -> same cached tuple object.
        assert ext.transitions_from(ref) is group

    def test_compiled_cache_invalidated_on_mutation(self):
        ext = free_checker()
        first = ext.compiled()
        assert ext.compiled() is first  # cached
        ref = ext.transitions[-1].source
        before = ext.transitions_from(ref)
        ext.transitions.append(ext.transitions[-1])
        rebuilt = ext.compiled()
        assert rebuilt is not first
        assert len(table_rules(rebuilt)) == len(table_rules(first)) + 1
        assert len(ext.transitions_from(ref)) == len(before) + 1

    def test_sm_imports_the_tables_module(self):
        """``Extension.compiled()`` must not import the tables module
        inside the engine's ``matcher_compile_s`` timer: importing the
        state-machine module already loads it."""
        probe = (
            "import sys, repro.metal.sm; "
            "print('repro.metal.compile' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "True"


# ---------------------------------------------------------------------------
# engine counters


COUNTER_CODE = (
    "int f(int *p, int *q, int a, int b) {\n"
    "    kfree(p);\n"
    "    a = a + b;\n"
    "    b = a - 1;\n"
    "    kfree(q);\n"
    "    return *p;\n"
    "}\n"
)


class TestMatcherCounters:
    def test_compiled_counters_move(self):
        __, result = reports_of(COUNTER_CODE, free_checker())
        stats = result.stats
        assert stats["matcher_table_hits"] > 0
        assert stats["matcher_miss_memo_hits"] > 0
        assert stats["matcher_compile_s"] > 0.0
        assert "matcher_compile_s:free_checker" in stats

    def test_bad_mode_rejected(self):
        """There is one matcher: no engine option or CLI flag picks
        another."""
        with pytest.raises(TypeError):
            AnalysisOptions(matcher="interp")
        flags = [
            flag
            for action in build_parser()._actions
            for flag in action.option_strings
        ]
        assert flags
        assert not [flag for flag in flags if "matcher" in flag]


# ---------------------------------------------------------------------------
# differential harness: torture files, all seed checkers


class TestTortureDifferential:
    @pytest.mark.parametrize("fname", TORTURE)
    def test_all_checkers_byte_identical(self, fname):
        with open(os.path.join(DATA, fname + ".c")) as handle:
            text = handle.read()
        for name, make in sorted(ALL_CHECKERS.items()):
            tables, tables_result = reports_of(
                text, make(), filename=fname + ".c"
            )
            with admit_all():
                every, every_result = reports_of(
                    text, make(), filename=fname + ".c"
                )
            assert tables == every, (fname, name)
            # The tables really filtered: admitting everything turns
            # their misses into match attempts.
            assert (
                tables_result.stats["matcher_miss_memo_hits"]
                >= every_result.stats["matcher_miss_memo_hits"]
            ), name


# ---------------------------------------------------------------------------
# differential harness: the Section 7.1 global workload


def global_suite():
    return [
        path_kill_extension(),
        free_checker(("kfree", "vfree")),
        audit_checker(),
    ]


GLOBAL_NAMES = ["pathkill", "free", "audit"]


def ranked_text(result):
    return "\n".join(r.format_trace() for r in stratify(result.reports))


def _norm_sets(mapping):
    return {key: sorted(repr(v) for v in values)
            for key, values in sorted(mapping.items(), key=repr)}


def artifact_state(artifact):
    delta = artifact.delta
    return (
        artifact.ext_index,
        getattr(artifact.extension, "name", artifact.extension),
        getattr(artifact.root, "name", str(artifact.root)),
        [r.format_trace() for r in artifact.reports],
        _norm_sets(artifact.examples),
        _norm_sets(artifact.counterexamples),
        artifact.degraded,
        artifact.clean,
        repr(delta.__getstate__()) if delta is not None else None,
    )


def _write_tree(tmp_path, gen):
    for name, text in gen.files.items():
        (tmp_path / name).write_text(text)
    return sorted(
        str(tmp_path / name) for name in gen.files if name.endswith(".c")
    )


def _project(tmp_path, paths, cache_dir=None, jobs=1):
    project = Project(
        include_paths=[str(tmp_path)],
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    project.compile_files(paths, jobs=jobs)
    return project


class TestGlobalWorkloadDifferential:
    def _run(self, tmp_path, paths, every=False, jobs=1, artifacts=False):
        options = AnalysisOptions(capture_root_artifacts=artifacts)
        project = _project(tmp_path, paths, jobs=jobs)
        if every:
            with admit_all():
                return project, project.run(global_suite(), options=options)
        return project, project.run(global_suite(), options=options)

    def test_cold_serial_byte_identical_with_artifacts(self, tmp_path):
        from repro.codegen.project_gen import generate_global_project

        gen = generate_global_project(seed=3)
        paths = _write_tree(tmp_path, gen)
        __, every = self._run(tmp_path, paths, every=True, artifacts=True)
        __, tables = self._run(tmp_path, paths, artifacts=True)
        assert every.reports  # the workload actually finds things
        assert ranked_text(every) == ranked_text(tables)
        left = sorted(map(artifact_state, every.root_artifacts))
        right = sorted(map(artifact_state, tables.root_artifacts))
        assert left == right
        assert any(a.delta is not None for a in tables.root_artifacts)

    def test_parallel_modes_byte_identical(self, tmp_path):
        """Like-for-like with pass 1 at ``jobs=4``: the tables never
        change what a parallel run reports."""
        from repro.codegen.project_gen import generate_global_project

        gen = generate_global_project(seed=3)
        paths = _write_tree(tmp_path, gen)
        __, every = self._run(
            tmp_path, paths, every=True, jobs=4, artifacts=True
        )
        __, tables = self._run(tmp_path, paths, jobs=4, artifacts=True)
        assert every.reports
        assert ranked_text(every) == ranked_text(tables)
        left = sorted(map(artifact_state, every.root_artifacts))
        right = sorted(map(artifact_state, tables.root_artifacts))
        assert left == right

    def test_warm_replay_across_modes(self, tmp_path):
        """A cache written by an admit-all cold run replays under the
        tables: the warm run is a pure replay and prints the same."""
        from repro.codegen.project_gen import generate_global_project

        gen = generate_global_project(seed=3)
        cache = tmp_path / "cache"
        paths = _write_tree(tmp_path, gen)

        def session():
            return IncrementalSession(
                str(cache),
                session_signature(
                    checker_names=GLOBAL_NAMES, options=AnalysisOptions()
                ),
            )

        cold_project = _project(tmp_path, paths, cache)
        with admit_all():
            cold = cold_project.run(
                global_suite(), options=AnalysisOptions(),
                incremental=session(),
            )
        warm_project = _project(tmp_path, paths, cache)
        warm = warm_project.run(
            global_suite(), options=AnalysisOptions(),
            incremental=session(),
        )
        assert ranked_text(cold) == ranked_text(warm)
        counters = warm_project.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        assert counters["incremental_roots_analyzed"] == 0
        assert counters["incremental_roots_replayed"] > 0
