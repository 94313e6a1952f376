"""The compiled table-driven matcher (docs/MATCHER.md).

Four layers of evidence that ``--matcher=compiled`` is a pure speedup:

* hypothesis properties: random pattern/point pairs (base patterns and
  ``&&``/``||``/``!``/callout compositions, seeded and unseeded) agree
  with the interpreter on success *and* on every hole binding;
* dispatch-table unit tests: every seed checker's transitions land in
  exactly one source-state table, in declaration order, with zero
  interpreter fallbacks;
* engine counters: the ``matcher_*`` stats move in compiled mode and
  stay zero in interp mode;
* the differential harness: every seed checker over the torture files
  and the Section 7.1 global workload -- serial and ``jobs=4``, cold and
  warm/incremental -- produces byte-identical ranked reports,
  RootArtifacts, and annotation deltas in both modes.
"""

import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.blocks import ReturnMarker
from repro.cfront import astnodes as ast
from repro.cfront.parser import parse, parse_expression
from repro.checkers import ALL_CHECKERS, audit_checker, free_checker
from repro.checkers.pathkill import path_kill_extension
from repro.driver.project import Project
from repro.driver.session import IncrementalSession, session_signature
from repro.engine.analysis import Analysis, AnalysisOptions
from repro.metal import (
    ANY_EXPR,
    ANY_POINTER,
    ANY_SCALAR,
    Extension,
)
from repro.metal.compile import (
    CompiledExtension,
    compile_matcher,
    run_matcher,
)
from repro.metal.patterns import (
    Callout,
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


# ---------------------------------------------------------------------------
# helpers


def _norm_value(value):
    """Bindings hold AST nodes (or argument lists); compare structurally."""
    if isinstance(value, list):
        return tuple(ast.structural_key(v) for v in value)
    if isinstance(value, ast.Node):
        return ast.structural_key(value)
    return value


def _norm(bindings):
    if bindings is None:
        return None
    return {name: _norm_value(value) for name, value in bindings.items()}


def interp_match(pattern, point, seed=None):
    bindings = dict(seed or {})
    ctx = MatchContext(point, bindings)
    if pattern.match(point, bindings, ctx):
        return bindings
    return None


def compiled_match(pattern, point, seed=None):
    matcher = compile_matcher(pattern, extra_names=tuple(seed or ()))
    return run_matcher(matcher, point, seed=seed)


def reports_of(code, extension, mode, filename="m.c"):
    unit = parse(code, filename)
    analysis = Analysis([unit], options=AnalysisOptions(matcher=mode))
    result = analysis.run(extension)
    return [r.format_trace() for r in stratify(result.reports)], result


# ---------------------------------------------------------------------------
# hypothesis properties: compiled == interpreter


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
    @settings(max_examples=200, deadline=None)
    @given(pattern_texts, expr_texts)
    def test_random_pairs_agree(self, ptext, etext):
        pattern = compile_pattern(ptext, HOLES)
        point = _point(etext)
        assert _norm(compiled_match(pattern, point)) == _norm(
            interp_match(pattern, point)
        )

    @settings(max_examples=200, deadline=None)
    @given(pattern_texts)
    def test_instantiated_points_agree(self, ptext):
        """Force frequent successes: match each pattern against its own
        hole-substituted instantiation."""
        pattern = compile_pattern(ptext, HOLES)
        point = _point(_instantiate(ptext))
        got, want = (
            _norm(compiled_match(pattern, point)),
            _norm(interp_match(pattern, point)),
        )
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(pattern_texts, pattern_texts,
           st.sampled_from(["and", "or", "not", "callout"]))
    def test_compositions_agree(self, left_text, right_text, combinator):
        left = compile_pattern(left_text, HOLES)
        right = compile_pattern(right_text, HOLES)
        if combinator == "and":
            pattern = left & right
        elif combinator == "or":
            pattern = left | right
        elif combinator == "not":
            pattern = left & NotPattern(right)
        else:
            pattern = left & Callout(
                lambda ctx: isinstance(ctx.point, ast.Call), "is_call"
            )
        point = _point(_instantiate(left_text))
        assert _norm(compiled_match(pattern, point)) == _norm(
            interp_match(pattern, point)
        )

    @settings(max_examples=150, deadline=None)
    @given(pattern_texts, st.sampled_from(IDENTS))
    def test_seeded_matches_agree(self, ptext, seed_ident):
        """The engine seeds the state variable before matching; both
        engines must honour (and never rebind past) the seed."""
        pattern = compile_pattern(ptext, HOLES)
        point = _point(_instantiate(ptext))
        seed = {"v": parse_expression(seed_ident)}
        assert _norm(compiled_match(pattern, point, seed)) == _norm(
            interp_match(pattern, point, seed)
        )

    def test_return_marker_agreement(self):
        pattern = compile_pattern("return x;", HOLES)
        marker = ReturnMarker(parse_expression("count + 1"), None)
        assert _norm(compiled_match(pattern, marker)) == _norm(
            interp_match(pattern, marker)
        ) != None  # noqa: E711 -- both match, identically
        empty = ReturnMarker(None, None)
        assert compiled_match(pattern, empty) is None
        assert interp_match(pattern, empty) is None
        # A hole never swallows the marker itself.
        bare = compile_pattern("x", HOLES)
        assert compiled_match(bare, marker) is None
        assert interp_match(bare, marker) is None

    def test_repeated_hole_agreement(self):
        pattern = compile_pattern("get(x, x)", HOLES)
        hit = _point("get(buf, buf)")
        miss = _point("get(buf, count)")
        assert _norm(compiled_match(pattern, hit)) == _norm(
            interp_match(pattern, hit)
        ) != None  # noqa: E711
        assert compiled_match(pattern, miss) is None
        assert interp_match(pattern, miss) is None


# ---------------------------------------------------------------------------
# dispatch tables


class TestDispatchTables:
    @pytest.mark.parametrize("name", sorted(ALL_CHECKERS))
    def test_every_transition_in_exactly_one_table(self, name):
        ext = ALL_CHECKERS[name]()
        compiled = ext.compiled()
        assert isinstance(compiled, CompiledExtension)
        # Zero fallbacks: every seed-checker pattern compiles.
        assert compiled.n_fallback == 0
        crules = list(compiled.all_rules())
        assert len(crules) == len(ext.transitions) == compiled.n_rules
        seen = [id(cr.rule) for cr in crules]
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
        for table in list(compiled.specific.values()) + list(
            compiled.globals_.values()
        ):
            indices = [crule.index for crule in table.rules]
            # Declaration order survives table construction: first-match-
            # wins tie-breaking is identical to the interpreter's.
            assert indices == sorted(indices)

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
        assert rebuilt.n_rules == first.n_rules + 1
        assert len(ext.transitions_from(ref)) == len(before) + 1


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
        __, result = reports_of(COUNTER_CODE, free_checker(), "compiled")
        stats = result.stats
        assert stats["matcher_table_hits"] > 0
        assert stats["matcher_miss_memo_hits"] > 0
        assert stats["matcher_fallbacks"] == 0
        assert stats["matcher_compile_s"] > 0.0
        assert "matcher_compile_s:free_checker" in stats

    def test_interp_counters_stay_zero(self):
        __, result = reports_of(COUNTER_CODE, free_checker(), "interp")
        stats = result.stats
        assert stats["matcher_table_hits"] == 0
        assert stats["matcher_miss_memo_hits"] == 0
        assert stats["matcher_fallbacks"] == 0
        assert stats["matcher_compile_s"] == 0.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            AnalysisOptions(matcher="jit")


# ---------------------------------------------------------------------------
# differential harness: torture files, all seed checkers


class TestTortureDifferential:
    @pytest.mark.parametrize("fname", TORTURE)
    def test_all_checkers_byte_identical(self, fname):
        with open(os.path.join(DATA, fname + ".c")) as handle:
            text = handle.read()
        for name, make in sorted(ALL_CHECKERS.items()):
            outputs = {}
            for mode in ("interp", "compiled"):
                ranked, result = reports_of(
                    text, make(), mode, filename=fname + ".c"
                )
                outputs[mode] = ranked
                if mode == "compiled":
                    assert result.stats["matcher_fallbacks"] == 0, name
            assert outputs["interp"] == outputs["compiled"], (fname, name)


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
    def _run(self, tmp_path, paths, mode, jobs=1, artifacts=False):
        options = AnalysisOptions(
            matcher=mode, capture_root_artifacts=artifacts
        )
        project = _project(tmp_path, paths, jobs=jobs)
        result = project.run(global_suite(), options=options)
        return project, result

    def test_cold_serial_byte_identical_with_artifacts(self, tmp_path):
        from repro.codegen.project_gen import generate_global_project

        gen = generate_global_project(seed=3)
        paths = _write_tree(tmp_path, gen)
        __, interp = self._run(tmp_path, paths, "interp", artifacts=True)
        __, compiled = self._run(tmp_path, paths, "compiled", artifacts=True)
        assert interp.reports  # the workload actually finds things
        assert ranked_text(interp) == ranked_text(compiled)
        left = sorted(map(artifact_state, interp.root_artifacts))
        right = sorted(map(artifact_state, compiled.root_artifacts))
        assert left == right

    def test_parallel_modes_byte_identical(self, tmp_path):
        """Like-for-like under ``--jobs=4``: switching the matcher never
        changes what a parallel run reports."""
        from repro.codegen.project_gen import generate_global_project

        gen = generate_global_project(seed=3)
        paths = _write_tree(tmp_path, gen)
        __, interp = self._run(tmp_path, paths, "interp", jobs=4)
        __, compiled = self._run(tmp_path, paths, "compiled", jobs=4)
        assert interp.reports
        assert ranked_text(interp) == ranked_text(compiled)

    def test_warm_replay_across_modes(self, tmp_path):
        """``matcher`` is a non-semantic option: an interp-mode cold run
        and a compiled-mode warm run share one incremental signature, and
        the warm run is a pure replay."""
        from repro.codegen.project_gen import generate_global_project

        gen = generate_global_project(seed=3)
        cache = tmp_path / "cache"
        paths = _write_tree(tmp_path, gen)

        def session(mode):
            return IncrementalSession(
                str(cache),
                session_signature(
                    checker_names=GLOBAL_NAMES,
                    options=AnalysisOptions(matcher=mode),
                ),
            )

        cold_project = _project(tmp_path, paths, cache)
        cold = cold_project.run(
            global_suite(), options=AnalysisOptions(matcher="interp"),
            incremental=session("interp"),
        )
        warm_project = _project(tmp_path, paths, cache)
        warm = warm_project.run(
            global_suite(), options=AnalysisOptions(matcher="compiled"),
            incremental=session("compiled"),
        )
        assert ranked_text(cold) == ranked_text(warm)
        counters = warm_project.stats.counters
        assert counters.get("incremental_fallbacks", 0) == 0
        assert counters["incremental_roots_analyzed"] == 0
        assert counters["incremental_roots_replayed"] > 0
