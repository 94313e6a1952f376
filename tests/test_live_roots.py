"""Live roots (docs/ENGINE.md, "Live roots"): the engine skips an
(extension, root) pair when no start rule can fire under the root.

The anchor rule is unit-tested pattern by pattern; the skip itself is
held to a differential: the engine as shipped against the same engine
with the live-root filter patched away, so every pair is traversed.
"""

import glob
import json
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.parser import parse
from repro.cfg.callgraph import CallGraph
from repro.checkers import ALL_CHECKERS, free_checker, lock_checker
from repro.codegen import generate_kernel_module
from repro.driver.cli import main
from repro.engine.analysis import Analysis, AnalysisOptions
from repro.metal.metatypes import ANY_FN_CALL, ANY_POINTER
from repro.metal.patterns import (
    MATCH_EVERYTHING,
    EndOfPath,
    NotPattern,
    compile_pattern,
)
from repro.metal.sm import Extension
from test_engine_properties import _POINTERS, _block, _program_body, _stmt

HOLES = {"v": ANY_POINTER, "fn": ANY_FN_CALL}


def base(text):
    return compile_pattern(text, HOLES)


class TestPatternAnchors:
    def test_a_named_call_anchors(self):
        assert base("kfree(v)").anchors() == {"kfree"}

    def test_an_anchor_nested_inside_an_assignment(self):
        assert base("v = kmalloc(v)").anchors() == {"kmalloc"}

    def test_a_pattern_without_a_call_is_unanchored(self):
        assert base("*v").anchors() is None

    def test_a_hole_in_callee_position_is_unanchored(self):
        assert base("fn(v)").anchors() is None

    def test_a_call_in_an_argument_still_anchors(self):
        assert base("fn(kmalloc(v))").anchors() == {"kmalloc"}

    def test_not_callout_and_end_of_path_are_unanchored(self):
        assert NotPattern(base("kfree(v)")).anchors() is None
        assert MATCH_EVERYTHING.anchors() is None
        assert EndOfPath().anchors() is None

    def test_and_takes_either_side(self):
        assert (MATCH_EVERYTHING & base("kfree(v)")).anchors() == {"kfree"}
        assert (base("lock(v)") & MATCH_EVERYTHING).anchors() == {"lock"}

    def test_or_is_the_union(self):
        pattern = base("kfree(v)") | base("vfree(v)")
        assert pattern.anchors() == {"kfree", "vfree"}

    def test_or_with_one_unanchored_side_is_unanchored(self):
        assert (base("kfree(v)") | MATCH_EVERYTHING).anchors() is None
        assert (EndOfPath() | base("kfree(v)")).anchors() is None


class TestStartAnchors:
    def test_union_over_the_start_rules(self):
        assert lock_checker().start_anchors() == {"lock", "trylock", "unlock"}

    def test_rules_out_of_other_states_do_not_count(self):
        assert free_checker().start_anchors() == {"kfree"}

    def test_one_unanchored_start_rule_unanchors_the_extension(self):
        ext = free_checker()
        ext.transition("start", MATCH_EVERYTHING)
        assert ext.start_anchors() is None

    def test_no_start_rule_is_an_empty_set(self):
        ext = Extension("quiet")
        ext.state_var("v", ANY_POINTER)
        ext.transition("v.freed", "{ *v }", to="v.stop")
        assert ext.start_anchors() == frozenset()

    def test_the_cache_stays_out_of_pickles(self):
        ext = free_checker()
        ext.start_anchors()
        assert "_anchors_cache" not in ext.__getstate__()

    def test_registered_anchoring(self):
        unanchored = {
            name for name, factory in ALL_CHECKERS.items()
            if factory().start_anchors() is None
        }
        assert unanchored == {"format-string", "pathkill", "audit"}


SHARED = """
int sink;
void h2(int *a, int *b, int x) { if (x) sink = *a; }
void a_dead(int *q, int *w) { h2(q, w, 1); }
void b_live(int *p, int *r, int *s) {
    kfree(p);
    kfree(r);
    h2(p, r, 0);
    h2(p, s, 1);
}
void c_alone(int *t) { sink = *t; }
"""


class TestLiveFunctions:
    def graph(self):
        return CallGraph.from_units([parse(SHARED, "shared.c")])

    def test_a_component_is_live_whole(self):
        live = self.graph().live_functions(frozenset({"kfree"}))
        assert live == {"h2", "a_dead", "b_live"}

    def test_without_interprocedural_only_direct_callers(self):
        live = self.graph().live_functions(
            frozenset({"kfree"}), interprocedural=False
        )
        assert live == {"b_live"}

    def test_memoized_until_the_graph_changes(self):
        graph = self.graph()
        names = frozenset({"kfree"})
        assert graph.live_functions(names) is graph.live_functions(names)
        graph.link()
        assert not graph.live_memo

    def test_a_dead_root_sharing_a_callee_is_still_analyzed(self):
        # a_dead fires nothing, but its traversal leaves h2's summaries
        # behind, and with false-path pruning b_live's second call hits
        # them.  Skipping a_dead alone would report a use of *a here.
        result = Analysis([parse(SHARED, "shared.c")]).run(free_checker())
        assert result.reports == []
        assert result.stats["roots_skipped"] == 1  # c_alone

    def test_every_root_skipped_without_a_start_call(self):
        ext = Extension("quiet")
        ext.state_var("v", ANY_POINTER)
        ext.transition("v.freed", "{ *v }", to="v.stop")
        result = Analysis([parse(SHARED, "shared.c")],
                          AnalysisOptions(capture_root_artifacts=True)).run(ext)
        assert result.stats["roots_skipped"] == 3
        assert result.stats["points_visited"] == 0
        assert [artifact.root for artifact in result.root_artifacts] == [
            "a_dead", "b_live", "c_alone"
        ]
        assert all(
            artifact.clean and not artifact.reports
            and not artifact.delta.has_writes()
            for artifact in result.root_artifacts
        )

    def test_a_skipped_root_costs_no_budget(self):
        options = AnalysisOptions(max_steps_per_root=1,
                                  capture_root_artifacts=True)
        result = Analysis([parse(SHARED, "shared.c")], options).run(
            free_checker()
        )
        assert [d.root for d in result.degraded] == ["a_dead", "b_live"]
        clean = {a.root: a.clean for a in result.root_artifacts}
        assert clean == {"a_dead": False, "b_live": False, "c_alone": True}


# -- the skip-vs-forced differential ------------------------------------------


def _outcome(units, options, order):
    extensions = [ALL_CHECKERS[name]() for name in order]
    result = Analysis(units, options).run(extensions)
    artifacts = [
        (
            a.ext_index, a.root, [r.to_dict() for r in a.reports],
            a.examples, a.counterexamples, a.clean,
            None if a.delta is None else (
                a.delta.ann_writes, a.delta.glob_writes, a.delta.glob_dels,
                a.delta.reads, a.delta.opaque,
            ),
        )
        for a in result.root_artifacts
    ]
    return (
        [r.to_dict() for r in result.reports],
        result.log.examples,
        result.log.counterexamples,
        [d.as_dict() for d in result.degraded],
        artifacts,
    ), result.stats["roots_skipped"]


def assert_skip_is_invisible(make_units, options, order=tuple(ALL_CHECKERS)):
    shipped, skipped = _outcome(make_units(), options, order)
    with mock.patch.object(Extension, "start_anchors", return_value=None):
        forced, none_skipped = _outcome(make_units(), options, order)
    assert none_skipped == 0
    assert shipped == forced
    return skipped


_options = st.builds(
    lambda interprocedural, caching, pruning, capture:
    AnalysisOptions(interprocedural=interprocedural, caching=caching,
                    false_path_pruning=pruning,
                    capture_root_artifacts=capture),
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
)

#: A root body: the random statements of test_engine_properties mixed
#: with calls to the shared ``callee``, whose constant arguments let
#: false-path pruning tell one call site from another.
_call = st.tuples(
    st.permutations(_POINTERS),
    st.lists(st.sampled_from(["0", "1", "c0", "c1", "c2", "c3"]),
             min_size=4, max_size=4),
).map(lambda t: "callee(%s);" % ", ".join(list(t[0]) + t[1]))
_root_body = st.lists(st.one_of(_stmt, _call), min_size=1,
                      max_size=6).map(_block)

#: Every registered checker, in a drawn order (composition through the
#: annotation store depends on it).
_orders = st.permutations(sorted(ALL_CHECKERS))


def shared_callee_program(callee_body, root_bodies):
    """A program of one shared ``callee`` and one ``root<i>`` per body,
    each root free to call the callee."""
    params = ", ".join("int *%s" % p for p in _POINTERS)
    conds = ", ".join("int c%d" % i for i in range(4))
    code = "int sink;\nint callee(%s, %s) {\n%s\n    return 0;\n}\n" % (
        params, conds, callee_body
    )
    for index, body in enumerate(root_bodies):
        code += "int root%d(%s, %s) {\n%s\n    return 0;\n}\n" % (
            index, params, conds, body
        )
    return code


class TestSkipIsInvisible:
    @given(st.integers(0, 10_000), st.integers(2, 10), st.booleans(),
           _options, _orders)
    @settings(max_examples=40, deadline=None)
    def test_generated_kernel_modules(self, seed, n_functions, idioms,
                                      options, order):
        workload = generate_kernel_module(
            seed=seed, n_functions=n_functions, bug_rate=0.5,
            suppression_idioms=idioms,
        )
        assert_skip_is_invisible(
            lambda: [parse(workload.source, "gen.c")], options, order
        )

    @given(_program_body, st.lists(_root_body, min_size=2, max_size=3),
           _options, _orders)
    @settings(max_examples=60, deadline=None)
    def test_random_roots_sharing_a_callee(self, callee_body, root_bodies,
                                           options, order):
        code = shared_callee_program(callee_body, root_bodies)
        assert_skip_is_invisible(lambda: [parse(code, "gen.c")], options,
                                 order)

    def test_the_shared_callee_program(self):
        for pruning in (True, False):
            options = AnalysisOptions(false_path_pruning=pruning)
            skipped = assert_skip_is_invisible(
                lambda: [parse(SHARED, "shared.c")], options
            )
            assert skipped > 0


class TestCliCounter:
    """``roots_skipped`` rides in the engine stats, summed over pass-2
    workers, and ``--stats`` prints it."""

    TOY = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                       "toy_kernel")

    def run(self, tmp_path, capsys, *flags):
        stats = str(tmp_path / "stats.json")
        files = sorted(glob.glob(os.path.join(self.TOY, "*.c")))
        main(["--checker", "lock", "--checker", "free", "--stats",
              "--stats-json", stats, "-I", os.path.join(self.TOY, "include")]
             + list(flags) + files)
        out, err = capsys.readouterr()
        with open(stats) as handle:
            return out, err, json.load(handle)

    def test_serial_and_jobs_agree(self, tmp_path, capsys):
        out, err, serial = self.run(tmp_path, capsys)
        skipped = serial["engine"]["roots_skipped"]
        assert "# roots_skipped = %d" % skipped in err.splitlines()
        out_jobs, __, parallel = self.run(tmp_path, capsys, "--jobs", "2")
        assert out_jobs == out
        assert parallel["engine"]["roots_skipped"] == skipped > 0
