"""Summary machinery tests (§5.2, §6.2, Figure 6)."""

from repro.cfront.parser import parse, parse_expression
from repro.checkers import free_checker
from repro.engine.analysis import Analysis
from repro.engine.state import UNKNOWN, VarInstance
from repro.engine.summaries import (
    ADD,
    TRANSITION,
    Edge,
    EdgeSet,
    SummaryTable,
    make_add_edge,
    make_transition_edge,
    relax,
)
from repro.metal.sm import PLACEHOLDER


def inst(obj_text, value, data=None):
    return VarInstance("v", parse_expression(obj_text), value, data)


class TestEdgeConstruction:
    def test_transition_edge(self):
        entry = inst("p", "freed")
        exit_ = entry.copy()
        edge = make_transition_edge("start", entry, "start", exit_)
        assert edge.kind == TRANSITION
        assert edge.start == entry.tuple_key("start")
        assert edge.describe() == "(start,v:p->freed) --> (start,v:p->freed)"

    def test_stop_edge(self):
        entry = inst("p", "freed")
        edge = make_transition_edge("start", entry, "start", None)
        assert edge.ends_in_stop
        assert "stop" in edge.describe()

    def test_add_edge_has_unknown_start(self):
        created = inst("w", "freed")
        edge = make_add_edge("start", "start", created)
        assert edge.kind == ADD
        assert edge.start[1][2] == UNKNOWN
        assert edge.describe() == "(start,v:w->$unknown) --> (start,v:w->freed)"

    def test_global_edge(self):
        edge = make_transition_edge("enabled", None, "disabled", None)
        assert edge.is_global_only
        assert edge.start == ("enabled", PLACEHOLDER)
        assert edge.end == ("disabled", PLACEHOLDER)


class TestEdgeSet:
    def test_dedup(self):
        edges = EdgeSet()
        a = make_transition_edge("s", inst("p", "freed"), "s", inst("p", "freed"))
        b = make_transition_edge("s", inst("p", "freed"), "s", inst("p", "freed"))
        assert edges.add(a)
        assert not edges.add(b)
        assert len(edges) == 1

    def test_indexing(self):
        edges = EdgeSet()
        edge = make_transition_edge("s", inst("p", "freed"), "s", inst("p", "stop2"))
        edges.add(edge)
        assert list(edges.with_start(edge.start)) == [edge]
        assert list(edges.with_end(edge.end)) == [edge]
        assert edges.with_start(("nope", PLACEHOLDER)) == ()


class _Block:
    def __init__(self, index, is_exit=False):
        self.index = index
        self.is_exit = is_exit


def record(table, head, tail, *edges):
    """File ``edges`` as a run of ``head`` that left from ``tail``;
    returns the ``(summary, run)`` backtrace entry relax takes."""
    summary = table.get(head)
    run = summary.runs[tail.index]
    for edge in edges:
        run.add(edge)
    return summary, run


class TestBlockSummaryCovers:
    def test_covers_transition_start(self):
        table = SummaryTable()
        entry = inst("p", "freed")
        summary, __ = record(
            table, _Block(0), _Block(2),
            make_transition_edge("start", entry, "start", entry.copy()),
        )
        assert summary.covers(entry.tuple_key("start"))
        assert not summary.covers(inst("q", "freed").tuple_key("start"))

    def test_add_edge_does_not_cover(self):
        table = SummaryTable()
        summary, __ = record(
            table, _Block(0), _Block(0),
            make_add_edge("start", "start", inst("p", "freed")),
        )
        # an add edge start contains UNKNOWN; never equals a live tuple
        assert not summary.covers(inst("p", "freed").tuple_key("start"))

    def test_relax_only_global_edge_does_not_cover(self):
        table = SummaryTable()
        edge = Edge(TRANSITION, ("s", PLACEHOLDER), ("s", PLACEHOLDER),
                    relax_only=True)
        summary, __ = record(table, _Block(0), _Block(0), edge)
        assert not summary.covers(("s", PLACEHOLDER))

    def test_runs_are_filed_by_tail(self):
        table = SummaryTable()
        head = _Block(0)
        a = make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed"))
        b = make_transition_edge("s", inst("q", "freed"), "s", None)
        record(table, head, _Block(3), a)
        summary, __ = record(table, head, _Block(5), b)
        assert sorted(summary.runs) == [3, 5]
        assert list(summary.runs[3]) == [a]
        assert list(summary.runs[5]) == [b]


class TestRelax:
    """Direct tests of the Figure 6 walk on a hand-built backtrace of
    heads."""

    def test_exit_seeds_suffix(self):
        table = SummaryTable()
        last = record(
            table, _Block(0), _Block(1, is_exit=True),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
        )
        relax([last], at_exit=True)
        assert len(last[0].suffix) == 1

    def test_a_run_that_ended_elsewhere_does_not_seed(self):
        # A dead end is not the exit: its run composes nothing new.
        table = SummaryTable()
        last = record(
            table, _Block(0), _Block(1),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
        )
        relax([last])
        assert len(last[0].suffix) == 0

    def test_transition_composition(self):
        table = SummaryTable()
        # head 0 runs to tail 1: p freed -> freed; join 2 runs to the
        # exit: p freed -> freed (identity chain)
        first = record(
            table, _Block(0), _Block(1),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
        )
        last = record(
            table, _Block(2), _Block(3, is_exit=True),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
        )
        relax([first, last], at_exit=True)
        suffix = list(first[0].suffix)
        assert any(e.kind == TRANSITION and not e.is_global_only for e in suffix)

    def test_only_the_taken_tail_composes(self):
        # Head 0 reached the join through tail 1 with p freed; a run that
        # left from tail 4 with p ignored must not compose with the
        # join's suffix.
        table = SummaryTable()
        head = _Block(0)
        record(table, head, _Block(4),
               make_transition_edge("s", inst("q", "freed"), "s",
                                    inst("p", "ignored")))
        first = record(
            table, head, _Block(1),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
        )
        last = record(
            table, _Block(2), _Block(3, is_exit=True),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
            make_transition_edge("s", inst("p", "ignored"), "s",
                                 inst("p", "ignored")),
        )
        relax([first, last], at_exit=True)
        rows = sorted(e.describe() for e in first[0].suffix)
        assert rows == ["(s,v:p->freed) --> (s,v:p->freed)"]

    def test_stop_edges_omitted_from_suffix(self):
        # §6.2: "none of the edges in the suffix summaries end in a tuple
        # containing the stop state."
        table = SummaryTable()
        last = record(
            table, _Block(0), _Block(0, is_exit=True),
            make_transition_edge("s", inst("p", "freed"), "s", None),
        )
        relax([last], at_exit=True)
        assert len(last[0].suffix) == 0

    def test_add_edge_relaxes_through_global_edge(self):
        # "these special transition edges will match the initial state of
        # an add edge if the values of the global instance match."
        table = SummaryTable()
        first = record(table, _Block(0), _Block(0),
                       make_transition_edge("g0", None, "g1", None))
        last = record(
            table, _Block(1), _Block(1, is_exit=True),
            make_transition_edge("g1", None, "g1", None),
            make_add_edge("g1", "g1", inst("w", "freed")),
        )
        relax([first, last], at_exit=True)
        suffix_adds = [e for e in first[0].suffix if e.kind == ADD]
        assert len(suffix_adds) == 1
        # the start global moved back to the first head's entry value
        assert suffix_adds[0].start[0] == "g0"

    def test_add_then_transition_composes_to_add(self):
        table = SummaryTable()
        first = record(table, _Block(0), _Block(0),
                       make_add_edge("s", "s", inst("w", "freed")))
        last = record(
            table, _Block(1), _Block(1, is_exit=True),
            make_transition_edge("s", inst("w", "freed"), "s",
                                 inst("w", "freed")),
        )
        relax([first, last], at_exit=True)
        suffix = [e for e in first[0].suffix if e.kind == ADD]
        assert len(suffix) == 1

    def test_cache_hit_seeds_from_the_hit_heads_suffix(self):
        # On a cache hit the last entry has no run: the hit head's suffix
        # (from earlier paths) seeds the walk.
        table = SummaryTable()
        join = _Block(2)
        exit_run = record(
            table, join, _Block(3, is_exit=True),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
        )
        relax([exit_run], at_exit=True)
        first = record(
            table, _Block(0), _Block(1),
            make_transition_edge("s", inst("p", "freed"), "s",
                                 inst("p", "freed")),
        )
        relax([first, (table.get(join), None)])
        assert len(first[0].suffix) == 1

    def test_local_filter(self):
        table = SummaryTable()
        last = record(
            table, _Block(0), _Block(0, is_exit=True),
            make_transition_edge("s", inst("q", "freed"), "s",
                                 inst("q", "freed")),
        )

        def filter_q(edge):
            snapshot = edge.end_snapshot
            if snapshot is None:
                return False
            from repro.cfront.astnodes import identifiers_in

            return "q" in identifiers_in(snapshot.obj)

        relax([last], filter_q, at_exit=True)
        assert len(last[0].suffix) == 0


class TestFigure5Summaries:
    """End-to-end: run the free checker on Figure 2 and check the summary
    rows Figure 5 prints, which here live at extended-block heads."""

    def run(self, fig2_code):
        from repro.cfront.parser import parse

        unit = parse(fig2_code, "fig2.c")
        analysis = Analysis([unit])
        table = analysis.run_one(free_checker())
        cfg = analysis._cfg("contrived")
        return analysis, table, cfg

    def heads(self, table, cfg):
        return [s for s in map(table.find, cfg.blocks) if s is not None]

    def test_function_summary_of_contrived(self, fig2_code):
        analysis, table, cfg = self.run(fig2_code)
        entry_suffix = table.get(cfg.entry).suffix
        rows = sorted(e.describe() for e in entry_suffix if not e.is_global_only)
        # Fig. 5 block 5 suffix summary: p freed -> p freed (transition) and
        # w unknown -> w freed (add).
        assert "(start,v:p->freed) --> (start,v:p->freed)" in rows
        assert "(start,v:w->$unknown) --> (start,v:w->freed)" in rows

    def test_only_heads_keep_summaries(self, fig2_code):
        analysis, table, cfg = self.run(fig2_code)
        heads = {b for b in cfg.blocks if table.find(b) is not None}
        assert cfg.entry in heads
        assert heads == {
            block for block in cfg.blocks
            if block is cfg.entry or len(block.preds) > 1
        }
        assert len(heads) < len(cfg.blocks)

    def test_no_q_in_suffix_summaries(self, fig2_code):
        # Fig. 5 caption: "none of the suffix summaries record any
        # information about q because q is a local variable."
        analysis, table, cfg = self.run(fig2_code)
        for summary in self.heads(table, cfg):
            for edge in summary.suffix:
                assert "v:q->" not in edge.describe()

    def test_no_stop_in_suffix_summaries(self, fig2_code):
        analysis, table, cfg = self.run(fig2_code)
        for summary in self.heads(table, cfg):
            for edge in summary.suffix:
                assert not edge.ends_in_stop

    def test_block_summaries_do_record_q(self, fig2_code):
        # Block summaries (unlike suffix summaries) track q: Fig. 5 blocks
        # 7 and 10 mention q's add and kill, here in the runs of the heads
        # whose extended blocks hold them.
        analysis, table, cfg = self.run(fig2_code)
        texts = []
        for summary in self.heads(table, cfg):
            for run in summary.runs.values():
                texts.extend(e.describe() for e in run)
        assert any("v:q->$unknown) --> (start,v:q->freed)" in t for t in texts)
        assert any("v:q->freed) --> (start,v:q->stop)" in t for t in texts)
