"""Figure 5: the supergraph with block and suffix summaries for Fig. 2.

Regenerates the summary rows and asserts the specific edges the figure
and its caption call out:

* block 2's add edge  (start, v:p->unknown) --> (start, v:p->freed);
* block 7's kill edge (start, v:p->freed)  --> (start, v:p->stop);
* contrived's function summary = {p identity-freed, w add-freed};
* suffix summaries never mention q (a local) and never end in stop;
* kfree calls are not callsites (the extension matches them).

Unlike the figure, which prints one row per basic block, summaries are
kept only at heads (the entry block and joins): each head holds one
block summary per tail its runs left from, covering the extended basic
block from the head to that tail.  The figure's per-block edges appear
in the rows of the head whose extended block contains the block.
"""

from conftest import fig2_code  # noqa: F401

from repro.cfront.parser import parse
from repro.cfg import CallGraph, build_supergraph
from repro.checkers import free_checker
from repro.engine.analysis import Analysis


def run_and_collect(fig2_code):
    unit = parse(fig2_code, "fig2.c")
    analysis = Analysis([unit])
    table = analysis.run_one(free_checker())
    return analysis, table


def test_fig5_summaries(benchmark, fig2_code):
    analysis, table = benchmark(run_and_collect, fig2_code)

    print("\nSupergraph summaries for Figure 2 (block summary per run "
          "tail / suffix summary, per head):")
    all_block_rows = []
    all_suffix_rows = []
    for name in ("contrived_caller", "contrived"):
        cfg = analysis._cfg(name)
        print("-- %s --" % name)
        for block in cfg.blocks:
            summary = table.find(block)
            if summary is None:
                continue  # not a head
            print("  head B%d" % block.index)
            for tail, edges in sorted(summary.runs.items()):
                block_rows = sorted(
                    e.describe() for e in edges if not e.is_global_only
                )
                print("    ->B%-2d %s" % (
                    tail, "; ".join(block_rows) or "(global only)"))
                all_block_rows.extend(block_rows)
            suffix_rows = sorted(
                e.describe() for e in summary.suffix if not e.is_global_only
            )
            print("    sfx:  %s" % ("; ".join(suffix_rows) or "(none)"))
            all_suffix_rows.extend(suffix_rows)

    # The figure's add edge in the caller's kfree block.
    assert (
        "(start,v:p->$unknown) --> (start,v:p->freed)" in all_block_rows
    )
    # Block 7's kill of p (p = 0).
    assert "(start,v:p->freed) --> (start,v:p->stop)" in all_block_rows
    # w's add edge inside contrived.
    assert "(start,v:w->$unknown) --> (start,v:w->freed)" in all_block_rows
    # Caption: suffix summaries omit q and stop-ending edges.
    assert not any("v:q->" in row for row in all_suffix_rows)
    assert not any("stop" in row for row in all_suffix_rows)


def test_fig5_function_summary(benchmark, fig2_code):
    analysis, table = benchmark(run_and_collect, fig2_code)
    entry = analysis._cfg("contrived").entry
    rows = sorted(
        e.describe() for e in table.get(entry).suffix if not e.is_global_only
    )
    print("\nfunction summary of contrived (= entry suffix summary):")
    for row in rows:
        print("  " + row)
    assert "(start,v:p->freed) --> (start,v:p->freed)" in rows
    assert "(start,v:w->$unknown) --> (start,v:w->freed)" in rows
    assert len(rows) == 2  # and nothing else (no q, no stop)


def test_fig5_kfree_not_a_callsite(benchmark, fig2_code):
    # Caption: "The analysis does not follow calls to kfree because the
    # extension matches these calls. Thus, they are not considered
    # callsites in the supergraph construction."
    def build():
        unit = parse(fig2_code, "fig2.c")
        callgraph = CallGraph.from_units([unit])
        return build_supergraph(
            callgraph,
            matched_call_filter=lambda call: call.callee_name() == "kfree",
        )

    supergraph = benchmark(build)
    names = [site.callee_name for site in supergraph.callsites]
    print("\ncallsites in the supergraph: %s" % names)
    assert names == ["contrived"]
