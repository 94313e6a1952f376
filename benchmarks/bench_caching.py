"""§5.2 caching and independence claims.

Three series:

1. *Block caching*: n sequential diamonds -- 2^n paths uncached vs O(n)
   program points cached.
2. *Independence*: k tracked instances -- linear growth in work ("With
   independence, this number scales linearly with the number of these
   instances"), vs the exponential blowup the paper says the naive
   product construction would suffer.
3. *Function summaries*: a call chain with several callsites per level --
   summary cache hits keep the work near-linear in depth.
"""

from repro.cfront.parser import parse
from repro.checkers import free_checker
from repro.codegen.scaling import (
    call_chain_module,
    diamond_function,
    tracked_objects_function,
)
from repro.engine.analysis import Analysis, AnalysisOptions

HEADER = "struct device { int flags; int count; int lck; char *buf; };\n"


def points_for(code, caching=True, max_steps=3_000_000):
    unit = parse(code, "scale.c")
    options = AnalysisOptions(caching=caching, max_steps=max_steps)
    analysis = Analysis([unit], options)
    analysis.run(free_checker())
    return analysis.stats["points_visited"]


def test_block_caching_beats_path_enumeration(benchmark):
    code = HEADER + diamond_function(12)

    cached_points = points_for(code, caching=True)
    uncached_points = points_for(code, caching=False)

    print("\n12-diamond function (2^12 = 4096 paths):")
    print("  cached:   %7d points visited" % cached_points)
    print("  uncached: %7d points visited" % uncached_points)
    print("  speedup:  %7.0fx" % (uncached_points / cached_points))

    assert cached_points < 400
    assert uncached_points > 50 * cached_points

    benchmark(points_for, code, True)


def test_caching_scaling_series(benchmark):
    print("\npoints visited vs diamond count:")
    print("  %-10s %-12s %-12s" % ("diamonds", "cached", "uncached"))
    series = []
    for n in (4, 6, 8, 10):
        cached = points_for(HEADER + diamond_function(n), caching=True)
        uncached = points_for(HEADER + diamond_function(n), caching=False)
        series.append((n, cached, uncached))
        print("  %-10d %-12d %-12d" % (n, cached, uncached))
    # cached grows linearly (ratio ~ n), uncached doubles per diamond
    assert series[-1][1] < series[0][1] * 6
    assert series[-1][2] > series[0][2] * 30
    benchmark(points_for, HEADER + diamond_function(10), True)


def test_independence_linear_in_instances(benchmark):
    print("\npoints visited vs tracked instances k (independence, §5.2):")
    series = []
    for k in (2, 4, 8, 16, 32):
        code = HEADER + tracked_objects_function(k, with_diamonds=3)
        points = points_for(code)
        series.append((k, points))
        print("  k=%-4d %d points" % (k, points))
    # Doubling k from 8->16 and 16->32 must grow work by < 4x each time
    # (linear-ish, not exponential).
    assert series[3][1] < series[2][1] * 4
    assert series[4][1] < series[3][1] * 4
    benchmark(points_for, HEADER + tracked_objects_function(16, with_diamonds=3))


def test_function_summary_caching(benchmark):
    code = call_chain_module(depth=7, callsites_per_level=3)
    # The root frees a buffer after the chain returns: a start call for
    # the free checker, so the root is not skipped as dead
    # (docs/ENGINE.md, "Live roots").
    tail = code.rindex("    return n;")
    code = code[:tail] + "    kfree(p->buf);\n" + code[tail:]

    def run():
        unit = parse(code, "chain.c")
        analysis = Analysis([unit])
        analysis.run(free_checker())
        return analysis.stats

    stats = benchmark(run)
    print("\ncall chain depth 7, 3 callsites/level "
          "(3^6 = 729 interprocedural paths):")
    print("  calls followed:      %d" % stats["calls_followed"])
    print("  function cache hits: %d" % stats["function_cache_hits"])
    print("  points visited:      %d" % stats["points_visited"])
    # each level analyzed once; the other callsites hit the summary cache
    assert stats["calls_followed"] <= 7
    assert stats["function_cache_hits"] >= 10
    assert stats["points_visited"] < 2000
