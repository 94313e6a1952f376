"""Run ``xgcc`` with a span around each layer's public entry points.

Usage::

    PYTHONPATH=src python benchmarks/e2e/traced_xgcc.py OUT -- <xgcc argv>

The child patches each entry point at the attribute its caller resolves
(a class attribute for methods, the importing module's global for a
function imported by name), then calls ``repro.driver.cli.main`` with
the given arguments, so the process shape matches an untraced
``python -m repro.driver.cli`` run.  The spans are written to ``OUT``
as Chrome trace-event JSON when ``main`` returns; for the daemon that is
after its shutdown request.  Nothing in the program changes.
"""

import functools
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import trace as spans  # noqa: E402  (this directory's trace.py)

_STORE_READS = ("get_many", "head_many", "entry_mtime", "list_tier",
                "manifest_get", "manifest_head", "manifest_version",
                "manifest_list")
_STORE_WRITES = ("put_many", "delete_many", "touch_many", "manifest_cas",
                 "manifest_put", "manifest_delete", "gc")
_SUMMARY_CALLS = ("get", "prefetch", "store", "store_many", "load_manifest",
                  "store_manifest")


def _patch(tracer, owner, attr, name, counts=None, before=None):
    raw = vars(owner)[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(tracer.wrap(raw.__func__, name, counts, before))
    else:
        wrapped = tracer.wrap(raw, name, counts, before)
    setattr(owner, attr, wrapped)


def _tokens(result, args, kwargs, state):
    return {"tokens": len(result)}


def _ast_hit(result, args, kwargs, state):
    data, path = result
    return {"hits": int(data is not None or path is not None)}


def _engine_counts(result, args, kwargs, state):
    stats = result.stats
    return {
        "points_visited": stats.get("points_visited", 0),
        "paths_completed": stats.get("paths_completed", 0),
        "calls_followed": stats.get("calls_followed", 0),
        "cache_hits": stats.get("cache_hits", 0),
        "table_hits": stats.get("matcher_table_hits", 0),
    }


def _counter_delta(stats_of, names):
    """``(before, counts)`` hooks reporting how much each ``names``
    counter of the call's DriverStats grew across the call."""

    def before(args, kwargs):
        stats = stats_of(args, kwargs)
        if stats is None:
            return None
        return stats, {name: stats.count(name) for name in names}

    def counts(result, args, kwargs, state):
        if state is None:
            return None
        stats, start = state
        return {name: stats.count(name) - start[name] for name in names}

    return before, counts


def _session_stats(args, kwargs):
    session, project = args[0], args[1]
    return session.stats or project.stats


def _refine_stats(args, kwargs):
    return kwargs.get("stats")


def install(tracer):
    """Wrap every traced entry point; returns nothing, patches in place."""
    import repro.cfg.callgraph as callgraph
    import repro.cfg.fingerprint as fingerprint
    import repro.cfront.parser as parser
    import repro.cfront.preproc as preproc
    import repro.driver.cache as cache
    import repro.driver.cli as cli
    import repro.driver.daemon as daemon
    import repro.driver.dump as dump
    import repro.driver.parallel as parallel
    import repro.driver.report_server as report_server
    import repro.driver.session as session
    import repro.driver.store as store
    import repro.driver.watch as watch
    import repro.engine.analysis as analysis
    import repro.metal.compile as metal_compile
    import repro.ranking as ranking
    import repro.refine as refine
    import repro.refine.engine as refine_engine
    import repro.reports.history as history
    import repro.reports.triage as triage

    patch = functools.partial(_patch, tracer)

    patch(preproc.Preprocessor, "preprocess_text", "cfront.preprocess",
          _tokens)
    patch(parser.Parser, "parse_translation_unit", "cfront.parse")

    patch(cache, "cache_key", "cache.ast_key")
    patch(cache.AstCache, "fetch", "cache.ast_probe", _ast_hit)
    patch(cache, "pack_unit", "cache.emit")
    patch(cache, "unpack", "cache.load")
    for attr in _SUMMARY_CALLS:
        patch(cache.SummaryCache, attr, "cache.summary")

    for attr in _STORE_READS:
        patch(store.LocalStore, attr, "store.read")
    for attr in _STORE_WRITES:
        patch(store.LocalStore, attr, "store.write")
    patch(cache, "touch_entry", "store.write")

    patch(parallel, "compile_files_into", "driver.pass1")

    patch(callgraph.CallGraph, "from_units", "cfg.callgraph")
    patch(analysis, "build_cfg", "cfg.build")
    patch(refine_engine, "build_cfg", "cfg.build")
    patch(session, "fingerprint_tables", "cfg.fingerprint")
    patch(fingerprint, "fingerprint_tables", "cfg.fingerprint")

    before, counts = _counter_delta(
        _session_stats,
        ("incremental_roots_analyzed", "incremental_roots_replayed"),
    )
    patch(session.IncrementalSession, "run", "session.run", counts, before)
    patch(analysis.Analysis, "run", "engine.traverse", _engine_counts)
    patch(metal_compile.CompiledExtension, "__init__", "metal.compile")

    before, counts = _counter_delta(
        _refine_stats,
        ("refine_cache_hits", "refine_confirmed", "refine_infeasible",
         "refine_unknown"),
    )
    patch(refine, "refine_reports", "refine", counts, before)

    patch(cli, "rank_reports", "ranking")
    patch(ranking, "rank_reports", "ranking")

    patch(triage.TriageStore, "load_backend", "reports.triage")
    patch(triage.TriageStore, "apply", "reports.triage")
    patch(history.RunHistory, "record_run", "reports.record")
    patch(history.RunHistory, "prune", "reports.prune")
    patch(dump, "reports_to_json", "reports.json")
    patch(dump, "render_reports", "reports.render")
    # The HTTP handler encodes its reply with the module's ``json``.
    report_server.json = types.SimpleNamespace(
        loads=report_server.json.loads,
        dumps=tracer.wrap(report_server.json.dumps, "reports.json"),
    )

    patch(watch.TreeWatcher, "poll", "daemon.poll")
    patch(daemon.XgccDaemon, "analyze", "daemon.analyze")
    patch(report_server._Routes, "current_reports", "daemon.http")
    patch(report_server._Handler, "_respond", "daemon.request")

    patch(cli, "main", "cli.main")


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced_xgcc.py OUT -- <xgcc argv>", file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = spans.Tracer()
    install(tracer)
    import repro.driver.cli as cli

    try:
        return cli.main(argv)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
