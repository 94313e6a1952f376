"""The ``xgcc`` command line interface.

Usage::

    xgcc --checker free --checker lock file1.c file2.c
    xgcc --metal my_checker.metal --rank statistical src/*.c
    xgcc --checker lock --jobs 4 --cache-dir .xgcc-cache src/*.c
    xgcc --checker lock --watch src --cache-dir .xgcc-cache \\
         --daemon-socket /tmp/xgccd.sock          # run the daemon
    xgcc --daemon-socket /tmp/xgccd.sock --daemon-request analyze
    xgcc --list-checkers
"""

import argparse
import contextlib
import functools
import gc
import os
import sys
import time

from repro.checkers import ALL_CHECKERS
from repro.driver.project import Project
from repro.engine.analysis import AnalysisOptions
from repro.metal.language import compile_metal
# Unused here; benchmarks/e2e/traced_xgcc.py wraps this module global.
from repro.ranking import rank_reports  # noqa: F401
from repro.reports.pipeline import PipelineConfig, load_triage, run_pipeline


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xgcc",
        description="metal/xgcc reproduction: system-specific static analysis",
    )
    parser.add_argument("files", nargs="*", help="C source files to analyze")
    parser.add_argument(
        "--checker",
        "-c",
        action="append",
        default=[],
        choices=sorted(ALL_CHECKERS),
        help="built-in checker to run (repeatable)",
    )
    parser.add_argument(
        "--metal",
        "-m",
        action="append",
        default=[],
        help="metal extension file to compile and run (repeatable)",
    )
    parser.add_argument("--list-checkers", action="store_true")
    parser.add_argument(
        "--infer",
        choices=["pairs", "retcheck", "nullarg"],
        action="append",
        default=[],
        help="statistical rule inference: 'pairs' (must-be-paired "
        "functions), 'retcheck' (must-check-result functions), or "
        "'nullarg' (must-not-be-NULL argument positions)",
    )
    parser.add_argument(
        "--min-z",
        type=float,
        default=1.0,
        help="z-score threshold for inferred rules (default 1.0)",
    )
    parser.add_argument(
        "--rank",
        choices=["generic", "severity", "statistical", "none"],
        default="severity",
        help="error ranking mode (default: severity + generic)",
    )
    parser.add_argument(
        "--triage", metavar="FILE",
        help="triage file (docs/REPORTS.md): suppressions, severity "
        "overrides, and false-positive marks applied to this run's "
        "reports; merged over any shared triage state in the store; a "
        "§8 history file is a triage file too",
    )
    parser.add_argument(
        "--triage-suppress", metavar="KEY",
        help="record a suppression -- KEY is a stable report hash or "
        "'rule:ID' -- into --triage FILE when given, else into the "
        "shared store (--cache-dir/--store-url); with no input files "
        "this records and exits",
    )
    parser.add_argument(
        "--triage-reason", metavar="TEXT",
        help="provenance note stored with --triage-suppress",
    )
    parser.add_argument(
        "--record-run", action="store_true",
        help="persist this run's structured reports in the store's run "
        "history (requires --cache-dir or --store-url); the run id is "
        "printed on stderr and usable with --diff",
    )
    parser.add_argument(
        "--refine", nargs="?", const="demote", metavar="MODE",
        choices=["annotate", "demote", "drop"],
        help="path-feasibility refinement (docs/REFINE.md): slice each "
        "report's error path and symbolically execute it (intervals + "
        "congruence, no SMT); verdicts ride as report annotations and "
        "feed statistical ranking, and MODE picks what happens to "
        "infeasible reports after ranking: 'demote' (the default) "
        "sinks them below the rest, 'drop' removes them, 'annotate' "
        "leaves the order untouched; verdicts are cached per "
        "(function fingerprint, report hash) in the artifact store",
    )
    parser.add_argument(
        "--prune-runs", type=int, metavar="N",
        help="bound the stored run history to the newest N runs (0 "
        "empties it -- deliberate, not a no-op); with no input files "
        "this prunes and exits, otherwise it runs after --record-run; "
        "with --watch the daemon re-applies the bound after every "
        "recorded run",
    )
    parser.add_argument(
        "--diff", nargs=2, metavar=("BASE", "HEAD"),
        help="no analysis: diff two recorded runs by stable report hash "
        "('latest' and unambiguous id prefixes work); prints new / "
        "resolved / unresolved reports, exit 1 when any are new",
    )
    parser.add_argument("--new", action="store_true",
                        help="with --diff: print only new reports")
    parser.add_argument("--resolved", action="store_true",
                        help="with --diff: print only resolved reports")
    parser.add_argument("--unresolved", action="store_true",
                        help="with --diff: print only unresolved reports")
    parser.add_argument(
        "--report-json", metavar="FILE",
        help="also write the run's structured report model as JSON to "
        "FILE ('-' for stdout); text output is unchanged",
    )
    parser.add_argument("--include", "-I", action="append", default=[],
                        help="preprocessor include path (repeatable)")
    parser.add_argument("--define", "-D", action="append", default=[],
                        help="preprocessor define NAME[=VALUE] (repeatable)")
    parser.add_argument("--no-interprocedural", action="store_true")
    parser.add_argument("--no-false-path-pruning", action="store_true")
    parser.add_argument("--no-caching", action="store_true")
    parser.add_argument("--no-kills", action="store_true")
    parser.add_argument("--no-synonyms", action="store_true")
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for pass 1 (default 1 = serial); pass 2 "
        "always runs in this process",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="persistent content-addressed AST cache: unchanged files are "
        "loaded instead of re-parsed on re-runs",
    )
    parser.add_argument(
        "--store-url", metavar="URL",
        default=os.environ.get("XGCC_STORE") or None,
        help="shared artifact store: a standalone report server "
        "(http://HOST:PORT from python -m repro.driver.report_server; "
        "defaults to $XGCC_STORE): cached ASTs, summaries, and "
        "manifests are shared with every client of the store; with "
        "--cache-dir the local "
        "cache acts as a write-through overlay, and an unreachable "
        "store degrades the run to local-only instead of failing it",
    )
    parser.add_argument(
        "--incremental", action="store_true",
        help="persist per-root summaries under --cache-dir and, on "
        "re-runs, re-analyze only functions whose fingerprint changed "
        "(plus their transitive callers); replayed reports are "
        "byte-identical to a cold run",
    )
    parser.add_argument(
        "--cache-gc", action="store_true",
        help="before analyzing (or by itself, with no input files), drop "
        "cached frames not referenced by any manifest newer than "
        "--cache-gc-days and manifests older than it",
    )
    parser.add_argument(
        "--cache-gc-days", type=float, default=30.0, metavar="DAYS",
        help="staleness cutoff for --cache-gc (default 30)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="degrade instead of aborting: skip files whose pass 1 fails "
        "and roots whose analysis crashes, recording each degradation "
        "in the stats",
    )
    parser.add_argument(
        "--worker-timeout", type=float, metavar="SECONDS",
        help="declare a worker hung after SECONDS; its work is retried "
        "once, then runs in-process",
    )
    parser.add_argument(
        "--max-steps-per-root", type=int, metavar="N",
        help="per-root step budget: a root exceeding it is abandoned "
        "(partial reports kept) while the rest of the run continues",
    )
    parser.add_argument(
        "--max-paths-per-root", type=int, metavar="N",
        help="per-root completed-path budget (see --max-steps-per-root)",
    )
    parser.add_argument(
        "--max-seconds-per-root", type=float, metavar="S",
        help="per-root wall-clock budget (see --max-steps-per-root)",
    )
    parser.add_argument(
        "--watch", action="append", default=[], metavar="DIR",
        help="run as an analysis daemon (xgccd) watching DIR for edits "
        "(repeatable); requires --cache-dir and --daemon-socket, implies "
        "--incremental; serves requests until a shutdown request",
    )
    parser.add_argument(
        "--daemon-socket", metavar="PATH",
        help="UNIX socket path the daemon listens on (with --watch) or a "
        "client request goes to (with --daemon-request)",
    )
    parser.add_argument(
        "--daemon-request", metavar="OP",
        choices=["analyze", "stats", "gc", "ping", "shutdown"],
        help="client mode: send OP to the daemon at --daemon-socket and "
        "print its answer ('analyze' prints ranked reports, exit 1 when "
        "any; other ops print JSON)",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="daemon idle fingerprint-poll interval (default 0.5)",
    )
    parser.add_argument(
        "--http-port", type=int, metavar="PORT",
        help="with --watch: also serve the multi-client HTTP report API "
        "(GET /runs, /diff, POST /triage; docs/REPORTS.md) on PORT "
        "(0 = any free port)",
    )
    parser.add_argument("--stats", action="store_true",
                        help="print engine + driver stats")
    parser.add_argument(
        "--stats-json", metavar="FILE",
        help="dump driver/engine stats as JSON to FILE",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the why-trace under each report (§3.2)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report output format",
    )
    parser.add_argument(
        "--dump", action="append", default=[],
        choices=["cfg", "dot", "callgraph", "summaries"],
        help="dump instead of analyzing (repeatable): 'callgraph' the "
        "call graph (roots marked with *), then 'cfg' every function's "
        "CFG or 'dot' the CFGs in Graphviz DOT syntax; 'summaries' "
        "analyzes and then dumps Figure-5-style block/suffix summaries",
    )
    return parser


def main(argv=None):
    """Run one ``xgcc`` invocation and return its exit status.

    Every one-shot mode (all but ``--watch``) runs with CPython's cyclic
    collector paused: a run's cyclic structures (ASTs, CFGs, summaries)
    stay live until it ends, so collector passes scan them for nothing.
    The pause starts before argument parsing, and the caller's
    collector state is restored on the way out, however ``main``
    leaves.  The daemon gets the collector back: each analysis leaves
    cyclic garbage only it frees (docs/DRIVER.md, "The cyclic
    collector").
    """
    resume = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.watch and resume:
            gc.enable()
        return _main(parser, args)
    finally:
        if resume:
            gc.enable()


def entry_point():
    """The process entry point (``xgcc``, ``python -m
    repro.driver.cli``): :func:`main`, then exit.

    Freezing the heap first makes the interpreter's shutdown collection
    skip everything the run allocated; unlike ``os._exit``, atexit
    hooks, stdio flushes, and refcount finalizers still run.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


def _main(parser, args):
    # ``resources`` closes what the run opened (store backends and
    # their connections) however it ends.
    started = time.perf_counter()
    with contextlib.ExitStack() as resources:
        try:
            return _run(parser, args, resources, started)
        except OSError as error:
            print("xgcc: %s" % error, file=sys.stderr)
            return 2
        except Exception as error:  # SourceError and friends: diagnostics
            from repro.cfront.source import SourceError
            from repro.metal.language import MetalError

            if isinstance(error, (SourceError, MetalError)):
                print("xgcc: %s" % error, file=sys.stderr)
                return 2
            raise


def _open_backend(args, resources):
    """The (cache_dir, store_url) backend, or None when neither is set;
    closed when the run ends."""
    from repro.driver.store import open_store

    backend = open_store(cache_dir=args.cache_dir, store_url=args.store_url)
    if backend is not None:
        resources.callback(backend.close)
    return backend


def _warn(message):
    print("xgcc: %s" % message, file=sys.stderr)


def _pipeline_config(args):
    return PipelineConfig(rank=args.rank, refine=args.refine,
                          triage=args.triage, prune_keep=args.prune_runs)


def _parse_triage_key(token):
    """``('rule', id)`` for ``rule:ID`` tokens, else ``('hash', token)``."""
    if token.startswith("rule:"):
        return "rule", token[len("rule:"):]
    return "hash", token


def _triage_record_mode(parser, args, resources):
    """``xgcc --triage-suppress KEY`` with no input files: record the
    suppression and exit."""
    from repro.reports.triage import TriageStore

    kind, key = _parse_triage_key(args.triage_suppress)
    if args.triage:
        store = TriageStore.load_path(args.triage)
        store._make(kind, key, reason=args.triage_reason)
        store.save(args.triage)
        where = args.triage
    else:
        backend = _open_backend(args, resources)
        if backend is None:
            parser.error(
                "--triage-suppress needs --triage FILE, --cache-dir, or "
                "--store-url"
            )
        store = TriageStore.load_backend(backend)
        store._make(kind, key, reason=args.triage_reason)
        store.save_backend(backend)
        where = "shared store"
    print("xgcc: triaged %s %r (%d entries in %s)"
          % (kind, key, len(store), where), file=sys.stderr)
    return 0


def _prune_runs_mode(parser, args, resources):
    """``xgcc --prune-runs N`` with no input files: bound the stored run
    history and exit (``N=0`` empties it)."""
    from repro.reports.history import RunHistory, RunHistoryError

    backend = _open_backend(args, resources)
    if backend is None:
        parser.error("--prune-runs requires --cache-dir or --store-url")
    try:
        deleted = RunHistory(backend).prune(keep=args.prune_runs)
    except RunHistoryError as error:
        print("xgcc: %s" % error, file=sys.stderr)
        return 2
    print("xgcc: pruned %d stored run(s) (keep=%d)"
          % (deleted, args.prune_runs), file=sys.stderr)
    return 0


#: ``--diff`` bucket order (and the flag for each).
_DIFF_BUCKETS = ("new", "resolved", "unresolved")


def _diff_mode(parser, args, resources):
    """``xgcc --diff BASE HEAD``: hash set-difference between two
    recorded runs -- no analysis runs."""
    import json

    from repro.reports.history import RunHistory, RunHistoryError
    from repro.reports.model import Report

    backend = _open_backend(args, resources)
    if backend is None:
        parser.error("--diff requires --cache-dir or --store-url")
    base, head = args.diff
    triage = load_triage(backend, args.triage, say=_warn)
    try:
        diff = RunHistory(backend).diff(base, head, triage=triage)
    except RunHistoryError as error:
        print("xgcc: %s" % error, file=sys.stderr)
        return 2
    selected = [
        bucket for bucket in _DIFF_BUCKETS if getattr(args, bucket)
    ] or list(_DIFF_BUCKETS)
    if args.format == "json":
        doc = {bucket: diff[bucket] for bucket in selected}
        doc.update(base=diff["base"], head=diff["head"],
                   suppressed=diff["suppressed"])
        print(json.dumps(doc, indent=2))
    else:
        bare = len(selected) == 1
        for bucket in selected:
            docs = diff[bucket]
            if not bare:
                print("== %s (%d) ==" % (bucket, len(docs)))
            for doc in docs:
                print(Report.from_dict(doc).format())
    return 1 if diff["new"] else 0


def _defines(args):
    """``-D NAME[=VALUE]`` flags as a dict (a bare NAME defines 1)."""
    pairs = (item.partition("=") for item in args.define)
    return {name: value or "1" for name, __, value in pairs}


def _session_signature(args, metal_sources, options):
    from repro.driver.session import session_signature

    return session_signature(
        checker_names=args.checker,
        metal_texts=[text for text, __ in metal_sources],
        options=options,
    )


def _make_project(args, resources):
    """Pass 1 over ``args.files``; the project's stats meter the cyclic
    collector and its store backend closes when the run ends."""
    project = Project(include_paths=args.include, defines=_defines(args),
                      cache_dir=args.cache_dir, keep_going=args.keep_going,
                      store_url=getattr(args, "store_url", None))
    resources.callback(project.close)
    resources.enter_context(project.stats.collector_passes())
    project.compile_files(args.files, jobs=args.jobs,
                          worker_timeout=args.worker_timeout)
    return project


def _build_extensions(checker_names, metal_sources):
    """Build the CLI extension list (the daemon rebuilds it per analysis:
    extensions are stateful)."""
    extensions = [ALL_CHECKERS[name]() for name in checker_names]
    for text, path in metal_sources:
        extensions.append(compile_metal(text, path))
    return extensions


def _dump_mode(args, resources):
    from repro.cfg.builder import build_cfg
    from repro.driver.dump import dump_callgraph, dump_cfg, dump_cfg_dot

    project = _make_project(args, resources)
    if "callgraph" in args.dump:
        print(dump_callgraph(project.callgraph))
    if "cfg" in args.dump or "dot" in args.dump:
        for name in sorted(project.callgraph.functions):
            cfg = build_cfg(project.callgraph.functions[name])
            print(dump_cfg_dot(cfg) if "dot" in args.dump else dump_cfg(cfg))
            print()
    return 0


def _read_metal_sources(args):
    metal_sources = []
    for path in args.metal:
        with open(path) as handle:
            metal_sources.append((handle.read(), path))
    return metal_sources


def _daemon_client_mode(parser, args):
    """``xgcc --daemon-socket S --daemon-request OP``: one request to a
    running daemon, answer printed, daemon exit-code conventions."""
    import json

    from repro.driver.daemon import DaemonClient, DaemonError

    if not args.daemon_socket:
        parser.error("--daemon-request requires --daemon-socket")
    try:
        with DaemonClient(args.daemon_socket) as client:
            fields = {}
            if args.daemon_request == "gc":
                fields["days"] = args.cache_gc_days
            reply = client.request(args.daemon_request, **fields)
    except DaemonError as error:
        print("xgcc: %s" % error, file=sys.stderr)
        return 2
    if not reply.get("ok"):
        print("xgcc: daemon error: %s" % reply.get("error"), file=sys.stderr)
        return 2
    if args.daemon_request == "analyze":
        # Print exactly what a cold run would: the ranked report lines.
        sys.stdout.write(reply.get("reports", ""))
        for entry in reply.get("degradations", ()):
            print("xgcc: degraded: %s" % entry, file=sys.stderr)
        return 1 if reply.get("report_count") else 0
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def _daemon_mode(parser, args):
    """``xgcc --watch DIR --daemon-socket S``: run xgccd in the
    foreground until a shutdown request arrives."""
    from repro.driver.daemon import XgccDaemon
    from repro.driver.session import IncrementalSession

    if not args.daemon_socket:
        parser.error("--watch requires --daemon-socket")
    if not args.cache_dir and not args.store_url:
        parser.error("--watch requires --cache-dir or --store-url")

    metal_sources = _read_metal_sources(args)
    extensions = _build_extensions(args.checker, metal_sources)
    if not extensions:
        parser.error("no checkers selected (use --checker or --metal)")

    options = _make_options(args)
    signature = _session_signature(args, metal_sources, options)
    session = IncrementalSession(args.cache_dir, signature,
                                 pin_warm_state=True,
                                 store_url=args.store_url)
    factory = functools.partial(
        _build_extensions, tuple(args.checker), tuple(metal_sources)
    )
    daemon = XgccDaemon(
        watch_roots=args.watch,
        extension_factory=factory,
        session=session,
        socket_path=args.daemon_socket,
        files=args.files,
        include_paths=args.include,
        defines=_defines(args),
        cache_dir=args.cache_dir,
        store_url=args.store_url,
        options=options,
        pipeline=_pipeline_config(args),
        jobs=args.jobs,
        worker_timeout=args.worker_timeout,
        poll_interval=args.poll_interval,
    )
    http_server = None
    if args.http_port is not None:
        from repro.driver.report_server import ReportServer

        http_server = ReportServer(daemon=daemon,
                                   backend=session.backend,
                                   port=args.http_port)
        http_server.start()
        print("xgccd: report API on %s" % http_server.url, file=sys.stderr)
    print("xgccd: watching %s, serving on %s"
          % (", ".join(args.watch) or "<files>", args.daemon_socket),
          file=sys.stderr)
    try:
        daemon.serve_forever()
    finally:
        if http_server is not None:
            http_server.stop()
    if args.stats:
        for line in daemon.stats.format_lines():
            print("# %s" % line, file=sys.stderr)
    if args.stats_json:
        daemon.stats.dump_json(args.stats_json)
    return 0


def _make_options(args):
    return AnalysisOptions(
        interprocedural=not args.no_interprocedural,
        false_path_pruning=not args.no_false_path_pruning,
        caching=not args.no_caching,
        kills=not args.no_kills,
        synonyms=not args.no_synonyms,
        max_steps_per_root=args.max_steps_per_root,
        max_paths_per_root=args.max_paths_per_root,
        max_seconds_per_root=args.max_seconds_per_root,
        root_error_policy="degrade" if args.keep_going else "raise",
    )


#: Each numeric flag's lower bound, checked before any work.  NaN fails
#: every bound; argparse has already checked the types.
_BOUNDS = {
    ">= 1": lambda value: value >= 1,
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
}
_NUMERIC_FLAGS = (
    ("--jobs", "jobs", ">= 1"),
    ("--max-steps-per-root", "max_steps_per_root", ">= 1"),
    ("--max-paths-per-root", "max_paths_per_root", ">= 1"),
    ("--max-seconds-per-root", "max_seconds_per_root", "> 0"),
    ("--worker-timeout", "worker_timeout", "> 0"),
    ("--poll-interval", "poll_interval", "> 0"),
    ("--cache-gc-days", "cache_gc_days", ">= 0"),
)


def _check_numeric_flags(parser, args):
    """Reject a nonsense budget, pool size, or interval."""
    for flag, attribute, bound in _NUMERIC_FLAGS:
        value = getattr(args, attribute)
        if value is not None and not _BOUNDS[bound](value):
            parser.error("%s must be %s (got %s)" % (flag, bound, value))


def _run(parser, args, resources, started):
    _check_numeric_flags(parser, args)
    if args.list_checkers:
        for name in sorted(ALL_CHECKERS):
            print(name)
        return 0

    if args.daemon_request:
        return _daemon_client_mode(parser, args)

    if (args.prune_runs is not None and args.prune_runs < 0
            and (args.files or args.watch)):
        # Before any analysis; the standalone prune answers for itself.
        parser.error("--prune-runs keep must be >= 0 (got %d)"
                     % args.prune_runs)

    if args.watch:
        return _daemon_mode(parser, args)

    if args.diff:
        return _diff_mode(parser, args, resources)

    if args.triage_suppress and not args.files:
        return _triage_record_mode(parser, args, resources)

    if args.prune_runs is not None and not args.files:
        return _prune_runs_mode(parser, args, resources)

    if args.cache_gc and not args.cache_dir and not args.store_url:
        parser.error("--cache-gc requires --cache-dir or --store-url")

    if not args.files and not args.cache_gc:
        parser.error("no input files")

    for flag, wanted in (("--incremental", args.incremental),
                         ("--record-run", args.record_run),
                         ("--prune-runs", args.prune_runs is not None)):
        if wanted and not args.cache_dir and not args.store_url:
            parser.error("%s requires --cache-dir or --store-url" % flag)
    if args.incremental and "summaries" in args.dump:
        # Figure-5 summary dumps need the live per-block tables of a full
        # serial run; replayed roots have none.
        parser.error("--dump summaries is incompatible with --incremental")

    gc_counters = None
    if args.cache_gc:
        gc_counters = _open_backend(args, resources).gc(
            cutoff_days=args.cache_gc_days)
        if not args.files:
            # GC-only invocation: sweep, report, done.
            from repro.driver.stats import DriverStats

            stats = DriverStats()
            stats.add_counters(gc_counters)
            if args.stats:
                for line in stats.format_lines():
                    print("# %s" % line, file=sys.stderr)
            if args.stats_json:
                stats.dump_json(args.stats_json)
            return 0

    if set(args.dump) - {"summaries"}:
        return _dump_mode(args, resources)

    metal_sources = _read_metal_sources(args)
    extensions = _build_extensions(args.checker, metal_sources)
    if not extensions and not args.infer:
        parser.error("no checkers selected (use --checker, --metal, or --infer)")

    from repro.metal.validate import validate as validate_extension

    for extension in extensions:
        for finding in validate_extension(extension):
            print("xgcc: %s: %s" % (extension.name, finding), file=sys.stderr)
            if finding.level == "error":
                return 2

    project = _make_project(args, resources)
    if gc_counters:
        project.stats.add_counters(gc_counters)

    options = _make_options(args)

    reports = []
    result = None
    if extensions:
        if args.incremental:
            from repro.driver.session import IncrementalSession

            signature = _session_signature(args, metal_sources, options)
            session = IncrementalSession(args.cache_dir, signature,
                                         backend=project.store_backend)
            result = project.run(extensions, options, incremental=session)
        else:
            # Built here, not in Project.run: --dump summaries reads the
            # summary tables through this analysis's CFGs.
            analysis = project.analysis(options)
            with project.stats.phase("pass2_wall"):
                result = analysis.run(extensions)
            if "summaries" in args.dump:
                from repro.driver.dump import dump_summaries

                for ext_name, table in result.tables.items():
                    print("### summaries for %s" % ext_name, file=sys.stderr)
                    print(dump_summaries(analysis, table), file=sys.stderr)
        reports.extend(result.reports)

    if "pairs" in args.infer:
        from repro.checkers import infer_pairs, make_pair_checker

        pairs = [
            p
            for p in infer_pairs(project.callgraph)
            if p.z_score >= args.min_z and p.counterexamples > 0
        ]
        for pair in pairs:
            print(
                "# inferred rule: %s() must be followed by %s() "
                "(e=%d c=%d z=%.2f)"
                % (pair.first, pair.second, pair.examples,
                   pair.counterexamples, pair.z_score),
                file=sys.stderr,
            )
            pair_result = project.run(make_pair_checker(pair.first, pair.second),
                                      options)
            reports.extend(pair_result.reports)
    if "retcheck" in args.infer:
        from repro.checkers import report_deviant_sites

        reports.extend(
            report_deviant_sites(project.callgraph, min_z=args.min_z)
        )
    if "nullarg" in args.infer:
        from repro.checkers import report_null_argument_sites

        reports.extend(
            report_null_argument_sites(project.callgraph, min_z=args.min_z)
        )
    if args.triage_suppress:
        # Record first, then let the fresh entry suppress in this very
        # run (--triage-suppress HASH + re-run in one invocation).
        _triage_record_mode(parser, args, resources)

    reports, __, docs = run_pipeline(
        reports, _pipeline_config(args), project.stats,
        backend=project.store_backend, callgraph=project.callgraph,
        log=result.log if result is not None else None,
        meta={"checkers": sorted(args.checker), "rank": args.rank}
        if args.record_run else None,
        say=_warn,
    )

    if args.report_json:
        from repro.driver.dump import reports_to_json

        project.stats.add("report_json_dumps")
        with project.stats.phase("report_json"):
            payload = reports_to_json(reports, docs=docs)
            if args.report_json == "-":
                print(payload)
            else:
                with open(args.report_json, "w") as handle:
                    handle.write(payload + "\n")

    if result is not None and result.degraded:
        # Engine-level degradations (abandoned roots) join the driver's
        # own (workers, cache, units) so --stats/--stats-json enumerate
        # everything the run survived.
        project.stats.record_engine_degradations(result.degraded)
        for entry in result.degraded:
            print("xgcc: degraded: %s" % entry.describe(), file=sys.stderr)

    with project.stats.phase("render"):
        if args.format == "json":
            from repro.driver.dump import reports_to_json

            print(reports_to_json(reports, docs=docs))
        else:
            from repro.driver.dump import render_reports

            sys.stdout.write(render_reports(reports, trace=args.trace))
    project.stats.account_run(time.perf_counter() - started)
    if args.stats:
        if result is not None:
            for key, value in sorted(result.stats.items()):
                print("# %s = %s" % (key, value), file=sys.stderr)
        for line in project.stats.format_lines():
            print("# %s" % line, file=sys.stderr)
    if args.stats_json:
        project.stats.dump_json(
            args.stats_json,
            extra={"engine": dict(result.stats) if result is not None else {}},
        )
    return 1 if reports else 0


if __name__ == "__main__":
    entry_point()
