"""Parallel scheduling for both driver passes (§6 at scale).

Pass 1 is embarrassingly parallel: each file is preprocessed, parsed, and
emitted in isolation, so :func:`compile_files_into` fans the per-file work
out over a ``ProcessPoolExecutor`` and registers results in input order --
serial and parallel runs build byte-identical projects.

Pass 2 parallelism rides on a structural fact: the DFS never follows a
call edge out of a weakly-connected call-graph component, so components
can be analyzed in separate worker processes with the full engine
(summaries, false-path pruning, composition all intact).  Components
are packed into at most one task per worker.  The parent
merges worker logs back into the *serial* report order using the per-root
spans the engine records (:attr:`repro.engine.analysis.Analysis.root_spans`),
so parallel runs produce the same reports in the same order.

Both passes degrade instead of dying (docs/DRIVER.md, "Degradation
semantics"):

- A worker that crashes, is killed, or exceeds ``worker_timeout`` is
  retried once in a fresh pool; if that also fails, its work order runs
  in-process.  Every recovery is counted and recorded in the driver
  stats' degradation list.
- A corrupt cache entry (checksum mismatch, version skew, unreadable
  pickle) is evicted and its file re-parsed rather than poisoning the
  run.
- Extensions hold Python callables (checker actions are lambdas), which
  do not pickle; workers therefore rebuild them from an
  ``extension_factory`` -- any picklable zero-argument callable -- or
  from a pickle of the extension list when that happens to work.  When
  neither does, the run falls back to serial, and the reason (the actual
  pickling error, not a silent swallow) lands in the stats.
"""

import os
import pickle
import time

from repro import faults
from repro.driver import cache as astcache
from repro.driver import store as storemod


def _read_source(path):
    with open(path) as handle:
        return handle.read()


# -- fault-tolerant pool scheduling -------------------------------------------


def _pickle_error(obj):
    """The exception pickling ``obj`` raises, or None when it ships."""
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as err:
        return err
    return None


def _shutdown_pool(pool, kill=False):
    """Shut a pool down; ``kill`` terminates workers first (the only way
    to reclaim a worker stuck in a hung task)."""
    if kill:
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:
                pass
    pool.shutdown(wait=not kill, cancel_futures=True)


def run_tasks_with_recovery(tasks, worker, jobs, stats, label,
                            timeout=None, keep_going=False):
    """Run work orders over a process pool with crash/hang recovery.

    Scheduling is one batch wave plus containment: the batch runs
    everything at ``jobs`` width; a task whose worker died (or timed out
    after ``timeout`` seconds) is retried once in its own fresh
    single-worker pool, so a deterministic crasher cannot take anything
    else down with it; a task that fails both times runs in-process.
    One worker crash can still break the whole batch pool
    (``BrokenProcessPool`` hits every in-flight future), so neighbouring
    tasks may ride through the retry path as collateral -- they recover
    in their isolated pools, and each failure's actual exception is
    recorded in the stats degradation list.

    Returns ``{task.index: result}``.  An in-process failure propagates,
    unless ``keep_going`` is set, in which case the task's result is
    None and a "unit" degradation is recorded.
    """
    # Imported here, where a pool is made: ``concurrent.futures``
    # brings ``multiprocessing`` with it, which a serial run never uses.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout

    results = {}
    notes = {}
    batch_failures = {}
    timed_out = False
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    try:
        futures = [(task, pool.submit(worker, task)) for task in tasks]
        for task, future in futures:
            try:
                results[task.index] = future.result(timeout=timeout)
            except Exception as err:
                timed_out = timed_out or isinstance(err, FutureTimeout)
                batch_failures[task.index] = err
    finally:
        _shutdown_pool(pool, kill=timed_out)

    pending = []
    for task in tasks:
        err = batch_failures.get(task.index)
        if err is None:
            continue
        stats.add("%s_worker_failures" % label)
        stats.add("%s_worker_retries" % label)
        notes[task.index] = "%s task %s worker failed: %r" % (
            label, task.index, err,
        )
        retry_pool = ProcessPoolExecutor(max_workers=1)
        retry_timed_out = False
        try:
            results[task.index] = retry_pool.submit(worker, task).result(
                timeout=timeout
            )
            notes[task.index] += "; recovered on retry"
        except Exception as retry_err:
            retry_timed_out = isinstance(retry_err, FutureTimeout)
            stats.add("%s_worker_failures" % label)
            notes[task.index] += "; retry failed: %r" % retry_err
            pending.append(task)
        finally:
            _shutdown_pool(retry_pool, kill=retry_timed_out)

    for task in pending:
        stats.add("%s_inprocess_fallbacks" % label)
        try:
            results[task.index] = worker(task)
            notes[task.index] += "; recovered in-process"
        except Exception as err:
            if not keep_going:
                stats.record_degradation("worker", notes.pop(task.index))
                raise
            notes[task.index] += "; in-process run failed: %r" % err
            stats.add("%s_tasks_skipped" % label)
            stats.record_degradation(
                "unit", "%s task %s skipped: %r" % (label, task.index, err)
            )
            results[task.index] = None
    for index in sorted(notes):
        stats.record_degradation("worker", notes[index])
    return results


# -- pass 1 -------------------------------------------------------------------


class Pass1Task:
    """One file's pass-1 work order, shipped to a worker.

    ``store_url`` (a string) travels to pooled workers, which build (and
    memoize) their own backend connection; ``store`` carries a live
    backend object only for in-process execution -- it must stay None
    when the task crosses a process boundary (sockets do not pickle).
    """

    __slots__ = ("index", "path", "include_paths", "defines", "cache_dir",
                 "emit_dir", "file_reader", "store_url", "store")

    def __init__(self, index, path, include_paths, defines, cache_dir,
                 emit_dir, file_reader, store_url=None, store=None):
        self.index = index
        self.path = path
        self.include_paths = include_paths
        self.defines = defines
        self.cache_dir = cache_dir
        self.emit_dir = emit_dir
        self.file_reader = file_reader
        self.store_url = store_url
        self.store = store

    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["store"] = None  # live backends never cross processes
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


class Pass1Result:
    """What comes back: a cache hit (local payload path and/or the frame
    bytes fetched from a remote store) or a freshly parsed unit (shipped
    back through the pool's own pickling).

    ``deps`` are the absolute paths the file's preprocess read (itself
    included); ``record_key`` names its dependency record when caching
    is on, ``fast`` says the record let it skip preprocessing, and
    ``record_error`` describes a corrupt record the worker evicted.
    """

    __slots__ = ("index", "filename", "status", "key", "cache_path", "unit",
                 "source_bytes", "emitted_bytes", "timings", "pid", "data",
                 "deps", "record_key", "fast", "record_error", "tokens_lexed")

    def __init__(self, index, filename, status, key, cache_path, unit,
                 source_bytes, emitted_bytes, timings, pid, data=None,
                 deps=(), record_key=None, fast=False, record_error=None,
                 tokens_lexed=0):
        self.index = index
        self.filename = filename
        self.status = status  # "hit" | "parsed"
        self.key = key
        self.cache_path = cache_path
        self.unit = unit
        self.source_bytes = source_bytes
        self.emitted_bytes = emitted_bytes
        self.timings = timings
        self.pid = pid
        self.data = data
        self.deps = deps
        self.record_key = record_key
        self.fast = fast
        self.record_error = record_error
        self.tokens_lexed = tokens_lexed


#: Per-process backend memo: a pooled worker keeps one live store
#: connection per (cache_dir, store_url) across all its tasks.
_WORKER_STORES = {}


def _worker_store(cache_dir, store_url):
    memo_key = (cache_dir, store_url)
    backend = _WORKER_STORES.get(memo_key)
    if backend is None:
        backend = storemod.open_store(
            cache_dir=cache_dir, store_url=store_url
        )
        _WORKER_STORES[memo_key] = backend
    return backend


def _dep_paths(path, probes):
    """Absolute paths of the source file and of every probed path that
    was actually read (``probes`` pairs each path with its text or
    digest, None when absent)."""
    return tuple([os.path.abspath(path)] + [
        os.path.abspath(dep) for dep, found in probes if found is not None
    ])


def _unchanged(dependencies, read):
    """True when every recorded path still reads to its recorded digest
    (or is still absent).  Stops at the first difference: up to there a
    preprocess would have probed exactly the same paths."""
    for path, digest in dependencies:
        try:
            text = read(path)
        except (OSError, KeyError):
            text = None
        if digest != (None if text is None else astcache.content_digest(text)):
            return False
    return True


def _hit_result(task, store, key, timings, **extra):
    """The pass-1 result of an AST-tier hit on ``key``, or None on a
    miss."""
    data, hit_path = store.fetch(key)
    if data is None and hit_path is None:
        return None
    if hit_path is not None:
        try:
            emitted = os.path.getsize(hit_path)
        except OSError:
            emitted = len(data or b"")
    else:
        emitted = len(data)
    return Pass1Result(
        index=task.index, filename=task.path, status="hit", key=key,
        cache_path=hit_path, unit=None, source_bytes=None,
        emitted_bytes=emitted, timings=timings, pid=os.getpid(), data=data,
        **extra
    )


def pass1_worker(task):
    """Record probe -> preprocess -> cache probe -> parse -> emit for
    one file.

    Runs in a worker process (or inline for ``jobs=1``).  With a cache,
    the worker first fetches the file's dependency record by its source
    key.  When every path the record lists still reads the same, the
    record's token key is probed directly, and a hit skips the
    preprocess as well as the parse.  Anything else -- no record, a
    changed or corrupt one, an AST frame gone -- takes the full path:
    preprocess, probe the token key (header edits must invalidate
    dependents), parse on a miss, and (re)write the record.
    """
    from repro.cfront.preproc import Preprocessor

    faults.at_worker_entry("pass1.worker", key=task.path)
    timings = {}
    read = task.file_reader or _read_source
    start = time.perf_counter()
    text = read(task.path)

    store = record_key = record_error = None
    if task.cache_dir or task.store_url:
        backend = task.store or _worker_store(task.cache_dir, task.store_url)
        store = astcache.AstCache(backend=backend)
        record_key = astcache.source_key(
            task.path, text, task.include_paths, task.defines
        )
        try:
            record = store.fetch_record(record_key)
        except astcache.CacheCorruption as err:
            store.evict(record_key)
            record, record_error = None, str(err)
        fresh = record is not None and _unchanged(record[1], read)
        timings["source_probe"] = time.perf_counter() - start
        if fresh:
            key, dependencies = record
            result = _hit_result(
                task, store, key, timings,
                deps=_dep_paths(task.path, dependencies),
                record_key=record_key, fast=True,
            )
            if result is not None:
                return result
        start = time.perf_counter()

    pp = Preprocessor(task.include_paths, task.defines, task.file_reader)
    tokens = pp.preprocess_text(text, task.path)
    timings["preprocess"] = time.perf_counter() - start
    timings["lex"] = pp.lex_s
    deps = _dep_paths(task.path, pp.dependencies.items())

    key = None
    if store is not None:
        dependencies = [
            (path, None if dep is None else astcache.content_digest(dep))
            for path, dep in pp.dependencies.items()
        ]
        key = astcache.cache_key(
            task.path, tokens, task.include_paths, task.defines
        )
        result = _hit_result(
            task, store, key, timings, deps=deps, record_key=record_key,
            record_error=record_error, tokens_lexed=pp.tokens_lexed,
        )
        if result is not None:
            store.store_record(record_key, key, dependencies)
            return result

    from repro.cfg.fingerprint import stamp_unit
    from repro.cfront.parser import Parser

    faults.check("pass1.parse", key=task.path)
    start = time.perf_counter()
    parser = Parser(None, task.path, tokens=tokens)
    unit = parser.parse_translation_unit()
    unit.filename = task.path
    stamp_unit(unit)
    timings["parse"] = time.perf_counter() - start

    start = time.perf_counter()
    source_bytes = len(text.encode())
    payload = astcache.pack_unit(unit, source_bytes)
    if store is not None:
        store.store(key, payload)
        store.store_record(record_key, key, dependencies)
    if task.emit_dir:
        os.makedirs(task.emit_dir, exist_ok=True)
        out = os.path.join(
            task.emit_dir, os.path.basename(task.path) + ".ast"
        )
        with open(out, "wb") as handle:
            handle.write(payload)
    timings["emit"] = time.perf_counter() - start

    return Pass1Result(
        index=task.index, filename=task.path, status="parsed", key=key,
        cache_path=None, unit=unit, source_bytes=source_bytes,
        emitted_bytes=len(payload), timings=timings, pid=os.getpid(),
        deps=deps, record_key=record_key, record_error=record_error,
        tokens_lexed=pp.tokens_lexed,
    )


def compile_files_into(project, paths, jobs=1, worker_timeout=None):
    """Run pass 1 for ``paths`` into ``project``; returns CompiledUnits."""
    paths = list(paths)
    tasks = [
        Pass1Task(
            index, path, project.include_paths, project.defines,
            project.cache_dir, project.emit_dir, project.file_reader,
            store_url=getattr(project, "store_url", None),
        )
        for index, path in enumerate(paths)
    ]
    stats = project.stats
    keep_going = getattr(project, "keep_going", False)
    use_pool = bool(jobs and jobs > 1 and len(tasks) > 1)
    if use_pool:
        err = _pickle_error(tasks[0])
        if err is not None:
            stats.add("pass1_serial_fallback")
            stats.record_degradation(
                "pickle",
                "pass-1 tasks do not pickle (%r); running serially" % err,
            )
            use_pool = False
    if not use_pool:
        # In-process execution shares the project's live backend (one
        # socket, one overlay) instead of rebuilding one per task.
        backend = getattr(project, "store_backend", None)
        if backend is not None:
            for task in tasks:
                task.store = backend
    start = time.perf_counter()
    if use_pool:
        results = run_tasks_with_recovery(
            tasks, pass1_worker, jobs, stats, "pass1",
            timeout=worker_timeout, keep_going=keep_going,
        )
    else:
        results = {}
        for task in tasks:
            try:
                results[task.index] = pass1_worker(task)
            except Exception as err:
                if not keep_going:
                    raise
                stats.add("pass1_tasks_skipped")
                stats.record_degradation(
                    "unit",
                    "%s failed pass 1 (%r); unit skipped" % (task.path, err),
                )
                results[task.index] = None
    stats.add_time("pass1_wall", time.perf_counter() - start)

    backend = getattr(project, "store_backend", None)
    if backend is not None and getattr(backend, "prefers_batch", False):
        # Pooled workers touched their own connections per task; fold
        # the hit keys into one batched remote touch so store GC sees
        # warm use without a round trip per file.
        hit_keys = sorted(
            key for result in results.values()
            if result is not None and result.status == "hit"
            for key in (result.key, result.record_key) if key
        )
        if hit_keys:
            try:
                backend.touch_many("ast", hit_keys)
            except storemod.StoreError:
                pass

    compiled = []
    for task in tasks:
        result = results.get(task.index)
        if result is None:
            continue
        compiled.append(_absorb(project, task, result))
    return compiled


def _absorb(project, task, result):
    """Register one worker result with the parent project (input order).

    Cache hits are verified here (checksum + parser version); a corrupt
    entry is evicted, recorded as a degradation, and its file re-parsed
    in-process -- a poisoned cache can slow a run down but never crash it
    or alter its reports.
    """
    from repro.driver.project import CompiledUnit

    stats = project.stats
    stats.count_worker_task(result.pid)
    stats.merge_timings(result.timings)
    if result.tokens_lexed:
        stats.add("tokens_lexed", result.tokens_lexed)
    if result.record_error is not None:
        stats.add("cache_evictions")
        stats.record_degradation(
            "cache",
            "%s: corrupt dependency record (%s); evicted and preprocessed"
            % (result.filename, result.record_error),
        )
    if result.status == "hit":
        try:
            if result.cache_path is not None:
                with open(result.cache_path, "rb") as handle:
                    data = handle.read()
            elif result.data is not None:
                data = result.data
            else:
                raise astcache.CacheCorruption("hit carried no payload")
            unit, source_bytes = astcache.unpack(data)
        except (OSError, astcache.CacheCorruption) as err:
            stats.add("cache_evictions")
            stats.record_degradation(
                "cache",
                "%s: corrupt cache entry (%s); evicted and re-parsed"
                % (result.filename, err),
            )
            backend = getattr(project, "store_backend", None)
            if backend is not None:
                astcache.AstCache(backend=backend).evict(result.key)
            elif task.cache_dir:
                astcache.AstCache(task.cache_dir).evict(result.key)
            # The entry is gone, so this re-run parses (and re-stores a
            # good entry): recursion depth is bounded at one.  The
            # re-run happens in-process, so hand it the live backend.
            prior = task.store
            task.store = backend or prior
            try:
                return _absorb(project, task, pass1_worker(task))
            finally:
                task.store = prior
        stats.add("cache_hits")
        if result.cache_path is not None:
            astcache.touch_entry(result.cache_path)
        compiled = CompiledUnit(
            result.filename, unit, source_bytes, len(data), from_cache=True,
            deps=result.deps,
        )
    else:
        stats.add("parses")
        if project.cache_dir:
            stats.add("cache_misses")
        compiled = CompiledUnit(
            result.filename, result.unit, result.source_bytes,
            result.emitted_bytes, deps=result.deps,
        )
    project.compiled.append(compiled)
    project._register(compiled.unit, compiled.filename)
    keys = [key for key in (result.record_key, result.key) if key]
    if result.record_key:
        stats.add("ast_fast_hits" if result.fast else "ast_fast_misses")
    if keys:
        project.ast_keys_used[result.filename] = keys
    return compiled


# -- pass 2 -------------------------------------------------------------------


class ExtensionSpec:
    """A worker-rebuildable description of the extension list."""

    __slots__ = ("factory", "pickled")

    def __init__(self, factory=None, pickled=None):
        self.factory = factory
        self.pickled = pickled

    @classmethod
    def capture(cls, extensions, factory=None, stats=None):
        """Build a spec, or return None when nothing ships to workers
        (recording the actual pickling failure in ``stats``)."""
        if factory is not None:
            err = _pickle_error(factory)
            if err is None:
                return cls(factory=factory)
            if stats is not None:
                stats.record_degradation(
                    "pickle",
                    "extension_factory does not pickle (%r); "
                    "running pass 2 serially" % err,
                )
            return None
        try:
            data = pickle.dumps(list(extensions), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            if stats is not None:
                stats.record_degradation(
                    "pickle",
                    "extensions do not pickle (%r) and no factory was "
                    "given; running pass 2 serially" % err,
                )
            return None
        return cls(pickled=data)

    def build(self):
        if self.factory is not None:
            extensions = self.factory()
            if not isinstance(extensions, (list, tuple)):
                extensions = [extensions]
            return list(extensions)
        return pickle.loads(self.pickled)


class Pass2Task:
    """The analysis work order for one batch of call-graph components.

    ``roots`` is None for a full run, or the sorted subset of the
    batch's roots the incremental scheduler wants re-analyzed.
    """

    __slots__ = ("index", "decls", "static_vars", "options", "spec", "roots")

    def __init__(self, index, decls, static_vars, options, spec, roots=None):
        self.index = index
        self.decls = decls
        self.static_vars = static_vars
        self.options = options
        self.spec = spec
        self.roots = roots


class Pass2Result:
    """A worker's mergeable analysis outcome."""

    __slots__ = ("index", "reports", "spans", "examples", "counterexamples",
                 "stats", "timers", "truncated", "degraded", "artifacts",
                 "coupled", "pid")

    def __init__(self, index, reports, spans, examples, counterexamples,
                 stats, timers, truncated, degraded, artifacts, coupled, pid):
        self.index = index
        self.reports = reports
        self.spans = spans
        self.examples = examples
        self.counterexamples = counterexamples
        self.stats = stats
        self.timers = timers
        self.truncated = truncated
        self.degraded = degraded
        self.artifacts = artifacts
        self.coupled = coupled
        self.pid = pid


def pass2_worker(task):
    """Run the full Analysis DFS over one batch of components."""
    from repro.cfg.callgraph import CallGraph
    from repro.driver.stats import DriverStats
    from repro.engine.analysis import Analysis

    faults.at_worker_entry("pass2.worker", key=task.index)
    faults.check("pass2.analysis", key=task.index)
    graph = CallGraph()
    for decl in task.decls:
        graph.add_function(decl)
    graph.link()
    stats = DriverStats()
    analysis = Analysis(
        callgraph=graph,
        options=task.options,
        static_vars=task.static_vars,
        phase_timer=stats.phase,
    )
    result = analysis.run(task.spec.build(), roots=task.roots)
    return Pass2Result(
        index=task.index,
        reports=list(result.log.reports),
        spans=list(analysis.root_spans),
        examples=result.log.examples,
        counterexamples=result.log.counterexamples,
        stats=result.stats,
        timers=stats.timers,
        truncated=result.truncated,
        degraded=list(result.degraded),
        artifacts=list(result.root_artifacts),
        coupled=result.coupled,
        pid=os.getpid(),
    )


def pack_components(components, bins):
    """Deal ``components`` into at most ``bins`` batches of about equal
    size (largest first, each to the lightest batch), each batch in the
    given order.  One pool task per batch, not per component: a task
    rebuilds the extensions, which costs more than most components.
    """
    loads = [0] * min(bins, len(components))
    batches = [[] for __ in loads]
    for index in sorted(range(len(components)),
                        key=lambda index: -len(components[index])):
        lightest = loads.index(min(loads))
        loads[lightest] += len(components[index])
        batches[lightest].append(index)
    return [[components[index] for index in sorted(batch)]
            for batch in batches]


def run_parallel(project, extensions, options=None, jobs=1,
                 extension_factory=None, worker_timeout=None, roots=None):
    """Pass-2 parallel scheduling over call-graph components, packed
    into at most ``jobs`` tasks (:func:`pack_components`).

    Deterministic by construction: the parent walks extensions in order
    and the *global* sorted root list (exactly the serial iteration
    order), appending each root's report span from whichever worker
    analyzed its component.  Falls back to a serial run when there is
    nothing to parallelize or the extensions cannot be shipped; a
    crashed, killed, or hung worker is retried once and then its
    components are analyzed in-process (see run_tasks_with_recovery).

    ``roots`` restricts the run to a subset of roots (incremental
    dirty-cone scheduling): components containing none of them are not
    scheduled at all.
    """
    from repro.engine.analysis import AnalysisOptions

    if not isinstance(extensions, (list, tuple)):
        extensions = [extensions]
    stats = project.stats
    graph = project.callgraph
    components = graph.components()
    if roots is not None:
        wanted = set(roots)
        components = [
            component for component in components
            if wanted.intersection(component)
        ]
    spec = ExtensionSpec.capture(extensions, extension_factory, stats=stats)
    if spec is None:
        stats.add("pass2_serial_fallback")
    if spec is None or jobs <= 1 or len(components) <= 1 or not extensions:
        with stats.phase("pass2_wall"):
            return project.analysis(options).run(extensions, roots=roots)

    options = options or AnalysisOptions()
    static_vars = dict(project.static_vars)
    tasks = []
    for index, batch in enumerate(pack_components(components, jobs)):
        names = [name for component in batch for name in component]
        tasks.append(Pass2Task(
            index,
            [graph.functions[name] for name in names],
            static_vars,
            options,
            spec,
            roots=None if roots is None else sorted(wanted.intersection(names)),
        ))
    stats.add("pass2_components", len(components))
    stats.add("pass2_tasks", len(tasks))
    start = time.perf_counter()
    results_map = run_tasks_with_recovery(
        tasks, pass2_worker, jobs, stats, "pass2", timeout=worker_timeout
    )
    stats.add_time("pass2_wall", time.perf_counter() - start)
    results = [results_map[index] for index in sorted(results_map)]

    return merge_results(project, extensions, results)


def merge_results(project, extensions, results):
    """Deterministically merge worker outcomes into one AnalysisResult."""
    from repro.engine.analysis import AnalysisResult
    from repro.engine.errors import ErrorLog

    stats = project.stats
    span_owner = {}
    for result in results:
        stats.count_worker_task(result.pid)
        stats.merge_timings(result.timers)
        for ext_index, root, begin, end in result.spans:
            span_owner[(ext_index, root)] = (result, begin, end)

    log = ErrorLog()
    roots = project.callgraph.roots()
    for ext_index in range(len(extensions)):
        for root in roots:
            owned = span_owner.get((ext_index, root))
            if owned is None:
                continue
            result, begin, end = owned
            for report in result.reports[begin:end]:
                log.add(report)
    for result in results:
        for rule_id, sites in result.examples.items():
            log.examples.setdefault(rule_id, set()).update(sites)
        for rule_id, sites in result.counterexamples.items():
            log.counterexamples.setdefault(rule_id, set()).update(sites)

    merged_stats = {}
    for result in results:
        for name, value in result.stats.items():
            merged_stats[name] = merged_stats.get(name, 0) + value
    merged_stats["errors"] = len(log)
    truncated = any(result.truncated for result in results)
    degraded = []
    for result in results:
        degraded.extend(result.degraded)
    # Per-root artifacts are independent by construction (root-scoped
    # dedup), so concatenating worker captures in serial (extension,
    # root) order reproduces exactly what a serial capture run records.
    artifacts = sorted(
        (artifact for result in results for artifact in result.artifacts),
        key=lambda artifact: (artifact.ext_index, artifact.root),
    )
    coupled = any(result.coupled for result in results)
    # Block/suffix summary tables are per-worker (keyed on worker-local
    # block objects) and are not reassembled across processes; use a
    # serial run when Figure-5-style summary dumps are needed.
    return AnalysisResult(log, {}, merged_stats, truncated, degraded=degraded,
                          root_artifacts=artifacts, coupled=coupled)
