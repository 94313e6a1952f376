"""Parallel pass 1 (§6 at scale).

Pass 1 is embarrassingly parallel: each file is preprocessed, parsed, and
emitted in isolation, so :func:`compile_files_into` fans the per-file work
out over a ``ProcessPoolExecutor`` and registers results in input order --
serial and parallel runs build byte-identical projects.  Pass 2 runs in
the parent, over the reassembled source (docs/DRIVER.md, "Pass 2 is
serial").

Pass 1 degrades instead of dying (docs/DRIVER.md, "Degradation
semantics"):

- A worker that crashes, is killed, or exceeds ``worker_timeout`` is
  retried once in a fresh pool; if that also fails, its file is compiled
  in-process.  Every recovery is counted and recorded in the driver
  stats' degradation list.
- A corrupt cache entry (checksum mismatch, version skew, unreadable
  pickle) is evicted and its file re-parsed rather than poisoning the
  run.
- Tasks that do not pickle run serially, and the reason (the actual
  pickling error, not a silent swallow) lands in the stats.
"""

import itertools
import os
import pickle
import time

from repro import faults
from repro.cfront.source import SourceError, read_source
from repro.driver import cache as astcache
from repro.driver import store as storemod


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
                 "emit_dir", "file_reader", "store_url", "store", "batch")

    def __init__(self, index, path, include_paths, defines, cache_dir,
                 emit_dir, file_reader, store_url=None, store=None,
                 batch=None):
        self.index = index
        self.path = path
        self.include_paths = include_paths
        self.defines = defines
        self.cache_dir = cache_dir
        self.emit_dir = emit_dir
        self.file_reader = file_reader
        self.store_url = store_url
        self.store = store
        #: The token of the :func:`compile_files_into` call this task
        #: belongs to (see :func:`_batch_digests`).
        self.batch = batch

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


#: ``(batch token, {path: digest or None})``: the dependency digests the
#: current pass-1 batch has read in this process (a pooled worker keeps
#: it across the tasks of one batch, as it keeps its store connection).
_batch_memo = (None, {})

#: Distinguishes the batches of one process.
_BATCH_COUNTER = itertools.count()


def _batch_digests(batch):
    """The digest memo of one :func:`compile_files_into` call in this
    process, empty when the call is new: files that many units include
    are read and hashed once per call, and a later call (a daemon's
    next burst) reads every file again, so it sees edits.  A task that
    belongs to no call (``batch`` None) gets a memo of its own."""
    global _batch_memo
    token, digests = _batch_memo
    if batch is None or token != batch:
        digests = {}
        _batch_memo = (batch, digests)
    return digests


def _unchanged(dependencies, read, digests):
    """True when every recorded path still reads to its recorded digest
    (or is still absent).  Stops at the first difference: up to there a
    preprocess would have probed exactly the same paths.  ``digests``
    memoizes each path's current digest."""
    for path, digest in dependencies:
        if path not in digests:
            try:
                digests[path] = astcache.content_digest(read(path))
            except (OSError, KeyError, ValueError, SourceError):
                digests[path] = None
        if digest != digests[path]:
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
    read = task.file_reader or read_source
    start = time.perf_counter()
    text = read(task.path)

    store = record_key = record_error = None
    if task.cache_dir or task.store_url:
        backend = task.store or _worker_store(task.cache_dir, task.store_url)
        store = astcache.AstCache(backend)
        record_key = astcache.source_key(
            task.path, text, task.include_paths, task.defines
        )
        try:
            record = store.fetch_record(record_key)
        except astcache.CacheCorruption as err:
            store.evict(record_key)
            record, record_error = None, str(err)
        fresh = record is not None and _unchanged(
            record[1], read, _batch_digests(task.batch))
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
    emitted_bytes = None  # no reader: CompiledUnit sizes it on demand
    if store is not None or task.emit_dir:
        payload = astcache.pack_unit(unit, source_bytes)
        emitted_bytes = len(payload)
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
        emitted_bytes=emitted_bytes, timings=timings, pid=os.getpid(),
        deps=deps, record_key=record_key, record_error=record_error,
        tokens_lexed=pp.tokens_lexed,
    )


def compile_files_into(project, paths, jobs=1, worker_timeout=None,
                       file_reader=None):
    """Run pass 1 for ``paths`` into ``project``; returns CompiledUnits.
    ``file_reader`` overrides the project's reader for this batch."""
    paths = list(paths)
    batch = "%d.%d" % (os.getpid(), next(_BATCH_COUNTER))
    tasks = [
        Pass1Task(
            index, path, project.include_paths, project.defines,
            project.cache_dir, project.emit_dir,
            file_reader or project.file_reader,
            store_url=getattr(project, "store_url", None), batch=batch,
        )
        for index, path in enumerate(paths)
    ]
    stats = project.stats
    stats.add("ast_units_loaded", 0)  # an explicit zero on warm runs
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
    stats.add_time("pass1_wall", time.perf_counter() - start)
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
            compiled = CompiledUnit.from_frame(data, deps=result.deps)
        except (OSError, astcache.CacheCorruption) as err:
            stats.add("cache_evictions")
            stats.record_degradation(
                "cache",
                "%s: corrupt cache entry (%s); evicted and re-parsed"
                % (result.filename, err),
            )
            backend = getattr(project, "store_backend", None)
            if backend is not None:
                astcache.AstCache(backend).evict(result.key)
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
    else:
        stats.add("parses")
        if project.cache_dir:
            stats.add("cache_misses")
        compiled = CompiledUnit(
            result.filename, result.unit, result.source_bytes,
            result.emitted_bytes, deps=result.deps,
        )
    project._register(compiled)
    keys = [key for key in (result.record_key, result.key) if key]
    if result.record_key:
        stats.add("ast_fast_hits" if result.fast else "ast_fast_misses")
    if keys:
        project.ast_keys_used[result.filename] = keys
    return compiled
