"""The two-pass analysis driver (§6).

"1. The first preprocessing pass compiles each file in isolation, emitting
ASTs to a temporary file.  These emitted files include all type
declarations, variable declarations, and code within the source file and
are typically four or five times larger than the text representation.

2. The second analysis pass reads these temporary files, reassembles
their ASTs, and constructs the CFG and call graph."

Pass 1 output is a pickle of the translation unit per file (our "emitted
AST" format); the size ratio claim is measured by
``benchmarks/bench_ast_emission.py``.

Pass 1 scales out; pass 2 does not (docs/DRIVER.md):

- :meth:`Project.compile_files` fans pass 1 over worker processes
  (``jobs=N``) and, when ``cache_dir`` is set, serves unchanged files
  from a persistent content-addressed AST cache
  (:mod:`repro.driver.cache`) instead of re-parsing them.
- :meth:`Project.run` analyzes in this process, in one DFS over the
  reassembled source base, as the paper's xgcc does: ``--jobs`` buys
  pass-1 workers only ("Pass 2 is serial").
"""

import time

from repro.cfront.source import read_source
from repro.cfg.callgraph import CallGraph
from repro.driver import cache as astcache
from repro.driver import store as storemod
from repro.driver.stats import DriverStats
from repro.engine.analysis import Analysis, AnalysisOptions
from repro.cfront import astnodes as ast


class CompiledUnit:
    """Pass-1 output for one source file.

    ``deps`` are the absolute paths its preprocess read, the file itself
    included (the analysis daemon's include-dependency set).

    A unit served from an AST frame (:meth:`from_frame`) holds the
    frame's decl index and the verified frame bytes: the body is
    unpickled, through :func:`repro.driver.cache.unpack`, the first time
    :attr:`unit` or one of its decls is asked for, and kept from then on.
    Function names, locations, hashes, callees and the file-scope
    statics come from the index and never load it.  ``stats`` (the
    registering project's) times each load as ``ast_load`` and counts it
    in ``ast_units_loaded``.
    """

    def __init__(self, filename, unit, source_bytes, emitted_bytes,
                 from_cache=False, deps=(), index=None, frame=None):
        self.filename = filename
        self._unit = unit
        self.source_bytes = source_bytes
        self._emitted_bytes = emitted_bytes
        self.from_cache = from_cache
        self.deps = deps
        self.index = index
        self._frame = frame
        self._functions = None
        self.stats = None

    @classmethod
    def from_frame(cls, data, deps=()):
        """A lazy unit over an AST frame; raises
        :class:`repro.driver.cache.CacheCorruption` when the frame
        cannot be trusted."""
        index = astcache.unpack_index(data)
        return cls(index.filename, None, index.source_bytes, len(data),
                   from_cache=True, deps=deps, index=index, frame=data)

    @property
    def loaded(self):
        """Whether the unit body is in memory."""
        return self._frame is None

    @property
    def unit(self):
        if self._frame is not None:
            start = time.perf_counter()
            self._unit, __ = astcache.unpack(self._frame)
            self._frame = None
            if self.stats is not None:
                self.stats.add_time("ast_load", time.perf_counter() - start)
                self.stats.add("ast_units_loaded")
        return self._unit

    def function_entries(self):
        """The unit's function definitions in order: index entries while
        the body is not loaded, else the decls themselves (both carry
        ``name``, ``location``, ``token_hash`` and ``direct_callees``)."""
        if self._frame is not None:
            return self.index.functions
        return self.unit.functions()

    def function_decl(self, position):
        """The decl of the ``position``-th definition (loads the body)."""
        if self._functions is None:
            self._functions = self.unit.functions()
        return self._functions[position]

    def static_names(self):
        """The names of the unit's file-scope ``static`` variables."""
        if self.index is not None:
            return self.index.statics
        return [decl.name for decl in self.unit.decls
                if isinstance(decl, ast.VarDecl) and decl.storage == "static"]

    @property
    def emitted_bytes(self):
        """The size of the unit's AST frame payload.  Pass 1 packs a unit
        only when a cache or an emit directory reads the bytes, so a
        unit compiled without either is packed here, once, if asked."""
        if self._emitted_bytes is None:
            self._emitted_bytes = len(
                astcache.pack_unit(self.unit, self.source_bytes))
        return self._emitted_bytes

    @property
    def expansion_ratio(self):
        if not self.source_bytes:
            return 0.0
        return self.emitted_bytes / self.source_bytes


class Project:
    """A source base under analysis."""

    def __init__(self, include_paths=(), defines=None, emit_dir=None,
                 file_reader=None, cache_dir=None, stats=None,
                 keep_going=False, store_url=None, store_backend=None):
        self.include_paths = list(include_paths)
        self.defines = dict(defines or {})
        self.emit_dir = emit_dir
        #: Persistent content-addressed AST cache directory (incremental
        #: pass 1); None disables caching.
        self.cache_dir = cache_dir
        #: Remote artifact-store URL (``--store-url`` / ``XGCC_STORE``);
        #: combined with ``cache_dir`` it forms a tiered store whose
        #: local overlay keeps warm reads off the network.
        self.store_url = store_url
        self._store_backend = store_backend
        #: CodeChecker-style per-TU recovery: when set, a file whose
        #: pass 1 fails outright (after worker retries) is skipped and
        #: recorded as a "unit" degradation instead of aborting the run.
        self.keep_going = keep_going
        #: Optional override for reading #include targets (e.g. in-memory
        #: trees from the project generator); defaults to the filesystem.
        self.file_reader = file_reader
        #: Driver observability (timers / cache counters / worker tallies).
        self.stats = stats or DriverStats()
        self.compiled = []
        self.static_vars = {}
        self._callgraph = None
        #: ``{filename: [tier-1 keys]}`` this project probed per file (hits
        #: and stores, AST frames and dependency records) -- recorded
        #: into the incremental manifest so cache GC knows which .ast
        #: frames a fresh manifest still depends on.
        self.ast_keys_used = {}

    @property
    def store_backend(self):
        """The artifact-store backend behind this project's caches
        (built lazily: local, remote, or tiered per ``cache_dir`` /
        ``store_url``); None when caching is disabled entirely."""
        if self._store_backend is None:
            self._store_backend = storemod.open_store(
                cache_dir=self.cache_dir, store_url=self.store_url,
                stats=self.stats,
            )
        return self._store_backend

    def close(self):
        """Release the store backend (a remote store's connection), if
        one was opened."""
        if self._store_backend is not None:
            self._store_backend.close()

    # -- pass 1 -----------------------------------------------------------------

    def compile_text(self, text, filename="<string>"):
        """Pass 1 for in-memory source text: :meth:`compile_files` with
        ``filename`` read as ``text`` (its headers still come from the
        project's reader)."""
        from repro.driver.parallel import compile_files_into

        read = self.file_reader or read_source

        def reader(path):
            return text if path == filename else read(path)

        return compile_files_into(self, [filename], file_reader=reader)[0]

    def compile_file(self, path):
        """Pass 1 for one on-disk file (cache-aware when cache_dir is set)."""
        return self.compile_files([path])[0]

    def compile_files(self, paths, jobs=1, worker_timeout=None):
        """Pass 1 over a batch of files, in deterministic input order.

        ``jobs > 1`` fans preprocess/parse/emit out over a process pool;
        results are registered in ``paths`` order regardless of worker
        completion order, so serial and parallel runs build identical
        projects.  With ``cache_dir`` set, unchanged files are cache hits
        (``load_emitted`` work) rather than re-parses; corrupt entries
        are evicted and re-parsed.  A worker that dies (or outlives
        ``worker_timeout`` seconds) is retried once, then its file is
        compiled in-process.
        """
        from repro.driver.parallel import compile_files_into
        return compile_files_into(
            self, paths, jobs=jobs, worker_timeout=worker_timeout
        )

    def adopt_unit(self, compiled):
        """Register an already-compiled unit (warm daemon reuse).

        The analysis daemon keeps :class:`CompiledUnit` objects for
        unchanged files pinned in memory across edit bursts; adopting
        one costs two list appends — no preprocess, no parse, no cache
        probe.  Registration order is the caller's responsibility (the
        daemon walks files in sorted order, matching a cold run).
        """
        self._register(compiled)
        self.stats.add("units_adopted")
        return compiled

    def load_emitted(self, path):
        """Pass 2 entry: reassemble a pass-1 AST file.

        Appends a :class:`CompiledUnit` (emitted size from disk, original
        source size from the payload) so ``expansion_ratio`` and
        ``total_source_bytes`` reporting stay correct for cache-hit loads.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        compiled = CompiledUnit.from_frame(data)
        self._register(compiled)
        return compiled

    def _register(self, compiled):
        self.compiled.append(compiled)
        compiled.stats = self.stats
        self._callgraph = None
        for name in compiled.static_names():
            self.static_vars[name] = compiled.filename

    @property
    def units(self):
        """Every registered translation unit, in registration order
        (loading each body not loaded yet)."""
        return [compiled.unit for compiled in self.compiled]

    # -- pass 2 ------------------------------------------------------------------

    @property
    def callgraph(self):
        if self._callgraph is None:
            with self.stats.phase("callgraph"):
                self._callgraph = CallGraph.from_units(self.compiled)
        return self._callgraph

    def analysis(self, options=None):
        """Build the analysis engine over the reassembled source base."""
        return Analysis(
            callgraph=self.callgraph,
            options=options or AnalysisOptions(),
            static_vars=self.static_vars,
            phase_timer=self.stats.phase,
        )

    def run(self, extensions, options=None, incremental=None):
        """Apply extensions to the whole project (pass 2, in this
        process; its wall time is the ``pass2_wall`` timer).

        ``incremental`` takes an :class:`repro.driver.session.
        IncrementalSession`: the session fingerprints the call graph,
        re-analyzes only the dirty cone, and replays persisted artifacts
        for everything else -- same reports, same order as a cold run.
        """
        self.callgraph  # timed on its own: built before pass 2's timer
        with self.stats.phase("pass2_wall"):
            if incremental is not None:
                return incremental.run(self, extensions, options=options)
            return self.analysis(options).run(extensions)

    # -- reporting helpers ----------------------------------------------------------

    def total_source_bytes(self):
        return sum(c.source_bytes for c in self.compiled)

    def total_functions(self):
        return sum(len(c.function_entries()) for c in self.compiled)
