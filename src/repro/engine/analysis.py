"""The xgcc analysis engine: DFS with caching (Fig. 4) plus the top-down
context-sensitive interprocedural algorithm (§6.3).

The engine applies one extension at a time to the CFG, one execution path
at a time, starting at the callgraph roots.  Composition happens across
sequential runs through the shared :class:`AnnotationStore`.
"""

import sys
import time
from contextlib import nullcontext

from repro import faults
from repro.cfront import astnodes as ast
from repro.cfg.blocks import ReturnMarker
from repro.cfg.builder import build_cfg
from repro.cfg.callgraph import CallGraph
from repro.metal.patterns import MatchContext
from repro.metal.sm import GLOBAL, PLACEHOLDER, STOP, PathSplit, StateRef
from repro.engine.composition import AnnotationStore
from repro.engine.context import ActionContext, StopPath
from repro.engine.deltas import DeltaTracker, TrackedGlobals, clone_value
from repro.engine.errors import ErrorLog
from repro.engine.falsepath import PathConstraints
from repro.engine.interproc import (
    ArgumentMap,
    collect_applicable_edges,
    partition_exit_states,
    refine,
    restore,
)
from repro.engine.kills import (
    definition_target,
    kill_for_declaration,
    kill_for_definition,
)
from repro.engine.state import SMInstance, VarInstance, state_tuples
from repro.engine.summaries import (
    TRANSITION,
    Edge,
    RootArtifact,
    SummaryTable,
    make_add_edge,
    make_transition_edge,
    relax,
)
from repro.engine.synonyms import maybe_create_synonym, mirror_transition

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))

#: ``run_one``'s live-function set before the first analyzed root.
_UNKNOWN = object()


class AnalysisOptions:
    """Engine switches.  Defaults mirror the paper's described behaviour;
    the benchmarks toggle individual pieces for ablations."""

    def __init__(
        self,
        interprocedural=True,
        false_path_pruning=True,
        kills=True,
        synonyms=True,
        caching=True,
        by_value_params=False,
        max_steps=20_000_000,
        max_steps_per_root=None,
        max_paths_per_root=None,
        max_seconds_per_root=None,
        root_error_policy="raise",
        capture_root_artifacts=False,
    ):
        self.interprocedural = interprocedural
        self.false_path_pruning = false_path_pruning
        self.kills = kills
        self.synonyms = synonyms
        self.caching = caching
        self.by_value_params = by_value_params
        self.max_steps = max_steps
        # Per-root budgets (graceful degradation): when one blows, only
        # the offending root is abandoned -- its partial reports stay in
        # the log, a DegradedRoot lands in the result, and the remaining
        # roots analyze normally.  None disables a budget.  The time
        # budget is wall-clock and therefore machine-dependent; the step
        # and path budgets are deterministic.
        self.max_steps_per_root = max_steps_per_root
        self.max_paths_per_root = max_paths_per_root
        self.max_seconds_per_root = max_seconds_per_root
        # What to do when a root raises an unexpected exception:
        # "raise" propagates (the default -- bugs in checkers or the
        # engine should be loud), "degrade" records a DegradedRoot and
        # moves on to the next root (CLI --keep-going).
        self.root_error_policy = root_error_policy
        # Incremental capture (docs/DRIVER.md): record one serializable
        # RootArtifact per (extension, root) with *root-scoped*
        # deduplication, so each root's contribution is independent of
        # which other roots ran.  The raw log then contains cross-root
        # duplicates; consumers rebuild the final log by replaying the
        # artifacts in serial order (the driver's incremental session and
        # the parallel merge both do).
        self.capture_root_artifacts = capture_root_artifacts


class AnalysisBudgetExceeded(Exception):
    """Raised internally when the global max_steps is hit; surfaced as
    truncation (every remaining root is skipped)."""


class RootBudgetExceeded(Exception):
    """Raised internally when a *per-root* budget is hit; only the
    current root is abandoned."""

    def __init__(self, kind, detail=""):
        super().__init__(kind, detail)
        self.kind = kind  # "steps" | "paths" | "time" | "injected"
        self.detail = detail


class DegradedRoot:
    """Structured record of one root the engine gave up on.

    The run itself survives: reports already emitted for this root are
    kept, and every other root is analyzed normally.  ``kind`` says why
    ("steps" / "paths" / "time" for per-root budgets, "global-steps" for
    the whole-run step ceiling, "error" for a recovered crash under
    root_error_policy="degrade", "injected" for fault injection).
    """

    __slots__ = ("root", "extension", "kind", "detail", "reports_kept")

    def __init__(self, root, extension, kind, detail="", reports_kept=0):
        self.root = root
        self.extension = extension
        self.kind = kind
        self.detail = detail
        self.reports_kept = reports_kept

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)

    def as_dict(self):
        return {
            "root": self.root,
            "extension": self.extension,
            "kind": self.kind,
            "detail": self.detail,
            "reports_kept": self.reports_kept,
        }

    def describe(self):
        text = "root %s (%s): %s" % (self.root, self.extension, self.kind)
        if self.detail:
            text += " -- %s" % self.detail
        return text

    def __repr__(self):
        return "<DegradedRoot %s>" % self.describe()


class AnalysisResult:
    """The outcome of applying extensions to a source base."""

    def __init__(self, log, tables, stats, truncated=False, degraded=None,
                 root_artifacts=None):
        self.log = log
        self.tables = tables  # extension name -> SummaryTable
        self.stats = stats
        self.truncated = truncated
        #: :class:`DegradedRoot` entries -- roots abandoned mid-run while
        #: the rest of the analysis completed (empty on a clean run).
        self.degraded = list(degraded or [])
        #: Per-(extension, root) :class:`RootArtifact` records, captured
        #: only under ``AnalysisOptions.capture_root_artifacts``.
        self.root_artifacts = list(root_artifacts or [])
        # Every driver path (serial, parallel, incremental replay, daemon)
        # finalizes its report set here, so stable hashes are assigned in
        # exactly one place -- over the canonical serial order the log
        # guarantees (occurrence ordinals depend on it).
        from repro.reports.hashing import assign_report_hashes

        assign_report_hashes(self.log.reports)

    @property
    def reports(self):
        return self.log.reports

    def reports_for(self, checker_name):
        return [r for r in self.log.reports if r.checker == checker_name]

    def __repr__(self):
        return "<AnalysisResult %d reports, stats=%r>" % (len(self.log), self.stats)


class _FunctionContext:
    """Per-function data the traversal needs."""

    def __init__(self, name, cfg):
        self.name = name
        self.cfg = cfg
        self.param_names = {p.name for p in cfg.decl.params if p.name}
        self.local_names = cfg.local_names()
        self.pure_locals = self.local_names - self.param_names
        self.file = cfg.decl.location.filename
        # Summaries live only at heads; a run ends at a block with no or a
        # head successor (docs/ENGINE.md, "Summaries").
        self.heads = {id(cfg.entry)} | {
            id(block) for block in cfg.blocks if len(block.preds) > 1}
        self.run_ends = {
            id(block) for block in cfg.blocks if not block.edges or any(
                id(edge.target) in self.heads for edge in block.edges)}

    def local_edge_filter(self, edge):
        """Suffix-summary filter: drop edges on function-local objects
        ("the analysis would never use these edges", Fig. 5)."""
        snapshot = edge.end_snapshot
        if snapshot is None:
            return False
        return bool(ast.identifiers_in(snapshot.obj) & self.pure_locals)


class _BlockRun:
    """A run's entry snapshot at its head, and the heads before it."""

    __slots__ = ("summary", "backtrace", "entry_gstate", "entry",
                 "entry_state_key")

    def __init__(self, summary, sm, backtrace):
        self.summary = summary
        self.backtrace = backtrace
        self.entry_gstate = sm.gstate
        self.entry = [
            (inst.tuple_key(sm.gstate), inst.uid, inst.copy())
            for inst in sm.live_instances()
        ]
        # The entry state as (gstate, frozenset of instance tuples) -- the
        # placeholder is normalized away so the empty state is the subset
        # of every state (BlockSummary.entry_states).
        self.entry_state_key = (
            sm.gstate,
            frozenset(entry_tuple for entry_tuple, __, __ in self.entry),
        )


class Analysis:
    """Applies metal extensions to a source base."""

    def __init__(self, units=None, options=None, callgraph=None, static_vars=None,
                 phase_timer=None):
        """``units`` is an iterable of TranslationUnits (or pass a prebuilt
        ``callgraph``).  ``static_vars`` maps file-scope static variable
        names to their file (drives the §6.1 inactivation rule).
        ``phase_timer`` is an optional context-manager factory (e.g.
        :meth:`repro.driver.stats.DriverStats.phase`) timing the cfg and
        traverse phases."""
        if callgraph is None:
            callgraph = CallGraph.from_units(units or [])
        self.callgraph = callgraph
        self.options = options or AnalysisOptions()
        self.annotations = AnnotationStore()
        self.static_vars = dict(static_vars or {})
        self.log = ErrorLog()
        self._cfgs = {}
        self._fctxs = {}
        self._user_globals = {}
        # Per-run state.  ``_call_stack`` is only ever mutated in place:
        # the delta tracker holds the list itself.
        self._table = None
        self._ext = None
        self._call_stack = []
        # Cross-root state tracking (incremental global checkers): when
        # artifacts are captured, a DeltaTracker diffs the annotation
        # store and user globals at root boundaries.  It gets the call
        # stack, not a bound method, so it holds no reference back to
        # this analysis and refcounting frees the whole run.
        self._tracker = None
        if self.options.capture_root_artifacts:
            self._tracker = DeltaTracker(self._call_stack)
            self.annotations.tracker = self._tracker
        # {(ext_index, root): ResolvedDelta} replayed instead of analyzed.
        self._replay = {}
        self.stats = {
            "points_visited": 0,
            "blocks_traversed": 0,
            "paths_completed": 0,
            "cache_hits": 0,
            "function_cache_hits": 0,
            "summary_block_records": 0,
            "relax_blocks": 0,
            "calls_followed": 0,
            "errors": 0,
            "degraded_roots": 0,
            "roots_skipped": 0,
            "matcher_table_hits": 0,
            "matcher_miss_memo_hits": 0,
            "matcher_compile_s": 0.0,
        }
        # Matcher counters accumulate in plain attributes (a dict update
        # per probe would double the cost of the miss path they measure)
        # and fold into ``stats`` when a run finishes.
        self._m_table_hits = 0
        self._m_miss_memo_hits = 0
        # The active extension's dispatch tables (set per run_one).
        self._compiled = None
        #: DegradedRoot entries for roots abandoned mid-run.
        self.degraded = []
        #: :class:`repro.engine.summaries.RootArtifact` records, one per
        #: (extension, root), when options.capture_root_artifacts is set.
        self.root_artifacts = []
        self._phase_timer = phase_timer
        self._ext_index = 0
        self._steps = 0
        self._points_cache = {}
        self._truncated = False
        self._current_block = None
        # Per-root budget tracking.
        self._current_root = None
        self._root_start_steps = 0
        self._root_start_paths = 0
        self._root_deadline = None
        self._faults_active = False

    # -- public API --------------------------------------------------------------

    def run(self, extensions, roots=None, replay=None):
        """Apply each extension (in order) to the whole source base.

        ``replay`` maps ``(extension_index, root)`` to a
        :class:`repro.engine.deltas.ResolvedDelta`: those pairs are not
        traversed — their recorded cross-root writes are applied at the
        pair's serial position instead, so analyzed roots observe the
        same annotation-store/user-global environment a full serial run
        would have built.
        """
        if not isinstance(extensions, (list, tuple)):
            extensions = [extensions]
        self._replay = dict(replay or {})
        tables = {}
        with self._phase("traverse"):
            for ext_index, ext in enumerate(extensions):
                self._ext_index = ext_index
                tables[ext.name] = self.run_one(ext, roots=roots)
        self.stats["errors"] = len(self.log)
        return AnalysisResult(
            self.log, tables, dict(self.stats), self._truncated,
            degraded=list(self.degraded),
            root_artifacts=list(self.root_artifacts),
        )

    def run_one(self, ext, roots=None):
        """Apply a single extension; returns its SummaryTable."""
        self._ext = ext
        self._table = SummaryTable()
        self._steps = 0
        self._faults_active = faults.active()
        compile_start = time.perf_counter()
        self._compiled = ext.compiled()
        elapsed = time.perf_counter() - compile_start
        self.stats["matcher_compile_s"] += elapsed
        per_ext = "matcher_compile_s:" + ext.name
        self.stats[per_ext] = self.stats.get(per_ext, 0.0) + elapsed
        if roots is None:
            if self.options.interprocedural:
                roots = self.callgraph.roots()
            else:
                roots = sorted(self.callgraph.functions)
        capture = self.options.capture_root_artifacts
        live = _UNKNOWN
        for root in roots:
            if root not in self.callgraph.index:
                continue
            resolved = self._replay.get((self._ext_index, root))
            if resolved is not None:
                # Replay this pair's recorded cross-root writes in place
                # of traversing it; its reports come from the cached
                # artifact at merge time.
                self._apply_replay(resolved)
                continue
            if live is _UNKNOWN:
                live = self._live_functions(ext)
            start = len(self.log)
            degraded_before = len(self.degraded)
            if capture:
                self.log.push_scope()
                self._tracker.begin_root()
            if live is None or root in live:
                self._analyze_root(ext, root, start)
            else:
                # No start rule can fire under this root: traversing it
                # would only fill summaries no live root reads.
                self.stats["roots_skipped"] += 1
            if capture:
                self._capture_artifact(ext, root, start, degraded_before)
            if self._truncated:
                break
        self.stats["matcher_table_hits"] = self._m_table_hits
        self.stats["matcher_miss_memo_hits"] = self._m_miss_memo_hits
        return self._table

    def _live_functions(self, ext):
        """The functions whose roots can fire one of ``ext``'s start
        rules, or None when every root can (docs/ENGINE.md, "Live
        roots")."""
        anchors = ext.start_anchors()
        if anchors is None:
            return None
        return self.callgraph.live_functions(
            anchors, interprocedural=self.options.interprocedural
        )

    def _analyze_root(self, ext, root, start):
        self._begin_root(root)
        try:
            self._run_root(ext, root)
        except RootBudgetExceeded as err:
            # Per-root budget: abandon this root only, keep its
            # partial reports, analyze the remaining roots.
            self._record_degraded(root, err.kind, err.detail, start)
        except AnalysisBudgetExceeded:
            self._truncated = True
            self._record_degraded(
                root, "global-steps",
                "max_steps=%r exhausted; remaining roots skipped"
                % self.options.max_steps,
                start,
            )
        except Exception as err:
            if self.options.root_error_policy != "degrade":
                raise
            self._record_degraded(root, "error", repr(err), start)

    def _apply_replay(self, resolved):
        """Apply a resolved delta's writes to the live environment.

        Values are cloned so later in-place mutations by analyzed roots
        never reach the cached artifact object; the tracker (outside any
        root here) folds the writes into its baseline so they are not
        attributed to the next analyzed root.
        """
        for node, ann_key, value in resolved.ann_ops:
            self.annotations.put(node, ann_key, clone_value(value))
        for ext_name, var, value in resolved.glob_sets:
            copy = clone_value(value)
            mapping = self._globals_for_name(ext_name)
            dict.__setitem__(mapping, var, copy)
            if self._tracker is not None:
                self._tracker.note_replay_glob(ext_name, var, copy)
        for ext_name, var in resolved.glob_dels:
            mapping = self._globals_for_name(ext_name)
            if dict.__contains__(mapping, var):
                dict.__delitem__(mapping, var)
            if self._tracker is not None:
                self._tracker.note_replay_glob(ext_name, var, None, deleted=True)

    def _capture_artifact(self, ext, root, start, degraded_before):
        examples, counterexamples = self.log.pop_scope()
        degraded = self.degraded[degraded_before:]
        delta = None
        if self._tracker is not None:
            delta = self._tracker.end_root(self.annotations, self._user_globals)
        self.root_artifacts.append(RootArtifact(
            ext_index=self._ext_index,
            extension=ext.name,
            root=root,
            reports=self.log.reports[start:len(self.log)],
            examples=examples,
            counterexamples=counterexamples,
            degraded=degraded,
            clean=not degraded and not self._truncated,
            delta=delta,
        ))

    def _begin_root(self, root):
        self._current_root = root
        self._root_start_steps = self._steps
        self._root_start_paths = self.stats["paths_completed"]
        cap = self.options.max_seconds_per_root
        self._root_deadline = None if cap is None else time.monotonic() + cap

    def _record_degraded(self, root, kind, detail, start):
        entry = DegradedRoot(
            root=root,
            extension=self._ext.name if self._ext is not None else None,
            kind=kind,
            detail=detail,
            reports_kept=len(self.log) - start,
        )
        self.degraded.append(entry)
        self.stats["degraded_roots"] += 1

    def run_on_function(self, ext, name):
        """Test helper: analyze one function as the only root."""
        return self.run(ext, roots=[name])

    # -- engine state helpers ----------------------------------------------------

    def call_depth(self):
        return max(0, len(self._call_stack) - 1)

    def current_function_name(self):
        return self._call_stack[-1] if self._call_stack else None

    def user_globals(self, ext):
        return self._globals_for_name(ext.name)

    def _globals_for_name(self, name):
        values = self._user_globals.get(name)
        if values is None:
            if self._tracker is not None:
                values = TrackedGlobals(name, self._tracker)
            else:
                values = {}
            self._user_globals[name] = values
        return values

    def _phase(self, name):
        if self._phase_timer is None:
            return nullcontext()
        return self._phase_timer(name)

    def _cfg(self, name):
        cfg = self._cfgs.get(name)
        if cfg is None:
            with self._phase("cfg"):
                cfg = build_cfg(self.callgraph.functions[name])
            self._cfgs[name] = cfg
        return cfg

    def _fctx(self, name):
        fctx = self._fctxs.get(name)
        if fctx is None:
            fctx = _FunctionContext(name, self._cfg(name))
            self._fctxs[name] = fctx
        return fctx

    def _check_budget(self):
        options = self.options
        if options.max_steps is not None and self._steps > options.max_steps:
            raise AnalysisBudgetExceeded()
        cap = options.max_steps_per_root
        if cap is not None and self._steps - self._root_start_steps > cap:
            raise RootBudgetExceeded(
                "steps", "exceeded %d steps for this root" % cap
            )
        cap = options.max_paths_per_root
        if cap is not None and (
            self.stats["paths_completed"] - self._root_start_paths > cap
        ):
            raise RootBudgetExceeded(
                "paths", "exceeded %d completed paths for this root" % cap
            )
        if self._root_deadline is not None and time.monotonic() > self._root_deadline:
            raise RootBudgetExceeded(
                "time",
                "exceeded %gs wall clock for this root"
                % options.max_seconds_per_root,
            )
        if self._faults_active and faults.fires(
            "engine.budget", key=self._current_root
        ):
            raise RootBudgetExceeded("injected", "fault injection")

    # -- roots ----------------------------------------------------------------------

    def _run_root(self, ext, root):
        fctx = self._fctx(root)
        sm = SMInstance(ext)
        constraints = PathConstraints()
        self._call_stack[:] = [root]
        try:
            self._traverse(fctx, sm, constraints, fctx.cfg.entry, [])
        except StopPath:
            pass

    # -- the DFS (Fig. 4) --------------------------------------------------------------

    def _traverse(self, fctx, sm, constraints, block, backtrace, run=None):
        """Continue the path into ``block``: a non-head extends ``run``; at
        a head, a cache hit ends the path and a miss starts a new run."""
        if run is None or id(block) in fctx.heads:
            self._check_budget()
            summary = self._table.get(block)
            if self.options.caching \
                    and all(summary.covers(t) for t in state_tuples(sm)) \
                    and self._creations_covered(summary, sm):
                self.stats["cache_hits"] += 1
                self.stats["relax_blocks"] += relax(
                    backtrace + [(summary, None)], fctx.local_edge_filter)
                return
            run = _BlockRun(summary, sm, backtrace)
        self.stats["blocks_traversed"] += 1
        if block.havoc_vars and self.options.false_path_pruning:
            constraints.havoc(block.havoc_vars)
        points = self._points_of(block)
        self._run_points(fctx, sm, constraints, block, points, 0, run)

    def _creations_covered(self, summary, sm):
        """May a fully tuple-covered state abort (§5.3)?

        Tuple coverage caches every tuple's *continuation*, but an object
        the state knows nothing about is not a tuple: a prior run that
        tracked it recorded its transitions, not the creation the current
        path would perform.  So a hit additionally needs some completed
        run whose entry state was a subset of this one -- every object
        unknown now was unknown then, so its creation (and everything
        downstream) is in the recorded summaries.  So a partial hit
        re-traverses with the full state: the paper's restriction to the
        missed tuples explores (gstate, vars) combinations no real path
        produces."""
        live = frozenset(
            inst.tuple_key(sm.gstate) for inst in sm.live_instances()
        )
        return summary.saw_subset_entry(sm.gstate, live)

    def _points_of(self, block):
        cached = self._points_cache.get(id(block))
        if cached is not None:
            return cached
        points = []
        for item_idx, item in enumerate(block.items):
            if isinstance(item, ast.VarDecl):
                points.append(("decl", item, item_idx))
            elif isinstance(item, ReturnMarker):
                points.append(("return", item, item_idx))
            else:
                for node in ast.execution_order(item):
                    points.append(("expr", node, item_idx))
        self._points_cache[id(block)] = points
        return points

    def point_is_branch_condition(self, point):
        """Is ``point`` the branch condition of the block being analyzed?
        (Backs the mc_is_branch callout: path-specific null checks.)"""
        block = self._current_block
        return block is not None and block.branch_cond is point

    def _run_points(self, fctx, sm, constraints, block, points, idx, run):
        while idx < len(points):
            self._current_block = block
            kind, node, item_idx = points[idx]
            self._steps += 1
            self.stats["points_visited"] += 1
            self._check_budget()
            if kind == "decl":
                if self.options.kills:
                    kill_for_declaration(sm, node.name)
                if self.options.false_path_pruning:
                    constraints.havoc([node.name])
            elif kind == "return":
                self._apply_extension(sm, node, (id(block), item_idx))
            else:
                continuations = self._process_expr_point(
                    fctx, sm, constraints, block, node, item_idx
                )
                if continuations is not None:
                    if len(continuations) == 1:
                        sm, constraints = continuations[0]
                    else:
                        for new_sm, new_constraints in continuations:
                            try:
                                self._run_points(
                                    fctx,
                                    new_sm,
                                    new_constraints,
                                    block,
                                    points,
                                    idx + 1,
                                    run,
                                )
                            except StopPath:
                                pass
                        return
            idx += 1
        self._finish_block(fctx, sm, constraints, block, run)

    def _process_expr_point(self, fctx, sm, constraints, block, point, item_idx):
        """Apply kills, synonyms, value tracking and the extension at one
        program point; returns continuation list when a call was followed."""
        creation_site = (id(block), item_idx)
        target = definition_target(point)
        if target is not None:
            new_synonym = None
            if self.options.synonyms and isinstance(point, ast.Assign):
                new_synonym = maybe_create_synonym(sm, point)
                if new_synonym is not None:
                    new_synonym.created_at = creation_site
            if self.options.kills:
                keep = [new_synonym] if new_synonym is not None else []
                kill_for_definition(sm, target, keep=keep)
            if self.options.false_path_pruning:
                constraints.define(point)

        matched_call = self._apply_extension(sm, point, creation_site)

        if isinstance(point, ast.Call) and self.annotations.get(point, "pathkill"):
            # A composed path-kill extension flagged this call (§3.2):
            # "When a subsequent extension sees a flagged function call, it
            # stops traversing the current path."
            raise StopPath()

        if (
            isinstance(point, ast.Call)
            and self.options.interprocedural
            and not matched_call
        ):
            callee = point.callee_name()
            if callee and callee in self.callgraph.index:
                return self._follow_call(fctx, sm, constraints, point)
        return None

    # -- extension application (§5.1) ----------------------------------------------------

    def _apply_extension(self, sm, point, creation_site, end_of_path=False):
        """Apply ``sm``'s extension at ``point`` (§5.1).

        The dispatch tables (docs/MATCHER.md) pick each source state's
        candidate rules for this point's class, in declaration order,
        and the interpreter matches them: the first match wins for an
        instance, and every match applies for the global state.
        """
        compiled = self._compiled
        cls = point.__class__
        if not compiled.any_candidates(cls, end_of_path):
            # No rule in any source state admits this node class: skip the
            # instance loop and the global probe outright.
            self._m_miss_memo_hits += 1
            return False
        matched_this_point = False
        touched = set()
        # (var_name, value) -> candidate tuple for this point's node class.
        # Instances overwhelmingly share a state, so after the first probe
        # every further instance costs one dict hit (the "no candidates"
        # miss-memo from docs/MATCHER.md).
        cand_memo = {}
        miss_hits = 0
        table_hits = 0

        # Variable-specific instances first.
        for inst in list(sm.active_vars):
            if inst.inactive or inst not in sm.active_vars:
                continue
            if inst.created_at == creation_site:
                # "An instance cannot trigger a transition at the statement
                # where that instance was created" (§3.1).
                continue
            mkey = (inst.var_name, inst.value)
            candidates = cand_memo.get(mkey)
            if candidates is None:
                table = compiled.specific_table(inst.var_name, inst.value)
                if table is None:
                    candidates = ()
                else:
                    candidates = table.candidates(cls, end_of_path)
                cand_memo[mkey] = candidates
            if not candidates:
                miss_hits += 1
                continue
            table_hits += 1
            for crule in candidates:
                bindings = {inst.var_name: inst.obj}
                mctx = MatchContext(point, bindings, self, end_of_path)
                if crule.rule.pattern.match(point, bindings, mctx):
                    matched_this_point = True
                    touched.add((inst.var_name, inst.obj_key))
                    self._execute_instance_rule(
                        sm, crule.rule, inst, bindings, point
                    )
                    break

        # Then global transitions.
        table = compiled.global_table(sm.gstate)
        candidates = () if table is None else table.candidates(cls, end_of_path)
        if not candidates:
            self._m_miss_memo_hits += miss_hits + 1
            self._m_table_hits += table_hits
            return matched_this_point
        self._m_miss_memo_hits += miss_hits
        self._m_table_hits += table_hits + 1
        for crule in candidates:
            bindings = {}
            mctx = MatchContext(point, bindings, self, end_of_path)
            if crule.rule.pattern.match(point, bindings, mctx):
                matched_this_point = True
                self._execute_global_rule(
                    sm, crule.rule, bindings, point, creation_site, touched
                )
        return matched_this_point

    def _execute_instance_rule(self, sm, rule, inst, bindings, point):
        if rule.action is not None:
            ctx = ActionContext(self, sm, point, bindings, inst)
            rule.action(ctx)
        if inst not in sm.active_vars:
            return  # the action removed it
        if isinstance(rule.target, PathSplit):
            sm.pending_splits.append((inst, rule.target, point))
        elif isinstance(rule.target, StateRef):
            self._set_instance_value(
                sm, inst, rule.target.value, getattr(point, "location", None)
            )

    def _set_instance_value(self, sm, inst, value, location=None):
        if value == STOP:
            mirror_transition(sm, inst, STOP)
            sm.remove(inst)
        else:
            inst.record("transitioned to %s" % value, location)
            inst.value = value
            mirror_transition(sm, inst, value, inst.data)

    def _execute_global_rule(self, sm, rule, bindings, point, creation_site, touched):
        ext = sm.extension
        if rule.creates_instance:
            target_ref = rule.target
            if isinstance(target_ref, PathSplit):
                target_ref = target_ref.true_state
            var_name = target_ref.var
            obj = bindings.get(var_name)
            if obj is None:
                return
            key = ast.structural_key(obj)
            if (var_name, key) in touched or sm.find(key, var_name) is not None:
                return  # add edges apply only when nothing is known about t
            target = rule.target
            value = (
                target.true_state.value
                if isinstance(target, PathSplit)
                else target.value
            )
            inst = VarInstance(var_name, obj, value)
            inst.created_at = creation_site
            inst.created_location = getattr(point, "location", None)
            inst.origin_location = inst.created_location
            inst.call_depth_at_creation = self.call_depth()
            inst.record(
                "entered state %s.%s" % (var_name, value), inst.created_location
            )
            if isinstance(obj, ast.Ident) and obj.name in self.static_vars:
                inst.file_scope_file = self.static_vars[obj.name]
            sm.add(inst)
            if rule.action is not None:
                ctx = ActionContext(self, sm, point, bindings, inst)
                rule.action(ctx)
            if inst not in sm.active_vars:
                return
            if isinstance(target, PathSplit):
                sm.pending_splits.append((inst, target, point))
            elif value == STOP:
                sm.remove(inst)
        else:
            if rule.action is not None:
                ctx = ActionContext(self, sm, point, bindings, None)
                rule.action(ctx)
            if isinstance(rule.target, PathSplit):
                sm.pending_splits.append((None, rule.target, point))
            elif isinstance(rule.target, StateRef) and rule.target.is_global:
                sm.gstate = rule.target.value

    # -- block completion: summaries + successors ------------------------------------------

    def _finish_block(self, fctx, sm, constraints, block, run):
        if block.is_exit:
            self._at_exit(fctx, sm, constraints, block, run)
            return
        backtrace = None
        if id(block) in fctx.run_ends:
            backtrace = self._record_block_run(run, sm, block)
        outcomes = block.outcomes()
        if not outcomes:
            # A dead end that is not the exit block (e.g. an empty goto
            # target); treat as a path end.
            self.stats["paths_completed"] += 1
            self.stats["relax_blocks"] += relax(
                backtrace, fctx.local_edge_filter)
            return
        cond = block.branch_cond
        if sm.pending_splits and cond is None and block.switch_cond is None:
            self._fork_pending_splits(
                fctx, sm, constraints, [edge.target for edge in block.edges],
                backtrace, run,
            )
            return
        pruning = self.options.false_path_pruning
        verdict = constraints.evaluate(cond) if pruning else None
        last = len(outcomes) - 1
        for index, (edge, facts) in enumerate(outcomes):
            if verdict is not None and edge.label is not verdict:
                continue  # pruned (§8 step 5)
            new_constraints = constraints if index == last else constraints.copy()
            if pruning and facts:
                for fact, truth in facts:
                    new_constraints.assume(fact, truth)
                if new_constraints.infeasible:
                    continue
            new_sm = sm if index == last else sm.copy()
            if cond is not None:
                self._resolve_splits(new_sm, edge.label, cond)
            if edge.label is not None:
                for inst in new_sm.active_vars:
                    inst.conditionals_crossed += 1
            try:
                self._traverse(
                    fctx, new_sm, new_constraints, edge.target, backtrace, run
                )
            except StopPath:
                pass

    def _fork_pending_splits(self, fctx, sm, constraints, successors, backtrace, run):
        """A path-specific transition fired outside a branch condition: the
        modelled function had two outcomes, so the path itself splits."""
        for outcome in (True, False):
            new_sm = sm.copy()
            self._resolve_splits(new_sm, outcome, None)
            for succ in successors:
                try:
                    self._traverse(
                        fctx, new_sm.copy(), constraints.copy(), succ,
                        backtrace, run,
                    )
                except StopPath:
                    pass

    def _resolve_splits(self, sm, branch_label, cond):
        for inst, split, matched_point in sm.pending_splits:
            flips = 0
            if cond is not None:
                found = _polarity(cond, matched_point)
                if found is not None:
                    flips = found
            effective = branch_label if flips % 2 == 0 else not branch_label
            ref = split.true_state if effective else split.false_state
            if inst is None:
                if ref is not None and ref.is_global:
                    sm.gstate = ref.value
            elif inst in sm.active_vars and ref is not None:
                self._set_instance_value(sm, inst, ref.value)
        sm.pending_splits = []

    def _record_block_run(self, run, sm, tail):
        """Record ``run`` leaving from ``tail``; returns the new backtrace."""
        self.stats["summary_block_records"] += 1
        summary = run.summary
        summary.entry_states.add(run.entry_state_key)
        edges = summary.runs[tail.index]
        g0 = run.entry_gstate
        g1 = sm.gstate
        # The placeholder edge is a real cache entry only when the
        # placeholder tuple actually was the state that reached the head
        # (no live instances); otherwise it is recorded for relaxation
        # only (§5.3 / §6.2 -- see Edge.relax_only).
        edges.add(Edge(
            TRANSITION,
            (g0, PLACEHOLDER),
            (g1, PLACEHOLDER),
            relax_only=bool(run.entry),
        ))
        current = {inst.uid: inst for inst in sm.active_vars}
        entry_uids = {uid for __, uid, __ in run.entry}
        # An entry object that was stopped (or killed) and then re-created
        # within the run continues as the new instance: the creation
        # happened because the object was known on entry and then dropped,
        # so it is that tuple's exit state, not an add edge (which would
        # claim the creation for paths that know nothing about it).
        created = {
            (inst.var_name, inst.obj_key): inst
            for inst in sm.active_vars
            if inst.uid not in entry_uids and not inst.inactive
        }
        for __, uid, entry_copy in run.entry:
            exit_inst = current.get(uid)
            if exit_inst is None:
                exit_inst = created.pop(
                    (entry_copy.var_name, entry_copy.obj_key), None
                )
            edges.add(make_transition_edge(g0, entry_copy, g1, exit_inst))
        for inst in created.values():
            edges.add(make_add_edge(g0, g1, inst))
        return run.backtrace + [(summary, edges)]

    # -- path ends -------------------------------------------------------------------------

    def _at_exit(self, fctx, sm, constraints, block, run):
        ext = sm.extension
        if ext.uses_end_of_path():
            is_root = self.call_depth() == 0
            end_point = _EndOfPathPoint(fctx)
            for inst in list(sm.live_instances()):
                leaves_scope = bool(
                    ast.identifiers_in(inst.obj) & fctx.pure_locals
                )
                if is_root or leaves_scope:
                    self._apply_end_of_path(sm, inst, end_point)
            if is_root:
                self._apply_extension(
                    sm, end_point, (id(block), -1), end_of_path=True
                )
        # Locals leave scope at function exit regardless of the checker.
        for inst in list(sm.active_vars):
            if ast.identifiers_in(inst.obj) & fctx.pure_locals:
                sm.remove(inst)
        backtrace = self._record_block_run(run, sm, block)
        self.stats["paths_completed"] += 1
        self.stats["relax_blocks"] += relax(
            backtrace, fctx.local_edge_filter, at_exit=True)

    def _apply_end_of_path(self, sm, inst, end_point):
        if inst not in sm.active_vars or inst.inactive:
            return
        table = self._compiled.specific_table(inst.var_name, inst.value)
        if table is None:
            self._m_miss_memo_hits += 1
            return
        self._m_table_hits += 1
        for crule in table.eop_mentions:
            bindings = {inst.var_name: inst.obj}
            mctx = MatchContext(end_point, bindings, self, end_of_path=True)
            if crule.rule.pattern.match(end_point, bindings, mctx):
                self._execute_instance_rule(
                    sm, crule.rule, inst, bindings, end_point
                )
                break

    # -- interprocedural (§6) ----------------------------------------------------------------

    def _follow_call(self, fctx, sm, constraints, call):
        callee_name = call.callee_name()
        callee_decl = self.callgraph.functions[callee_name]
        callee_cfg = self._cfg(callee_name)
        callee_fctx = self._fctx(callee_name)
        argmap = ArgumentMap(call, callee_decl)

        refined, saved = refine(sm, argmap, fctx.local_names, callee_fctx.file)
        for inst in refined.active_vars:
            if inst.inactive and inst.file_scope_file == callee_fctx.file:
                inst.inactive = False

        entry_summary = self._table.get(callee_cfg.entry)
        function_summary = entry_summary.suffix
        tuples = state_tuples(refined)
        hit = all(
            any(
                e.kind == TRANSITION and not e.relax_only
                for e in function_summary.with_start(t)
            )
            for t in tuples
        ) and self._creations_covered(entry_summary, refined)

        if hit:
            self.stats["function_cache_hits"] += 1
        elif callee_name in self._call_stack:
            # Recursion: "our algorithm assumes that the existing function
            # summary is sufficient" (§7).
            pass
        else:
            self.stats["calls_followed"] += 1
            self._call_stack.append(callee_name)
            callee_constraints = self._refine_constraints(constraints, argmap)
            try:
                self._traverse(
                    callee_fctx,
                    refined.copy(),
                    callee_constraints,
                    callee_cfg.entry,
                    [],
                )
            except StopPath:
                pass
            self._call_stack.pop()

        assignments, add_edges, global_edges, __ = collect_applicable_edges(
            refined, function_summary
        )
        if not assignments and not add_edges and not global_edges and not len(
            function_summary
        ):
            partitions = [refined.copy()]  # unanalyzed recursive callee
        else:
            partitions = partition_exit_states(
                refined, assignments, add_edges, global_edges
            )
        for part in partitions:
            for inst in refined.active_vars:
                if inst.inactive and part.find(inst.obj_key) is None:
                    part.add(inst.copy())

        restored = restore(partitions, saved, argmap, sm, callee_fctx.local_names)

        # File-scope variables re-enter scope when the analysis is back in
        # their file (and leave it again otherwise) -- §6.1.
        for new_sm in restored:
            for inst in new_sm.active_vars:
                if inst.file_scope_file is not None:
                    inst.inactive = inst.file_scope_file != fctx.file

        if self.options.by_value_params:
            self._revert_by_value(restored, saved, sm, argmap)

        if self.options.false_path_pruning:
            self._havoc_after_call(constraints, argmap)

        out = []
        for index, new_sm in enumerate(restored):
            new_constraints = constraints if index == 0 else constraints.copy()
            out.append((new_sm, new_constraints))
        if not out:
            out.append((sm, constraints))
        return out

    def _refine_constraints(self, constraints, argmap):
        """Seed the callee's value tracking with known-constant arguments."""
        callee = PathConstraints()
        for actual, base, formal, addrof in argmap.pairs:
            if addrof:
                continue
            key = constraints.term(actual)
            if key is None:
                continue
            const = constraints.closure.const_of(key)
            if const is not None:
                callee.assign(ast.Ident(formal), ast.IntLit(const))
        return callee

    def _havoc_after_call(self, constraints, argmap):
        for actual, base, formal, addrof in argmap.pairs:
            if addrof and isinstance(base, ast.Ident):
                constraints.havoc([base.name])

    def _revert_by_value(self, restored, saved, original_sm, argmap):
        """Rule 1 by-value restore: state(xa) unchanged across the call for
        plain (non-indirected) actuals -- whatever the callee did to the
        formal itself, the actual keeps its pre-call state (Table 2)."""
        plain_actual_keys = {
            ast.structural_key(actual)
            for actual, __, __, addrof in argmap.pairs
            if not addrof
        }
        originals = {
            inst.obj_key: inst
            for inst in original_sm.active_vars
            if inst.obj_key in plain_actual_keys
        }
        for new_sm in restored:
            for obj_key in plain_actual_keys:
                original = originals.get(obj_key)
                inst = new_sm.find(obj_key)
                if original is not None:
                    if inst is not None:
                        inst.value = original.value
                        inst.data = dict(original.data)
                    else:
                        new_sm.add(original.copy())
                elif inst is not None:
                    new_sm.remove(inst)


class _EndOfPathPoint:
    """The synthetic program point $end_of_path$ transitions match at."""

    def __init__(self, fctx):
        self.location = fctx.cfg.decl.location
        self._fields = ()

    def walk(self):
        yield self

    def children(self):
        return iter(())


def _polarity(cond, node):
    """Count logical negations between a branch condition's root and the
    matched node; None when the node is not inside the condition."""
    if cond is node:
        return 0
    if not isinstance(cond, ast.Node):
        return None
    if isinstance(cond, ast.Unary) and cond.op == "!" and not cond.postfix:
        inner = _polarity(cond.operand, node)
        return None if inner is None else inner + 1
    if isinstance(cond, ast.Binary) and cond.op in ("==", "!="):
        for side, other in ((cond.left, cond.right), (cond.right, cond.left)):
            inner = _polarity(side, node)
            if inner is not None and isinstance(other, ast.IntLit) and other.value == 0:
                return inner + (1 if cond.op == "==" else 0)
    for child in cond.children():
        inner = _polarity(child, node)
        if inner is not None:
            return inner
    return None
