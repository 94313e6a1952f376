"""The refinement evaluator: anchor, enumerate, evaluate, classify.

For one local :class:`repro.reports.model.Report` the pipeline is:

1. **Anchor** -- the report's why-trace (§3.2) plus its error location
   become an ordered list of source positions (line:column) the
   candidate path must execute, in order.  A position is reached only
   when the walk executes the program point there -- a declaration, a
   return, or an expression node in ``ast.execution_order`` order --
   so a guard that shares the error's line cannot stand in for the
   error itself.
2. **Slice** -- :func:`repro.refine.slicing.relevant_variables` bounds
   the variables the evaluator tracks.
3. **Enumerate** -- a deterministic bounded DFS over the function's
   CFG.  Loops are covered by three *path families* per loop head
   (a block with ``havoc_vars``): the concrete zero-iteration path,
   concrete non-revisiting paths (``break``), and one *widened*
   family -- on the second arrival at the head the loop-assigned
   variables are havocked (over-approximating any number of earlier
   iterations) and the body edge is forced once more, then the third
   arrival forces the exit edge, so the final iteration is evaluated
   concretely.  Every real execution's observable post-loop state is
   covered by some family, which is what makes ``infeasible`` claims
   sound.  Shapes outside the scheme (do-while revisits, a fourth
   arrival from nested loops, goto cycles) mark the enumeration
   non-exhaustive and the verdict degrades to ``unknown``.  Paths
   fork over :meth:`repro.cfg.blocks.BasicBlock.outcomes`, the edge
   facts the engine's DFS assumes too.
4. **Evaluate** -- each path runs through a
   :class:`repro.refine.domain.RefineState`.  A contradictory state
   keeps walking *syntactically* (constraint updates stop) so the
   evaluator can still tell "this trace is realizable in the CFG but
   always contradictory" (-> ``infeasible``) apart from "the trace
   never re-anchored at all" (-> ``unknown``).

Verdicts are cached in the store's summary tier under keys that bind
the refine version, the three deterministic budgets, the function's
Merkle fingerprint and the report hash -- the fingerprint is part of
the key because report hashes deliberately exclude function bodies, so
an edit that preserves the hash must still invalidate the verdict.
Every verdict is cached except the ones the wall clock or a fault
decided (:data:`UNCACHED_REASONS`); a long-lived caller can also hand
in an in-memory pin that is consulted before the store.  Fault sites:
``refine.budget`` (forces the per-report budget degradation) and
``refine.error`` (forces an evaluation error); both degrade the
verdict to ``unknown``.
"""

import json
import time

from repro import faults
from repro.cfg.blocks import ReturnMarker
from repro.cfg.builder import build_cfg
from repro.cfront import astnodes as ast
from repro.refine.domain import RefineState
from repro.refine.slicing import relevant_variables

#: Bump to invalidate every cached verdict (domain or enumeration change,
#: or a change to what the cache key binds).  3: anchors are the
#: line:column of the program points a path executes, not source lines.
REFINE_VERSION = 3

#: Verdicts ride in the store's summary tier next to function summaries.
CACHE_TIER = "sum"

VERDICT_CONFIRMED = "confirmed"
VERDICT_INFEASIBLE = "infeasible"
VERDICT_UNKNOWN = "unknown"

#: Verdict reasons decided by the wall clock or an injected fault: never
#: cached.  Every other verdict is a pure function of the function body,
#: the report and the deterministic budgets the cache key binds.
UNCACHED_REASONS = frozenset(["budget-time", "budget-injected", "error"])

#: Consult the wall clock every 64 steps, not every step.
_TIME_CHECK_MASK = 63


class RefineOptions:
    """Budgets and knobs for one refinement pass.

    The step budget is the *primary* bound -- it is deterministic, so
    verdicts stay byte-identical across machines and job counts.  The
    wall-clock budget is a safety net: blowing it degrades that
    report's verdict to ``unknown`` (counted in ``refine_budget_hits``)
    and the verdict is not cached.  The deterministic budgets
    (``max_paths``, ``max_steps``, ``max_block_visits``) are part of
    every cache key, so a verdict one budget produced is never served
    under another.
    """

    def __init__(self, max_paths=256, max_steps=20000,
                 max_block_visits=8, max_seconds_per_report=5.0):
        self.max_paths = max_paths
        self.max_steps = max_steps
        self.max_block_visits = max_block_visits
        self.max_seconds_per_report = max_seconds_per_report


class _Budget:
    """Per-report enumeration budget; ``blown`` is the degradation
    reason once any bound trips."""

    def __init__(self, options):
        self.options = options
        self.steps = 0
        self.paths = 0
        cap = options.max_seconds_per_report
        self.deadline = None if cap is None else time.monotonic() + cap
        self.blown = None

    def step(self):
        self.steps += 1
        if self.steps > self.options.max_steps:
            self.blown = "budget-steps"
        elif (
            self.deadline is not None
            and self.steps & _TIME_CHECK_MASK == 0
            and time.monotonic() > self.deadline
        ):
            self.blown = "budget-time"
        return self.blown is None

    def path(self):
        self.paths += 1
        if self.paths > self.options.max_paths:
            self.blown = "budget-paths"
        return self.blown is None


def _anchor_positions(report):
    """The ordered ``(line, column)`` positions the candidate path must
    execute: the report's same-file trace steps plus its error
    location, consecutive duplicates collapsed."""
    locations = [
        location for __, location in report.trace
        if location is not None
        and location.filename == report.location.filename
    ]
    locations.append(report.location)
    collapsed = []
    for location in locations:
        position = (location.line, location.column)
        if not collapsed or collapsed[-1] != position:
            collapsed.append(position)
    return collapsed


def _consume_anchors(anchors, index, location):
    """``index`` advanced past every anchor at ``location``."""
    if location is not None:
        position = (location.line, location.column)
        while index < len(anchors) and anchors[index] == position:
            index += 1
    return index


def _apply_items(block, state, anchors, anchor_index, contradicted,
                 local_names):
    """Run one block's program points through ``state``; returns the
    advanced anchor index.  The points are the engine's: each
    declaration, each return, and each expression node in execution
    order.  A contradicted path keeps consuming anchors (the walk stays
    syntactic) but stops updating constraints."""
    for item in block.items:
        if isinstance(item, (ast.VarDecl, ReturnMarker)):
            anchor_index = _consume_anchors(anchors, anchor_index,
                                            item.location)
            if isinstance(item, ast.VarDecl) and not contradicted:
                state.declare(item.name)
            continue
        for node in ast.execution_order(item):
            anchor_index = _consume_anchors(
                anchors, anchor_index, getattr(node, "location", None))
            if contradicted:
                continue
            if isinstance(node, ast.Call):
                state.call_effects(node, local_names)
            else:
                state.define(node)
    return anchor_index


class _Enumeration:
    """One report's bounded DFS over the function CFG."""

    def __init__(self, cfg, anchors, relevant, options, budget):
        self.cfg = cfg
        self.anchors = anchors
        self.options = options
        self.budget = budget
        self.local_names = cfg.local_names()
        self.relevant = relevant
        self.witness = False
        self.realizable = 0
        self.non_exhaustive = None

    def run(self):
        stack = [(self.cfg.entry, RefineState(self.relevant), {}, 0, False)]
        while stack and not self.witness:
            block, state, visits, anchor_index, contradicted = stack.pop()
            if not self.budget.step():
                return
            visits = dict(visits)
            count = visits.get(block.index, 0) + 1
            visits[block.index] = count
            is_head = bool(block.havoc_vars)
            if is_head:
                if block.branch_cond is None:
                    if count >= 2:
                        # do-while / goto revisit without a guarded head
                        self.non_exhaustive = "loop-structure"
                        continue
                elif count == 2:
                    if not contradicted:
                        state.havoc(block.havoc_vars)
                elif count >= 4:
                    # nested re-entry beyond the widened family
                    self.non_exhaustive = "loop-structure"
                    continue
            elif count > self.options.max_block_visits:
                self.non_exhaustive = "revisit-cap"
                continue
            anchor_index = _apply_items(
                block, state, self.anchors, anchor_index, contradicted,
                self.local_names,
            )
            if not contradicted and state.infeasible:
                contradicted = True
            anchored = anchor_index >= len(self.anchors)
            if contradicted and anchored:
                self.realizable += 1
                continue
            if block.is_exit or not block.edges:
                if not self.budget.path():
                    return
                if anchored and not contradicted:
                    self.witness = True
                continue
            self._push_successors(stack, block, state, visits, anchor_index,
                                  contradicted, count, is_head)

    def _push_successors(self, stack, block, state, visits, anchor_index,
                         contradicted, count, is_head):
        """Push successor frames in deterministic (source-edge) order.
        A loop head's second arrival forces the body edge, its third the
        exit edge."""
        forced = None
        if is_head and block.branch_cond is not None:
            forced = {2: True, 3: False}.get(count)
        branches = []
        for edge, facts in block.outcomes():
            if forced is not None and edge.label is not forced:
                continue
            new_state = state.copy()
            new_contradicted = contradicted
            if not contradicted and facts:
                for cond, truth in facts:
                    new_state.assume(cond, truth)
                new_contradicted = new_state.infeasible
            branches.append(
                (edge.target, new_state, visits, anchor_index, new_contradicted)
            )
        stack.extend(reversed(branches))


def classify_report(report, callgraph, options=None):
    """One report's feasibility verdict: ``{"verdict", "reason"}``.

    A pure function of the report and its function's body -- no
    caching, no stats; :func:`refine_reports` layers those on top.
    """
    options = options or RefineOptions()
    if not report.is_local:
        return {"verdict": VERDICT_UNKNOWN, "reason": "interprocedural"}
    decl = callgraph.functions.get(report.function)
    if decl is None or not getattr(decl, "is_definition", False):
        return {"verdict": VERDICT_UNKNOWN, "reason": "unknown-function"}
    spec = faults.fires("refine.budget", key=report.function)
    if spec is not None:
        return {"verdict": VERDICT_UNKNOWN, "reason": "budget-injected"}
    try:
        spec = faults.fires("refine.error", key=report.function)
        if spec is not None:
            raise RuntimeError("injected refine fault")
        cfg = build_cfg(decl)
        try:
            anchors = _anchor_positions(report)
            relevant = relevant_variables(
                cfg, [line for line, __ in anchors], report.variable)
            budget = _Budget(options)
            enum = _Enumeration(cfg, anchors, relevant, options, budget)
            enum.run()
        finally:
            cfg.unlink()  # this report's private CFG: no cyclic garbage
    except RecursionError:
        return {"verdict": VERDICT_UNKNOWN, "reason": "error"}
    except Exception:
        return {"verdict": VERDICT_UNKNOWN, "reason": "error"}
    if enum.witness:
        return {"verdict": VERDICT_CONFIRMED, "reason": "witness"}
    if budget.blown is not None:
        return {"verdict": VERDICT_UNKNOWN, "reason": budget.blown}
    if enum.non_exhaustive is not None:
        return {"verdict": VERDICT_UNKNOWN, "reason": enum.non_exhaustive}
    if enum.realizable:
        return {
            "verdict": VERDICT_INFEASIBLE,
            "reason": "all-paths-contradictory",
        }
    return {"verdict": VERDICT_UNKNOWN, "reason": "trace-not-realized"}


def cacheable(verdict):
    """Whether ``verdict`` may be cached: everything but the reasons the
    wall clock or a fault decided."""
    return verdict["reason"] not in UNCACHED_REASONS


def _cache_key(report, fingerprints, options):
    """Store key for one report's verdict, or None if uncacheable.

    The key binds the function's Merkle fingerprint (its own tokens
    plus the transitive callee cone) as well as the stable report hash:
    report hashes deliberately exclude function bodies, so an edit that
    preserves the hash -- flipping a branch condition, say -- must
    still invalidate the cached verdict.  It binds the deterministic
    budgets too: ``trace-not-realized``, ``loop-structure``,
    ``revisit-cap`` and the step/path budget verdicts depend on them.
    """
    if report.report_hash is None:
        return None
    fingerprint = (fingerprints or {}).get(report.function)
    if fingerprint is None:
        return None
    return "refine%d-%d-%d-%d-%s%s" % (
        REFINE_VERSION, options.max_block_visits, options.max_steps,
        options.max_paths, fingerprint, report.report_hash,
    )


def _load_cached(backend, keys):
    """``{key: verdict_doc}`` for every cached, version-matched key."""
    if backend is None or not keys:
        return {}
    try:
        frames = backend.get_many(CACHE_TIER, sorted(keys))
    except Exception:
        return {}
    out = {}
    for key, data in frames.items():
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if (
            isinstance(doc, dict)
            and doc.get("refine_version") == REFINE_VERSION
            and doc.get("verdict") in (VERDICT_CONFIRMED, VERDICT_INFEASIBLE,
                                       VERDICT_UNKNOWN)
            and doc.get("reason") not in UNCACHED_REASONS
        ):
            out[key] = {"verdict": doc["verdict"],
                        "reason": doc.get("reason")}
    return out


def _store_cached(backend, payloads):
    """Write fresh cacheable verdicts; store failures are non-fatal."""
    if backend is None or not payloads:
        return
    frames = {}
    for key, doc in payloads.items():
        stored = dict(doc)
        stored["refine_version"] = REFINE_VERSION
        frames[key] = json.dumps(stored, sort_keys=True).encode("utf-8")
    try:
        backend.put_many(CACHE_TIER, frames)
    except Exception:
        return


def refine_reports(reports, callgraph, options=None, stats=None,
                   backend=None, fingerprints=None, pin=None):
    """Annotate every report with a feasibility verdict.

    Verdicts land in ``report.annotations["feasibility"]``.  Every
    :func:`cacheable` verdict is served from and written back to
    ``backend`` (when one is given) under :func:`_cache_key` keys.
    ``pin`` is an optional in-memory ``{key: verdict}`` mapping (the
    daemon's): it is read before the store, and every verdict served or
    evaluated is pinned, so a warm caller reads no store frames for
    unchanged functions.
    """
    options = options or RefineOptions()

    def count(name, amount=1):
        if stats is not None:
            stats.add(name, amount)

    keys = {}
    for report in reports:
        key = _cache_key(report, fingerprints, options)
        if key is not None:
            keys[id(report)] = key
    pin = {} if pin is None else pin
    cached = _load_cached(backend, {key for key in keys.values()
                                    if key not in pin})
    fresh = {}
    for report in reports:
        key = keys.get(id(report))
        verdict = None
        if key is not None:
            verdict = pin.get(key) or cached.get(key)
        if verdict is not None:
            count("refine_cache_hits")
        else:
            verdict = classify_report(report, callgraph, options)
            if key is not None and cacheable(verdict):
                fresh[key] = verdict
        if key is not None and cacheable(verdict):
            pin[key] = verdict
        report.annotations["feasibility"] = dict(verdict)
        count("refine_%s" % verdict["verdict"])
        if verdict["reason"] in ("budget-steps", "budget-paths",
                                 "budget-time", "budget-injected"):
            count("refine_budget_hits")
    _store_cached(backend, fresh)
    return reports


def verdict_of(report):
    """The report's verdict string, or None if it was never refined."""
    doc = report.annotations.get("feasibility")
    if isinstance(doc, dict):
        return doc.get("verdict")
    return None


def drop_infeasible(reports):
    """The reports minus those with an ``infeasible`` verdict."""
    return [r for r in reports if verdict_of(r) != VERDICT_INFEASIBLE]


def demote_infeasible(reports):
    """Move ``infeasible`` reports below the rest (both groups keep
    their relative order) and renumber ``rank`` annotations."""
    kept = [r for r in reports if verdict_of(r) != VERDICT_INFEASIBLE]
    demoted = [r for r in reports if verdict_of(r) == VERDICT_INFEASIBLE]
    if not demoted:
        return reports
    ranked = kept + demoted
    for position, report in enumerate(ranked, 1):
        if "rank" in report.annotations:
            report.annotations["rank"] = position
    return ranked


def apply_refine_mode(reports, mode):
    """Apply one ``--refine`` mode to an already-ranked report list.

    ``annotate`` leaves the order untouched (verdicts ride along as
    annotations only); ``demote`` sinks infeasible reports below the
    rest; ``drop`` removes them and renumbers the survivors' ``rank``
    annotations so rendered output stays 1-based and gapless.
    """
    if mode == "drop":
        kept = drop_infeasible(reports)
        if len(kept) != len(reports):
            for position, report in enumerate(kept, 1):
                if "rank" in report.annotations:
                    report.annotations["rank"] = position
        return kept
    if mode == "demote":
        return demote_infeasible(reports)
    return reports
