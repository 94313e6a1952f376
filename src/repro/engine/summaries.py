"""Block, suffix, and function summaries (§5.2, §6.2, Figures 5 and 6).

A block summary records, as directed edges between state tuples, how each
SM that reaches a block is transitioned while traversing it:

* transition edges ``(s, v:t->vs) -> (s', v:t->vs')`` -- one per state
  tuple that reaches the block (possibly the identity);
* add edges ``(s, v:t->unknown) -> (s', v:t->vs')`` -- a new instance was
  created in the block; the ``unknown`` start marks that the edge applies
  only when nothing is known about ``t`` at block entry;
* global edges ``(s, <>) -> (s', <>)`` -- how the block updates the global
  instance; relaxation matches these against add-edge starts.

Unlike Figure 5's one row per block, summaries live only at *heads*,
the entry block and the joins; each *run* of an extended basic block is
filed under the block it left from (docs/ENGINE.md, "Summaries").

A *suffix summary* for head ``h`` holds add/transition edges from ``h``
to the function's exit; the *function summary* is the entry block's
suffix summary.  Suffix summaries are computed by :func:`relax`, a
backwards walk over the heads of the path's backtrace (Figure 6).
"""

from collections import defaultdict

from repro.metal.sm import PLACEHOLDER, STOP
from repro.engine.state import UNKNOWN, describe_tuple

TRANSITION = "transition"
ADD = "add"

#: Version of the persisted summary/artifact format.  Bump whenever the
#: engine's observable behaviour changes (report fields, traversal
#: semantics, edge encoding): persisted frames from other versions stop
#: matching and are re-derived.
SUMMARY_VERSION = "5"


class Edge:
    """One summary edge.

    ``end_snapshot`` is a :class:`VarInstance` copy frozen at block exit
    (None for placeholder/global edges); function-summary application uses
    it to recreate instance state (value + data) in the caller.

    ``relax_only`` marks the special global edges §6.2 requires every
    block to record ("how that block updates the global instance") when
    the placeholder tuple was NOT actually part of the state that reached
    the block: they exist so add-edge relaxation can match their global
    values, but they are not cache entries -- the placeholder tuple is
    "ignored whenever active_vars is nonempty" (§5.3).
    """

    __slots__ = ("kind", "start", "end", "end_snapshot", "relax_only")

    def __init__(self, kind, start, end, end_snapshot=None, relax_only=False):
        self.kind = kind
        self.start = start
        self.end = end
        self.end_snapshot = end_snapshot
        self.relax_only = relax_only

    def key(self):
        return (self.kind, self.start, self.end, self.relax_only)

    @property
    def is_global_only(self):
        return self.start[1] == PLACEHOLDER and self.end[1] == PLACEHOLDER

    @property
    def ends_in_stop(self):
        rest = self.end[1]
        return rest != PLACEHOLDER and rest[2] == STOP

    def describe(self):
        return "%s --> %s" % (describe_tuple(self.start), describe_tuple(self.end))

    def __repr__(self):
        return "Edge(%s, %s)" % (self.kind, self.describe())


class EdgeSet:
    """A deduplicated set of edges with start-tuple indexing."""

    def __init__(self):
        self._edges = {}
        self._by_start = {}
        self._by_end = {}

    def add(self, edge):
        key = edge.key()
        if key in self._edges:
            return False
        self._edges[key] = edge
        self._by_start.setdefault(edge.start, []).append(edge)
        self._by_end.setdefault(edge.end, []).append(edge)
        return True

    def with_start(self, start):
        return self._by_start.get(start, ())

    def with_end(self, end):
        return self._by_end.get(end, ())

    def __iter__(self):
        return iter(self._edges.values())

    def __len__(self):
        return len(self._edges)


class BlockSummary:
    """The summaries kept at one head: its runs and its suffix summary."""

    def __init__(self):
        # Tail block index -> the block summary of the runs that left
        # this head's extended block from that tail.
        self.runs = defaultdict(EdgeSet)
        self.suffix = EdgeSet()  # suffix summary
        # Entry states of completed runs, as (gstate, frozenset of
        # non-placeholder tuples).  A cache hit needs a prior run whose
        # entry was a *subset* of the current state: only then were all
        # the creations the current state could still make (its unknown
        # objects) possible in the recorded run.  Tuple coverage alone
        # cannot see this -- "unknown" is the absence of a tuple.
        self.entry_states = set()

    def saw_subset_entry(self, gstate, tuples):
        """Did some completed run enter with ``gstate`` and a subset of
        ``tuples``?  (``tuples`` excludes the placeholder.)"""
        if (gstate, tuples) in self.entry_states:
            return True
        return any(
            g == gstate and prior <= tuples
            for g, prior in self.entry_states
        )

    def covers(self, start_tuple):
        """Does the cache contain this state tuple (as a transition edge
        start)?  Used by ``cache_misses`` (§5.3).  Relax-only global edges
        are not cache entries."""
        return any(
            edge.kind == TRANSITION and not edge.relax_only
            for run in self.runs.values()
            for edge in run.with_start(start_tuple)
        )


class SummaryTable:
    """Summaries for every head of one analysis run (one extension)."""

    def __init__(self):
        self._by_block = {}

    def get(self, block):
        summary = self._by_block.get(id(block))
        if summary is None:
            summary = BlockSummary()
            self._by_block[id(block)] = summary
        return summary

    def find(self, block):
        """``block``'s summary if it is a head that was traversed, else None."""
        return self._by_block.get(id(block))


def make_transition_edge(start_gstate, start_instance, end_gstate, end_instance):
    """Build a transition edge from an entry/exit instance pair.

    ``end_instance`` may be None to mean the instance was stopped.
    """
    if start_instance is None:
        start = (start_gstate, PLACEHOLDER)
        end = (end_gstate, PLACEHOLDER)
        return Edge(TRANSITION, start, end, None)
    start = start_instance.tuple_key(start_gstate)
    if end_instance is None:
        end = (
            end_gstate,
            (start_instance.var_name, start_instance.obj_key, STOP, None),
        )
        return Edge(TRANSITION, start, end, None)
    return Edge(
        TRANSITION, start, end_instance.tuple_key(end_gstate), end_instance.copy()
    )


def make_add_edge(start_gstate, end_gstate, end_instance):
    """Build an add edge for an instance created inside the block."""
    start = (start_gstate, (end_instance.var_name, end_instance.obj_key, UNKNOWN, None))
    return Edge(ADD, start, end_instance.tuple_key(end_gstate), end_instance.copy())


def relax(backtrace, local_filter=None, at_exit=False):
    """Compute suffix summaries along a finished (or aborted) path (Fig. 6).

    ``backtrace`` lists the path's heads, first to last, as ``(summary,
    run)`` pairs: ``run`` is the EdgeSet of the head's runs that left its
    extended block from the tail this path left it from.  The last pair
    is the head where the path ended: with ``at_exit`` its run reached the
    function's exit, and seeds its suffix summary; on a cache hit its run
    is None and its suffix edges seed the walk.

    ``local_filter`` -- a predicate over an edge -- drops edges that
    mention function-local objects: "the analysis would never use these
    edges" (Fig. 5 caption).

    Edges ending in a ``stop`` tuple are intentionally omitted (§6.2).  A
    stopped object that a later run creates again is not lost, though:
    the creation's add edge continues the stopped tuple as a transition.

    Returns the number of heads walked.
    """
    if at_exit:
        # "ep's suffix summary equals its block summary."
        last, run = backtrace[-1]
        for edge in run:
            _add_suffix(last, edge, local_filter)

    for index in range(len(backtrace) - 2, -1, -1):
        prev, run = backtrace[index]
        cur = backtrace[index + 1][0]
        for suffix_edge in list(cur.suffix):
            if suffix_edge.kind == ADD:
                # Match the add start against the run's global edges:
                # "these special transition edges will match the initial
                # state of an add edge if the values of the global
                # instance match."
                for prev_edge in run.with_end((suffix_edge.start[0], PLACEHOLDER)):
                    if prev_edge.start[1] != PLACEHOLDER:
                        continue
                    new_edge = Edge(
                        ADD,
                        (prev_edge.start[0], suffix_edge.start[1]),
                        suffix_edge.end,
                        suffix_edge.end_snapshot,
                    )
                    _add_suffix(prev, new_edge, local_filter)
                # An object stopped in the run is unknown again at cur's
                # entry, so a creation in the suffix continues the run's
                # stopped tuple.  The add edge alone would lose the object
                # whenever it was known on entry to prev ("the edge only
                # applies when we know nothing about t").
                rest = suffix_edge.start[1]
                stopped = (suffix_edge.start[0], (rest[0], rest[1], STOP, None))
                for prev_edge in run.with_end(stopped):
                    if prev_edge.kind != TRANSITION:
                        continue
                    new_edge = Edge(
                        TRANSITION,
                        prev_edge.start,
                        suffix_edge.end,
                        suffix_edge.end_snapshot,
                        relax_only=prev_edge.relax_only,
                    )
                    _add_suffix(prev, new_edge, local_filter)
            else:
                # "For a suffix transition edge, et, the algorithm looks for
                # an add edge or transition edge in prev's block summary
                # whose end tuple is equivalent to et's start tuple."
                for prev_edge in run.with_end(suffix_edge.start):
                    new_edge = Edge(
                        prev_edge.kind,
                        prev_edge.start,
                        suffix_edge.end,
                        suffix_edge.end_snapshot,
                        relax_only=prev_edge.relax_only or suffix_edge.relax_only,
                    )
                    _add_suffix(prev, new_edge, local_filter)
        # The paper stops early "when no new edges are propagated (i.e.,
        # the previous block's summary does not grow)".  That short-cut is
        # only safe when every head on the backtrace was seeded by this
        # same walk; when two paths share a tail (the second path's walk
        # finds the shared heads already populated), breaking here would
        # leave the divergent prefix without its suffix edges.  We walk the
        # whole backtrace instead -- it is bounded by the path length.
    return len(backtrace)


def _add_suffix(summary, edge, local_filter):
    if not edge.ends_in_stop and not (local_filter and local_filter(edge)):
        summary.suffix.add(edge)


class RootArtifact:
    """One root's complete, self-contained analysis outcome under one
    extension: the persistence unit of incremental re-analysis.

    Captured with root-scoped deduplication
    (:meth:`repro.engine.errors.ErrorLog.push_scope`), so the recorded
    reports and example/counterexample sites are this root's independent
    contribution -- replaying every root's artifact in serial order
    through a fresh log reproduces a cold run's output byte for byte,
    no matter which subset of roots was actually re-analyzed.

    ``clean`` is False when the root was degraded (budget blown, error
    recovered) -- degraded outcomes depend on budgets and wall clock, so
    the driver never persists them.  ``empty`` is True when replaying
    the artifact adds nothing to a merge log and it wrote no cross-root
    state; it is derived, so it is set on construction and on unpickling
    and never pickled.
    """

    #: The pickled fields.
    _STATE = ("ext_index", "extension", "root", "reports", "examples",
              "counterexamples", "degraded", "clean", "delta")
    __slots__ = _STATE + ("empty",)

    def __init__(self, ext_index, extension, root, reports, examples,
                 counterexamples, degraded, clean, delta=None):
        self.ext_index = ext_index
        self.extension = extension
        self.root = root
        self.reports = list(reports)
        self.examples = {k: set(v) for k, v in examples.items()}
        self.counterexamples = {k: set(v) for k, v in counterexamples.items()}
        self.degraded = list(degraded)
        self.clean = clean
        #: Optional :class:`repro.engine.deltas.RootDelta`: the net
        #: cross-root state (annotations, user globals) this root wrote,
        #: plus its coarse read set.  ``None`` means "not captured".
        self.delta = delta
        self._set_empty()

    def _set_empty(self):
        self.empty = not (
            self.reports or self.examples or self.counterexamples
            or self.degraded
            or (self.delta is not None and self.delta.has_writes())
        )

    def replay_into(self, log):
        """Append this root's contribution to a merge log (dedup applies
        at the merge, exactly as a serial run would apply it)."""
        for report in self.reports:
            log.add(report)
        for rule_id, sites in self.examples.items():
            log.examples.setdefault(rule_id, set()).update(sites)
        for rule_id, sites in self.counterexamples.items():
            log.counterexamples.setdefault(rule_id, set()).update(sites)

    def __getstate__(self):
        return {name: getattr(self, name) for name in self._STATE}

    def __setstate__(self, state):
        self.delta = None  # absent in pre-delta pickles
        for name, value in state.items():
            setattr(self, name, value)
        self._set_empty()

    def __repr__(self):
        return "<RootArtifact %s/%s %d reports%s>" % (
            self.extension, self.root, len(self.reports),
            "" if self.clean else " (degraded)",
        )
