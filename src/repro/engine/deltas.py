"""Per-root cross-extension state deltas (incremental global checkers).

The paper's §7.1 global checkers communicate across roots through two
channels: :class:`~repro.engine.composition.AnnotationStore` entries and
per-extension user globals (metal's global C variables).  Both are keyed
by in-memory identity, so a per-(extension, root) artifact was never
enough to replay a coupled run — PR 3's incremental session simply fell
back to a full re-analysis whenever either channel was touched.

This module makes that state serializable:

* :func:`annotation_node_key` names an annotated node *positionally*
  (owning function, node kind, source location, structural digest) so a
  later process can re-attach the value to the equivalent node of a
  freshly parsed tree.
* :class:`DeltaTracker` observes annotation-store and user-global
  traffic while an (extension, root) pair runs and diffs the environment
  at root end, producing a :class:`RootDelta` — the net writes plus the
  coarse read set used for dirty-cone scheduling.
* :class:`DeltaResolver` maps a stored delta back onto the current
  analysis' AST/CFG node objects so replayed writes land on the very
  objects subsequently analyzed roots will read.

Capture is diff-based: only the *net* effect of a root is recorded (a
value written then deleted inside one root leaves no trace), which is
exactly what a later root can observe.  Values must pickle; a root that
stores something opaque (a lambda, an open file) gets ``delta.opaque``
set and its artifact is never persisted — it simply re-analyzes every
run, loudly counted, instead of poisoning the cache.
"""

import hashlib
import pickle

from repro.cfg.blocks import ReturnMarker
from repro.cfront.astnodes import Node, structural_key

# Marker for values that could not be pickled.  Deltas containing it are
# opaque (never persisted); trackers use it so an unpicklable baseline
# value still participates in change detection (opaque == always changed).
_OPAQUE = object()


def _pickled(value):
    """Stable bytes for change comparison, or ``None`` when the value
    cannot be serialized."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None


def clone_value(value):
    """A private copy of a replayed value, so in-place mutations by later
    roots never reach the cached artifact object."""
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _structural_digest(node):
    return hashlib.sha256(repr(structural_key(node)).encode("utf-8")).hexdigest()[:16]


def annotation_node_key(function, node):
    """A process-independent name for an annotated node.

    ``(function, kind, filename, line, column, digest)`` — the owning
    function is the one being traversed when the annotation was written
    (annotations always land on nodes of the function the DFS is in), the
    digest disambiguates structurally different nodes sharing a location.
    Returns ``None`` for nodes that cannot be re-found (synthetic points
    outside any AST/CFG), which makes the whole delta opaque.
    """
    location = getattr(node, "location", None)
    if isinstance(node, ReturnMarker):
        digest = _structural_digest(node.expr)
        kind = "ReturnMarker"
    elif isinstance(node, Node):
        digest = _structural_digest(node)
        kind = type(node).__name__
    else:
        return None
    if location is None:
        return None
    return (
        function,
        kind,
        location.filename,
        location.line,
        location.column,
        digest,
    )


class RootDelta:
    """The net cross-root effect of one (extension, root) run.

    * ``ann_writes`` — list of ``(node_key, annotation_key, value)``.
    * ``glob_writes`` — ``{(ext_name, var): value}`` final values.
    * ``glob_dels`` — ``{(ext_name, var)}`` keys the root removed.
    * ``reads`` — coarse read set: ``("glob", ext, var)`` for a keyed
      user-global read, ``("glob*", ext)`` for iteration/len over the
      dict, ``("ann*",)`` for an ``nodes_with`` sweep.  Keyed annotation
      reads are *not* recorded: an annotation read always targets a node
      inside a function the root traverses, so read-intersection for
      annotations is computed from call-graph reachability instead.
    * ``opaque`` — an unpicklable value was written; the delta cannot be
      persisted or replayed.
    """

    __slots__ = ("ann_writes", "glob_writes", "glob_dels", "reads", "opaque")

    def __init__(self, ann_writes=(), glob_writes=None, glob_dels=(),
                 reads=(), opaque=False):
        self.ann_writes = list(ann_writes)
        self.glob_writes = dict(glob_writes or {})
        self.glob_dels = set(glob_dels)
        self.reads = set(reads)
        self.opaque = bool(opaque)

    def has_writes(self):
        return bool(self.ann_writes or self.glob_writes or self.glob_dels
                    or self.opaque)

    def write_functions(self):
        """Functions containing this delta's annotation writes.  Unkeyable
        writes (synthetic per-path nodes) are skipped: no other root can
        reach those objects, so they cannot create read intersections."""
        return {key[0] for key, _, _ in self.ann_writes if key is not None}

    def glob_write_keys(self):
        """Coarse keys for this delta's user-global writes/deletes."""
        keys = {("glob",) + pair for pair in self.glob_writes}
        keys.update(("glob",) + pair for pair in self.glob_dels)
        return keys

    def __getstate__(self):
        return {
            "ann_writes": self.ann_writes,
            "glob_writes": self.glob_writes,
            "glob_dels": sorted(self.glob_dels),
            "reads": sorted(self.reads),
            "opaque": self.opaque,
        }

    def __setstate__(self, state):
        self.__init__(
            state.get("ann_writes", ()),
            state.get("glob_writes"),
            state.get("glob_dels", ()),
            state.get("reads", ()),
            state.get("opaque", False),
        )

    def __repr__(self):
        return "RootDelta(ann=%d, glob=%d, dels=%d, reads=%d%s)" % (
            len(self.ann_writes), len(self.glob_writes),
            len(self.glob_dels), len(self.reads),
            ", opaque" if self.opaque else "",
        )


def delta_changes(old, new):
    """What changed between two deltas for the same (extension, root).

    Returns ``(changed_functions, changed_glob_keys)`` — the functions
    whose annotation writes differ and the ``("glob", ext, var)`` keys
    whose values differ.  ``None`` on either side means "unknown": every
    write of the other side counts as changed.  Values are compared by
    re-pickling; unpicklable values always count as changed.
    """
    changed_fns = set()
    changed_glob = set()

    def ann_map(delta):
        out = {}
        for node_key, ann_key, value in delta.ann_writes:
            if node_key is None:
                continue  # per-path synthetic node: unreachable from elsewhere
            out[(node_key, ann_key)] = _pickled(value)
        return out

    def glob_map(delta):
        out = {pair: _pickled(value)
               for pair, value in delta.glob_writes.items()}
        for pair in delta.glob_dels:
            out[pair] = b"$deleted"
        return out

    # ``None`` from ``get`` covers both "absent on this side" and
    # "unpicklable value" — either way the entry counts as changed.
    old_ann = ann_map(old) if old is not None else {}
    new_ann = ann_map(new) if new is not None else {}
    for entry in set(old_ann) | set(new_ann):
        before, after = old_ann.get(entry), new_ann.get(entry)
        if before is None or after is None or before != after:
            changed_fns.add(entry[0][0])
    old_glob = glob_map(old) if old is not None else {}
    new_glob = glob_map(new) if new is not None else {}
    for pair in set(old_glob) | set(new_glob):
        before, after = old_glob.get(pair), new_glob.get(pair)
        if before is None or after is None or before != after:
            changed_glob.add(("glob",) + pair)
    return changed_fns, changed_glob


class TrackedGlobals(dict):
    """A per-extension user-global dict that reports reads and write
    candidates to a :class:`DeltaTracker`.

    Keyed reads record a ``("glob", ext, var)`` read; iteration, ``len``
    and friends record the ``("glob*", ext)`` wildcard plus every present
    key as a mutation candidate (the caller may mutate values it reached
    that way).
    """

    def __init__(self, ext_name, tracker, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ext_name = ext_name
        self.tracker = tracker

    # -- reads -------------------------------------------------------------

    def __getitem__(self, key):
        self.tracker.on_glob_read(self.ext_name, key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.tracker.on_glob_read(self.ext_name, key)
        return super().get(key, default)

    def __contains__(self, key):
        self.tracker.on_glob_read(self.ext_name, key)
        return super().__contains__(key)

    # -- bulk reads (wildcard) ---------------------------------------------

    def _bulk(self):
        self.tracker.on_glob_bulk(self.ext_name, super().keys())

    def __iter__(self):
        self._bulk()
        return super().__iter__()

    def __len__(self):
        self._bulk()
        return super().__len__()

    def keys(self):
        self._bulk()
        return super().keys()

    def values(self):
        self._bulk()
        return super().values()

    def items(self):
        self._bulk()
        return super().items()

    # -- writes ------------------------------------------------------------

    def __setitem__(self, key, value):
        self.tracker.on_glob_write(self.ext_name, key)
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        self.tracker.on_glob_read(self.ext_name, key)
        self.tracker.on_glob_write(self.ext_name, key)
        return super().setdefault(key, default)

    def __delitem__(self, key):
        self.tracker.on_glob_write(self.ext_name, key)
        super().__delitem__(key)

    def pop(self, key, *default):
        self.tracker.on_glob_write(self.ext_name, key)
        return super().pop(key, *default)

    def update(self, *args, **kwargs):
        staged = dict(*args, **kwargs)
        for key in staged:
            self.tracker.on_glob_write(self.ext_name, key)
        super().update(staged)

    def clear(self):
        for key in list(super().keys()):
            self.tracker.on_glob_write(self.ext_name, key)
        super().clear()


class DeltaTracker:
    """Observes annotation-store and user-global traffic and diffs the
    environment at root boundaries.

    The diff is restricted to *candidates* — slots the current root put
    or read (an in-place mutation requires reaching the value first), so
    a root's capture cost scales with what it touched, not with the
    accumulated environment.  Outside a root (``in_root`` False) write
    hooks update the pickled baseline directly: that is the replay path,
    whose writes must not be attributed to the next analyzed root.
    """

    def __init__(self, call_stack):
        #: The engine's live call stack (mutated in place by the engine):
        #: its last entry is the function being traversed.
        self._call_stack = call_stack
        # Global baselines: the pickled environment all prior roots built.
        self._ann_baseline = {}    # (node_id, ann_key) -> bytes or _OPAQUE
        self._glob_baseline = {}   # (ext_name, var) -> bytes or _OPAQUE
        # Per-root state.
        self.in_root = False
        self._ann_candidates = {}  # (node_id, ann_key) -> (node, ann_key, fn)
        self._glob_candidates = set()  # (ext_name, var)
        self._reads = set()
        self._ann_wildcard = False

    def _current_function(self):
        return self._call_stack[-1] if self._call_stack else None

    # -- root lifecycle ----------------------------------------------------

    def begin_root(self):
        self.in_root = True
        self._ann_candidates = {}
        self._glob_candidates = set()
        self._reads = set()
        self._ann_wildcard = False

    def end_root(self, store, user_globals):
        """Diff candidates against the baseline; returns the
        :class:`RootDelta` and folds the root's writes into the baseline.
        Written values are snapshots (unpickled from the baseline bytes),
        not the live objects: a later root may mutate a value in place,
        and the delta must hold what this root left."""
        self.in_root = False
        opaque = False
        ann_writes = []
        for slot_key, (node, ann_key, fn) in self._ann_candidates.items():
            current = store.get(node, ann_key, _OPAQUE)
            if current is _OPAQUE:  # never actually written
                if slot_key in self._ann_baseline:
                    # Annotation stores have no delete; a vanished baseline
                    # entry cannot happen.  Keep the baseline as-is.
                    pass
                continue
            raw = _pickled(current)
            before = self._ann_baseline.get(slot_key)
            if raw is None:
                opaque = True
                self._ann_baseline[slot_key] = _OPAQUE
                node_key = annotation_node_key(fn, node)
                ann_writes.append((node_key, ann_key, None))
                continue
            if before == raw:
                continue
            self._ann_baseline[slot_key] = raw
            node_key = annotation_node_key(fn, node)
            if node_key is None:
                opaque = True
                ann_writes.append((None, ann_key, None))
            else:
                ann_writes.append((node_key, ann_key, pickle.loads(raw)))
        glob_writes = {}
        glob_dels = set()
        for pair in self._glob_candidates:
            ext_name, var = pair
            mapping = user_globals.get(ext_name)
            present = mapping is not None and dict.__contains__(mapping, var)
            if present:
                current = dict.__getitem__(mapping, var)
                raw = _pickled(current)
                before = self._glob_baseline.get(pair)
                if raw is None:
                    opaque = True
                    self._glob_baseline[pair] = _OPAQUE
                    glob_writes[pair] = None
                elif before != raw:
                    self._glob_baseline[pair] = raw
                    glob_writes[pair] = pickle.loads(raw)
            elif pair in self._glob_baseline:
                del self._glob_baseline[pair]
                glob_dels.add(pair)
        reads = set(self._reads)
        if self._ann_wildcard:
            reads.add(("ann*",))
        return RootDelta(ann_writes, glob_writes, glob_dels, reads, opaque)

    # -- annotation-store hooks --------------------------------------------

    def on_ann_put(self, node, key, value):
        slot_key = (id(node), key)
        if not self.in_root:
            # Replay-time write: becomes part of the baseline environment.
            raw = _pickled(value)
            self._ann_baseline[slot_key] = _OPAQUE if raw is None else raw
            return
        if slot_key not in self._ann_candidates:
            self._ann_candidates[slot_key] = (
                node, key, self._current_function())

    def on_ann_get(self, node, key):
        if not self.in_root:
            return
        slot_key = (id(node), key)
        if slot_key not in self._ann_candidates:
            # A read is a mutation candidate: the root may alter the value
            # in place after reaching it.
            self._ann_candidates[slot_key] = (
                node, key, self._current_function())

    def on_ann_nodes_with(self, key):
        if self.in_root:
            self._ann_wildcard = True

    # -- user-global hooks -------------------------------------------------

    def on_glob_read(self, ext_name, var):
        if not self.in_root:
            return
        self._reads.add(("glob", ext_name, var))
        self._glob_candidates.add((ext_name, var))

    def on_glob_bulk(self, ext_name, keys):
        if not self.in_root:
            return
        self._reads.add(("glob*", ext_name))
        for var in keys:
            self._glob_candidates.add((ext_name, var))

    def on_glob_write(self, ext_name, var):
        if not self.in_root:
            # Replay-time write: the engine records the applied value via
            # note_replay_glob, which sees the value; nothing to do here.
            return
        self._glob_candidates.add((ext_name, var))

    def note_replay_glob(self, ext_name, var, value, deleted=False):
        """Record a replay-applied user-global in the baseline."""
        pair = (ext_name, var)
        if deleted:
            self._glob_baseline.pop(pair, None)
        else:
            raw = _pickled(value)
            self._glob_baseline[pair] = _OPAQUE if raw is None else raw


class UnresolvedDelta(Exception):
    """A stored delta names a node the current tree does not contain (or
    contains ambiguously) — the owning root must re-analyze."""


class ResolvedDelta:
    """A delta with annotation writes bound to the current analysis'
    node objects, ready to apply."""

    __slots__ = ("ann_ops", "glob_sets", "glob_dels")

    def __init__(self, ann_ops, glob_sets, glob_dels):
        self.ann_ops = ann_ops      # [(node, ann_key, value)]
        self.glob_sets = glob_sets  # [(ext_name, var, value)]
        self.glob_dels = glob_dels  # [(ext_name, var)]


class DeltaResolver:
    """Maps stored node keys back onto the current call graph's nodes.

    Indexes each function's AST (and, for ``ReturnMarker`` keys, its CFG)
    lazily.  A key that matches zero or several nodes raises
    :class:`UnresolvedDelta`; the session demotes that root into the
    dirty cone instead of replaying a guess.
    """

    def __init__(self, callgraph, cfg_provider):
        self._graph = callgraph
        self._cfg_provider = cfg_provider
        self._ast_index = {}   # function -> {base_key: [node]}
        self._cfg_indexed = set()

    def _index_function(self, function):
        index = self._ast_index.get(function)
        if index is None:
            index = {}
            decl = self._graph.functions.get(function)
            if decl is not None:
                for node in decl.walk():
                    self._add(index, function, node)
            self._ast_index[function] = index
        return index

    def _index_cfg(self, function):
        if function in self._cfg_indexed:
            return
        self._cfg_indexed.add(function)
        index = self._index_function(function)
        cfg = self._cfg_provider(function)
        if cfg is None:
            return
        for block in cfg.blocks:
            for item in block.items:
                if isinstance(item, ReturnMarker):
                    self._add(index, function, item)

    def _add(self, index, function, node):
        key = annotation_node_key(function, node)
        if key is None:
            return
        index.setdefault(key, []).append(node)

    def resolve(self, delta):
        if delta is None:
            return ResolvedDelta([], [], [])
        if delta.opaque:
            raise UnresolvedDelta("delta contains unserializable values")
        ann_ops = []
        for node_key, ann_key, value in delta.ann_writes:
            if node_key is None:
                raise UnresolvedDelta("annotation on an unkeyable node")
            function = node_key[0]
            index = self._index_function(function)
            if node_key[1] == "ReturnMarker":
                self._index_cfg(function)
            matches = index.get(node_key, ())
            if len(matches) != 1:
                raise UnresolvedDelta(
                    "%d nodes match %r in %s"
                    % (len(matches), node_key[1:], function))
            ann_ops.append((matches[0], ann_key, value))
        glob_sets = [(ext, var, value)
                     for (ext, var), value in sorted(
                         delta.glob_writes.items(),
                         key=lambda item: (item[0][0], str(item[0][1])))]
        glob_dels = sorted(delta.glob_dels,
                           key=lambda pair: (pair[0], str(pair[1])))
        return ResolvedDelta(ann_ops, glob_sets, glob_dels)
