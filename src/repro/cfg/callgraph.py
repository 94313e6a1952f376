"""The call graph (§6, analysis pass step 2).

Functions with no callers are roots; recursive call chains are broken
arbitrarily so that every function is reachable from some root.
"""

import functools
import hashlib
from collections.abc import Mapping

from repro.cfront import astnodes as ast


def direct_callees(decl):
    """The sorted tuple of names one function definition calls directly
    (sorted, so an AST frame that carries it pickles deterministically)."""
    names = set()
    for node in decl.body.walk():
        if isinstance(node, ast.Call):
            callee = node.callee_name()
            if callee is not None:
                names.add(callee)
    return tuple(sorted(names))


class FunctionTable(Mapping):
    """``{name: FunctionDecl}`` over a call graph's definitions.

    A definition registered from a pass-1 decl index (see
    :meth:`CallGraph.add_function`) resolves to its decl -- loading its
    unit's body -- on its first lookup.  Membership, iteration and
    length read the graph's :attr:`CallGraph.index` alone and never load
    a body.
    """

    def __init__(self, index):
        self._index = index
        self._decls = {}
        self._loaders = {}

    def _add(self, name, decl, load):
        if load is None:
            self._decls[name] = decl
            self._loaders.pop(name, None)
        else:
            self._decls.pop(name, None)
            self._loaders[name] = load

    def __getitem__(self, name):
        decl = self._decls.get(name)
        if decl is None:
            decl = self._decls[name] = self._loaders.pop(name)()
        return decl

    def __contains__(self, name):
        return name in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)


class CallGraph:
    """Direct-call graph over a set of function definitions."""

    def __init__(self):
        #: name -> what scheduling reads of a definition (``name``,
        #: ``location``, ``token_hash``, ``direct_callees``): its decl,
        #: or the decl-index entry of a unit whose body is not loaded.
        self.index = {}
        self.functions = FunctionTable(self.index)  # name -> FunctionDecl
        self.callees = {}  # name -> frozenset of called names (defined or not)
        self.callers = {}  # name -> set of defined caller names
        #: ``{salt: (local_hashes, fingerprints)}`` memo of
        #: :func:`repro.cfg.fingerprint.fingerprint_tables`; any mutation
        #: of the graph drops it.
        self.fingerprint_memo = {}
        #: ``{(names, interprocedural): frozenset}`` memo of
        #: :meth:`live_functions`; any mutation of the graph drops it.
        self.live_memo = {}
        #: :meth:`component_labels` memo; any mutation of the graph
        #: drops it.
        self.label_memo = None

    @classmethod
    def from_units(cls, units):
        """Build from an iterable of TranslationUnits or of pass-1
        :class:`repro.driver.project.CompiledUnit`s, whose unloaded
        bodies stay unloaded: their definitions register from the decl
        index."""
        graph = cls()
        for unit in units:
            if isinstance(unit, ast.TranslationUnit):
                for decl in unit.functions():
                    graph.add_function(decl)
                continue
            lazy = not unit.loaded
            for position, entry in enumerate(unit.function_entries()):
                graph.add_function(entry, functools.partial(
                    unit.function_decl, position) if lazy else None)
        graph.link()
        return graph

    def add_function(self, decl, load=None):
        """Register a definition: its decl, or with ``load`` a decl-index
        entry whose decl ``load()`` returns on first lookup."""
        self.index[decl.name] = decl
        self.functions._add(decl.name, decl, load)
        self.fingerprint_memo = {}
        self.live_memo = {}
        self.label_memo = None

    def link(self):
        """(Re)compute callee/caller sets, from the callee sets pass 1
        carried on each decl (walking the body only when absent)."""
        self.fingerprint_memo = {}
        self.live_memo = {}
        self.label_memo = None
        self.callees = {}
        self.callers = {name: set() for name in self.index}
        for name, entry in self.index.items():
            callees = entry.direct_callees
            if callees is None:
                callees = direct_callees(self.functions[name])
            self.callees[name] = frozenset(callees)
        for name, callees in self.callees.items():
            for callee in callees:
                if callee in self.callers:
                    self.callers[callee].add(name)

    def roots(self):
        """Entry points: functions with no callers, plus one arbitrary
        function per otherwise-unreachable recursive component."""
        roots = [name for name in self.index if not self.callers[name]]
        reachable = self.reachable_from(roots)
        # Break recursion: repeatedly promote the lexicographically first
        # unreached function to a root ("broken arbitrarily", §6).
        remaining = sorted(set(self.index) - reachable)
        while remaining:
            root = remaining[0]
            roots.append(root)
            reachable |= self.reachable_from([root])
            remaining = sorted(set(self.index) - reachable)
        return sorted(roots)

    def live_functions(self, names, interprocedural=True):
        """The defined functions whose analysis can meet a call to one
        of ``names`` (a frozenset): those that call one directly, and
        with ``interprocedural`` every function of a weakly connected
        component (:meth:`connected`) that holds such a caller.

        A component rather than the callers' reverse call cone: roots
        of one component share block summaries, and with false-path
        pruning a summary that one root's traversal leaves behind can
        change what a later root reports.  So a component is skipped
        whole or not at all (docs/ENGINE.md, "Live roots").
        """
        key = (names, interprocedural)
        live = self.live_memo.get(key)
        if live is None:
            live = {
                name for name, callees in self.callees.items()
                if not callees.isdisjoint(names)
            }
            if interprocedural:
                live = self.connected(live)
            live = self.live_memo[key] = frozenset(live)
        return live

    def connected(self, names):
        """The defined functions weakly connected to one of ``names``:
        the union of the weakly connected components that hold them
        (two functions share one when one transitively calls the other
        in either direction; calls to undefined externals connect
        nothing), found by a walk over those components only."""
        functions = self.index
        found = {name for name in names if name in functions}
        stack = list(found)
        while stack:
            name = stack.pop()
            for other in self.callers[name] | self.callees[name]:
                if other in functions and other not in found:
                    found.add(other)
                    stack.append(other)
        return found

    def component_labels(self):
        """``{function: label}`` over the defined functions, naming the
        *membership* of each one's weakly connected component
        (:meth:`connected`): ``""`` for a function that calls no
        defined function and has no caller, else a digest of the sorted
        member names.  Two graphs give a function the same label exactly
        when its component holds the same functions in both.  Memoized."""
        if self.label_memo is not None:
            return self.label_memo
        functions = self.index
        labels = {}
        for name in functions:
            if name in labels:
                continue
            if not self.callers[name] and not any(
                    callee in functions for callee in self.callees[name]):
                labels[name] = ""
                continue
            members = self.connected((name,))
            label = hashlib.sha256(
                "\x1f".join(sorted(members)).encode()).hexdigest()[:16]
            for member in members:
                labels[member] = label
        self.label_memo = labels
        return labels

    def reachable_from(self, names):
        """The defined functions ``names`` reach through call edges,
        ``names`` themselves included."""
        seen = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name in seen or name not in self.index:
                continue
            seen.add(name)
            stack.extend(self.callees.get(name, ()))
        return seen

    def topological_order(self):
        """Callees-before-callers order (cycles broken arbitrarily)."""
        order = []
        visited = {}

        def visit(name):
            state = visited.get(name)
            if state is not None:
                return
            visited[name] = "visiting"
            for callee in sorted(self.callees.get(name, ())):
                if callee in self.index and visited.get(callee) != "visiting":
                    visit(callee)
            visited[name] = "done"
            order.append(name)

        for name in sorted(self.index):
            visit(name)
        return order

    def __contains__(self, name):
        return name in self.index

    def __len__(self):
        return len(self.index)
