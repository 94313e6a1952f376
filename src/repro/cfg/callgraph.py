"""The call graph (§6, analysis pass step 2).

Functions with no callers are roots; recursive call chains are broken
arbitrarily so that every function is reachable from some root.
"""

import hashlib

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


class CallGraph:
    """Direct-call graph over a set of function definitions."""

    def __init__(self):
        self.functions = {}  # name -> FunctionDecl (definitions only)
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
        """Build from an iterable of TranslationUnits."""
        graph = cls()
        for unit in units:
            for decl in unit.functions():
                graph.add_function(decl)
        graph.link()
        return graph

    def add_function(self, decl):
        self.functions[decl.name] = decl
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
        self.callers = {name: set() for name in self.functions}
        for name, decl in self.functions.items():
            callees = decl.direct_callees
            if callees is None:
                callees = direct_callees(decl)
            self.callees[name] = frozenset(callees)
        for name, callees in self.callees.items():
            for callee in callees:
                if callee in self.callers:
                    self.callers[callee].add(name)

    def roots(self):
        """Entry points: functions with no callers, plus one arbitrary
        function per otherwise-unreachable recursive component."""
        roots = [name for name in self.functions if not self.callers[name]]
        reachable = self._reachable_from(roots)
        # Break recursion: repeatedly promote the lexicographically first
        # unreached function to a root ("broken arbitrarily", §6).
        remaining = sorted(set(self.functions) - reachable)
        while remaining:
            root = remaining[0]
            roots.append(root)
            reachable |= self._reachable_from([root])
            remaining = sorted(set(self.functions) - reachable)
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
        found = {name for name in names if name in self.functions}
        stack = list(found)
        while stack:
            name = stack.pop()
            for other in self.callers[name] | self.callees[name]:
                if other in self.functions and other not in found:
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
        functions = self.functions
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

    def _reachable_from(self, names):
        seen = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name in seen or name not in self.functions:
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
                if callee in self.functions and visited.get(callee) != "visiting":
                    visit(callee)
            visited[name] = "done"
            order.append(name)

        for name in sorted(self.functions):
            visit(name)
        return order

    def __contains__(self, name):
        return name in self.functions

    def __len__(self):
        return len(self.functions)
