"""The supergraph (§6.2, after Reps-Horwitz-Sagiv).

Construction from the paper: take the CFG of every function, add an entry
node ``sp`` and exit node ``ep`` per routine, split each call into a
callsite node ``cp`` and a return-site node ``rp``, then add edges
``cp -> sp(callee)`` and ``ep(callee) -> rp``; the only intraprocedural
successor of ``cp`` is ``rp``.

Our CFG builder already isolates call statements into their own blocks, so
the cp node *is* the call block and the rp node is its fall-through
successor.  The supergraph ties these to the callee CFGs and is the
structure Figure 5 displays; the engine itself follows calls directly but
uses the same cp/rp identification.
"""

from repro.cfront import astnodes as ast
from repro.cfg.builder import build_cfg


class CallSite:
    """One call split into its cp (call block) and rp (return block)."""

    __slots__ = ("caller", "call", "call_block", "return_block", "callee_name")

    def __init__(self, caller, call, call_block, return_block):
        self.caller = caller
        self.call = call
        self.call_block = call_block
        self.return_block = return_block
        self.callee_name = call.callee_name()

    def __repr__(self):
        return "<CallSite %s -> %s (B%d -> B%d)>" % (
            self.caller,
            self.callee_name,
            self.call_block.index,
            self.return_block.index if self.return_block else -1,
        )


class Supergraph:
    """CFGs for every function plus interprocedural linkage."""

    def __init__(self, callgraph):
        self.callgraph = callgraph
        self.cfgs = {}  # name -> CFG
        self.callsites = []  # list of CallSite
        self.callsites_by_block = {}  # id(block) -> [CallSite]

    def cfg(self, name):
        return self.cfgs.get(name)

    def entry(self, name):
        """The sp node of a function."""
        cfg = self.cfgs.get(name)
        return cfg.entry if cfg else None

    def exit(self, name):
        """The ep node of a function."""
        cfg = self.cfgs.get(name)
        return cfg.exit if cfg else None


def build_supergraph(callgraph, matched_call_filter=None):
    """Build the supergraph for a call graph.

    ``matched_call_filter(call)`` may return True for calls an extension
    matches; per the paper (Fig. 5 caption) those "are not considered
    callsites in the supergraph construction".
    """
    graph = Supergraph(callgraph)
    for name, decl in callgraph.functions.items():
        graph.cfgs[name] = build_cfg(decl)
    for name, cfg in graph.cfgs.items():
        for block in cfg.blocks:
            if not block.is_call_block:
                continue
            calls = [
                node
                for item in block.items
                if isinstance(item, ast.Node)
                for node in item.walk()
                if isinstance(node, ast.Call)
            ]
            for call in calls:
                if matched_call_filter is not None and matched_call_filter(call):
                    continue
                callee = call.callee_name()
                if callee is None or callee not in callgraph.functions:
                    continue
                return_block = block.successor(None)
                site = CallSite(name, call, block, return_block)
                graph.callsites.append(site)
                graph.callsites_by_block.setdefault(id(block), []).append(site)
    return graph
