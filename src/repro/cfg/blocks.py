"""Basic blocks and function CFGs.

Blocks are xgcc's "internal representation of the CFG for a function"
(§5.2); each one later carries a *block summary* and a *suffix summary*
(stored by the engine in :mod:`repro.engine.summaries`, keyed by block).

A block holds a list of *items* -- AST trees in source order.  An item is
one of:

* an expression tree (from an expression statement, a condition, a return
  value, or a declaration initializer rewritten as an assignment);
* a :class:`repro.cfront.astnodes.VarDecl` (scope entry; engine uses it to
  kill stale state and to know locals for refine/restore);
* a ``ReturnMarker`` (function return, possibly carrying the value tree).

Terminators: a block either falls through to one successor, branches on its
last condition tree (labelled True/False edges), dispatches a switch
(labelled case edges), or ends the function (exit block).
:meth:`BasicBlock.outcomes` states what a path learns on each edge; the
engine's DFS and refine's enumerator both fork through it.
"""

from repro.cfront import astnodes as ast


class Edge:
    """A CFG edge with an optional label.

    ``label`` is ``None`` for unconditional edges, ``True``/``False`` for
    branch edges, or ``("case", value)`` / ``"default"`` for switch edges.
    """

    __slots__ = ("target", "label")

    def __init__(self, target, label=None):
        self.target = target
        self.label = label

    def __repr__(self):
        return "Edge(B%d, %r)" % (self.target.index, self.label)


class ReturnMarker:
    """Marks a function return inside a block's item list."""

    __slots__ = ("expr", "location")

    def __init__(self, expr, location):
        self.expr = expr
        self.location = location

    def __repr__(self):
        return "ReturnMarker(%r)" % (self.expr,)


class BasicBlock:
    """One basic block."""

    def __init__(self, index):
        self.index = index
        self.items = []
        self.edges = []
        self.preds = []
        # The condition tree this block branches on (last item), if any.
        self.branch_cond = None
        # The switch discriminant tree, if this block ends in a switch.
        self.switch_cond = None
        # Variables assigned somewhere inside the loop this block heads.
        # Non-empty only for loop-header blocks; used for loop havoc (§8.3).
        self.havoc_vars = frozenset()
        # True for the synthetic function-exit block.
        self.is_exit = False
        # The Call statement item making this a callsite block, if the
        # builder isolated one here (supergraph cp node construction, §6.2).
        self.is_call_block = False

    def add_edge(self, target, label=None):
        edge = Edge(target, label)
        self.edges.append(edge)
        target.preds.append(self)
        return edge

    def outcomes(self):
        """``[(edge, facts)]`` for every successor edge, in edge order.

        ``facts`` are the ``(cond, truth)`` pairs a path taking the edge
        may assume: a branch edge asserts its condition with the edge's
        truth; a case edge asserts ``discriminant == constant``; the
        ``default`` edge asserts ``!=`` against every integer case
        constant; a plain edge (and a case whose label is not an integer)
        asserts nothing.  The exit block has no outcomes.
        """
        cond = self.branch_cond
        if cond is not None:
            return [(edge, ((cond, edge.label),)) for edge in self.edges]
        cond = self.switch_cond
        if cond is None:
            return [(edge, ()) for edge in self.edges]
        constants = [
            edge.label[1] for edge in self.edges
            if isinstance(edge.label, tuple) and isinstance(edge.label[1], int)
        ]
        out = []
        for edge in self.edges:
            label = edge.label
            if label == "default":
                facts = tuple(
                    (ast.Binary("==", cond, ast.IntLit(value)), False)
                    for value in constants
                )
            elif isinstance(label, tuple) and isinstance(label[1], int):
                facts = ((ast.Binary("==", cond, ast.IntLit(label[1])), True),)
            else:
                facts = ()
            out.append((edge, facts))
        return out

    def successor(self, label=None):
        for edge in self.edges:
            if edge.label == label:
                return edge.target
        return None

    def __repr__(self):
        return "<BasicBlock B%d items=%d succ=%s>" % (
            self.index,
            len(self.items),
            [e.target.index for e in self.edges],
        )


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, decl):
        self.decl = decl  # FunctionDecl
        self.name = decl.name
        self.blocks = []
        self.entry = self.new_block()
        self.exit = self.new_block()
        self.exit.is_exit = True

    def new_block(self):
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def unlink(self):
        """Drop every edge and predecessor list, so refcounting alone
        frees this graph (blocks and edges form cycles).  For a CFG
        nothing reads any more."""
        for block in self.blocks:
            block.edges = []
            block.preds = []

    def local_names(self):
        """Names of parameters and locals declared anywhere in the function."""
        names = {p.name for p in self.decl.params if p.name}
        for block in self.blocks:
            for item in block.items:
                if isinstance(item, ast.VarDecl):
                    names.add(item.name)
        return names

    def prune_unreachable(self):
        """Drop blocks unreachable from the entry (keep the exit block)."""
        reachable = set()
        stack = [self.entry]
        while stack:
            block = stack.pop()
            if block.index in reachable:
                continue
            reachable.add(block.index)
            for edge in block.edges:
                stack.append(edge.target)
        reachable.add(self.exit.index)
        kept = [b for b in self.blocks if b.index in reachable]
        for block in kept:
            block.edges = [e for e in block.edges if e.target.index in reachable]
            block.preds = [p for p in block.preds if p.index in reachable]
        self.blocks = kept
        for new_index, block in enumerate(self.blocks):
            block.index = new_index

    def __repr__(self):
        return "<CFG %s: %d blocks>" % (self.name, len(self.blocks))
