"""Backward relevant-variable slicing over one function CFG.

The refinement evaluator does not need the whole function: only the
variables the report's anchors, the branch conditions along candidate
paths, and the report's own variable depend on.  ``relevant_variables``
computes that set as a fixpoint -- seed it with the identifiers the
report can observe, then close under data flow: whenever a statement
assigns a relevant variable, everything its right-hand side reads
becomes relevant too.

The evaluator then *skips* assignments whose target is irrelevant
(:meth:`repro.refine.domain.RefineState.define`), which is sound
because an irrelevant variable is, by construction, never read by any
condition or anchor the verdict depends on.
"""

from repro.cfg.blocks import ReturnMarker
from repro.cfront import astnodes as ast
from repro.engine.falsepath import _base_variable


def _definition_edges(cfg):
    """``[(target_name, frozenset(rhs_names))]`` for every assignment
    (or ++/--) anywhere in the function."""
    edges = []
    for block in cfg.blocks:
        for item in block.items:
            if isinstance(item, (ast.VarDecl, ReturnMarker)):
                continue
            for node in item.walk():
                if isinstance(node, ast.Assign):
                    target = _base_variable(node.target)
                    if target is None:
                        continue
                    reads = set(ast.identifiers_in(node.value))
                    if node.op != "=":
                        reads |= ast.identifiers_in(node.target)
                    elif not isinstance(node.target, ast.Ident):
                        reads |= ast.identifiers_in(node.target)
                    edges.append((target, frozenset(reads)))
                elif isinstance(node, ast.Unary) and node.op in ("++", "--"):
                    target = _base_variable(node.operand)
                    if target is not None:
                        edges.append(
                            (target,
                             frozenset(ast.identifiers_in(node.operand)))
                        )
    return edges


def relevant_variables(cfg, anchor_lines, report_variable=None):
    """The variable names the refinement verdict can depend on.

    Seeds: the report's variable, every identifier in a branch/switch
    condition (candidate paths assume them), and every identifier in an
    item on an anchor line (the trace steps themselves).  Closure: if a
    statement assigns a relevant variable, its reads are relevant.
    """
    seed = set()
    if report_variable:
        seed.add(report_variable)
    anchor_set = set(anchor_lines)
    for block in cfg.blocks:
        if block.branch_cond is not None:
            seed |= ast.identifiers_in(block.branch_cond)
        if block.switch_cond is not None:
            seed |= ast.identifiers_in(block.switch_cond)
        for item in block.items:
            location = getattr(item, "location", None)
            if location is None or location.line not in anchor_set:
                continue
            if isinstance(item, ast.VarDecl):
                seed.add(item.name)
            elif isinstance(item, ReturnMarker):
                if item.expr is not None:
                    seed |= ast.identifiers_in(item.expr)
            else:
                seed |= ast.identifiers_in(item)
    edges = _definition_edges(cfg)
    changed = True
    while changed:
        changed = False
        for target, reads in edges:
            if target in seed and not (reads <= seed):
                seed |= reads
                changed = True
    return frozenset(seed)
