"""Renderers over analysis artifacts: ranked reports, CFGs, call
graphs, and Figure-5-style summaries.

Report output is rendered here from the structured model
(:mod:`repro.reports.model`) -- the CLI and the daemon both call
:func:`render_reports`, which is the byte-identity surface (it must
reproduce the classic ranked text exactly); :func:`reports_to_json` /
:func:`load_report_json` are the lossless structured renderer pair
(``load → render == original text``).

The rest is the debugging surface for checker writers, exposed on the
CLI as ``xgcc --dump-cfg`` / ``--dump-callgraph`` / ``--dump-summaries``
(the latter needs a checker to run first, since summaries are an
analysis artifact).
"""

import json

from repro.cfront import astnodes as ast
from repro.cfront.unparse import unparse
from repro.cfg.blocks import ReturnMarker
from repro.reports.model import Report


def render_reports(reports, trace=False):
    """The ranked report lines, one (or one block, with ``trace``) per
    report -- byte-identical to the historical CLI output."""
    return "".join(
        report.render_text(trace=trace) + "\n" for report in reports
    )


def reports_to_json(reports, indent=2, docs=None):
    """The structured report document (``--report-json``); ``docs`` are
    the reports' documents when the caller built them already."""
    if docs is None:
        docs = [report.to_dict() for report in reports]
    return json.dumps(docs, indent=indent)


def load_report_json(text):
    """Reports back from :func:`reports_to_json` output (the round-trip:
    rendering the loaded reports reproduces the original text)."""
    return [Report.from_dict(doc) for doc in json.loads(text)]


def _item_text(item):
    if isinstance(item, ReturnMarker):
        if item.expr is None:
            return "return"
        return "return %s" % unparse(item.expr)
    if isinstance(item, ast.VarDecl):
        return unparse(item).strip()
    return unparse(item)


def _edge_text(edge):
    label = edge.label
    if label is None:
        text = ""
    elif label is True or label is False:
        text = "T:" if label else "F:"
    elif isinstance(label, tuple):
        text = "case %s:" % (label[1],)
    else:
        text = "%s:" % label
    return "%sB%d" % (text, edge.target.index)


def dump_cfg(cfg):
    """One function's CFG as indented text."""
    lines = ["CFG %s (%d blocks)" % (cfg.name, len(cfg.blocks))]
    for block in cfg.blocks:
        tags = []
        if block is cfg.entry:
            tags.append("entry")
        if block.is_exit:
            tags.append("exit")
        if block.is_call_block:
            tags.append("call")
        if block.havoc_vars:
            tags.append("loop-head havoc={%s}" % ",".join(sorted(block.havoc_vars)))
        header = "  B%d%s" % (block.index, (" [%s]" % ", ".join(tags)) if tags else "")
        lines.append(header)
        for item in block.items:
            lines.append("      %s" % _item_text(item))
        if block.edges:
            lines.append("      -> %s" % "  ".join(_edge_text(e) for e in block.edges))
    return "\n".join(lines)


def dump_cfg_dot(cfg):
    """One function's CFG in Graphviz DOT syntax."""
    lines = ["digraph \"%s\" {" % cfg.name, "  node [shape=box, fontname=monospace];"]
    for block in cfg.blocks:
        body = "\\l".join(_item_text(i).replace('"', '\\"') for i in block.items)
        shape = ""
        if block is cfg.entry:
            shape = ", color=green"
        elif block.is_exit:
            shape = ", color=red"
        lines.append('  B%d [label="B%d\\l%s\\l"%s];' % (
            block.index, block.index, body, shape))
    for block in cfg.blocks:
        for edge in block.edges:
            label = ""
            if edge.label is True:
                label = ' [label="T"]'
            elif edge.label is False:
                label = ' [label="F"]'
            elif isinstance(edge.label, tuple):
                label = ' [label="case %s"]' % (edge.label[1],)
            elif edge.label == "default":
                label = ' [label="default"]'
            lines.append("  B%d -> B%d%s;" % (block.index, edge.target.index, label))
    lines.append("}")
    return "\n".join(lines)


def dump_callgraph(callgraph):
    """The call graph with roots marked."""
    roots = set(callgraph.roots())
    lines = ["callgraph (%d functions, %d roots)" % (len(callgraph), len(roots))]
    for name in sorted(callgraph.functions):
        marker = "*" if name in roots else " "
        callees = sorted(
            c for c in callgraph.callees.get(name, ()) if c in callgraph.functions
        )
        external = sorted(
            c for c in callgraph.callees.get(name, ()) if c not in callgraph.functions
        )
        line = " %s %s -> %s" % (marker, name, ", ".join(callees) or "(leaf)")
        if external:
            line += "   [external: %s]" % ", ".join(external)
        lines.append(line)
    return "\n".join(lines)


def dump_summaries(analysis, table, function_names=None):
    """Figure-5-style summary rows after an analysis run: one block
    summary per tail a head's runs left from, then the head's suffix
    summary (only heads keep summaries; docs/ENGINE.md, "Summaries")."""
    lines = []
    names = function_names or sorted(analysis.callgraph.functions)
    for name in names:
        cfg = analysis._cfg(name)
        lines.append("== %s ==" % name)
        for block in cfg.blocks:
            summary = table.find(block)
            if summary is None:
                continue  # not a head, or never reached
            label = "B%d" % block.index
            for tail, edges in sorted(summary.runs.items()):
                lines.append("  %-4s ->B%-3d %s" % (
                    label, tail, _rows(edges) or "(none)"))
                label = ""
            lines.append("  %-4s sfx:   %s" % (
                label, _rows(summary.suffix) or "(none)"))
    return "\n".join(lines)


def _rows(edges):
    return "; ".join(sorted(
        edge.describe() for edge in edges if not edge.is_global_only))
