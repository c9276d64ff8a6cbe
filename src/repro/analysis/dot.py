"""Graphviz DOT export of query graphs.

Renders ``G_Q`` the way the paper draws Figure 1: L-nodes and R-nodes as
separate clusters, ``G_R`` arcs bold (the "darker arcs"), ``G_E`` arcs
dashed, and — beyond the paper — node colours encoding the
single/multiple/recurring classification so the RC/RM split is visible
at a glance.  The output is plain DOT text; render it with
``dot -Tpng``.

Drawing needs the arcs themselves, so this module walks the explicit
:func:`~repro.core.query_graph.build_query_graph` and classifies it
with :func:`~repro.core.classification.classify_graph`.
"""

from __future__ import annotations

from ..core.classification import classify_graph
from ..core.csl import CSLQuery
from ..core.query_graph import build_query_graph

_CLASS_COLORS = {
    "single": "#8bc34a",     # green  — countable
    "multiple": "#ffb300",   # amber  — countable with care
    "recurring": "#e53935",  # red    — magic territory
}


def _quote(value) -> str:
    text = str(value).replace('"', '\\"')
    return f'"{text}"'


def query_graph_to_dot(query: CSLQuery, title: str = "query graph") -> str:
    """Render the query graph of ``query`` as DOT text."""
    graph = build_query_graph(query)
    classification = classify_graph(graph)

    lines = [
        "digraph query_graph {",
        f"  label={_quote(title)};",
        "  rankdir=BT;",
        "  node [style=filled, fontname=Helvetica];",
    ]

    lines.append("  subgraph cluster_L {")
    lines.append('    label="G_L (magic graph)";')
    for node in sorted(graph.l_nodes, key=repr):
        node_class = classification.node_class(node).value
        color = _CLASS_COLORS[node_class]
        shape = "doublecircle" if node == graph.source else "circle"
        lines.append(
            f"    L{_quote(node)} [label={_quote(node)}, "
            f'fillcolor="{color}", shape={shape}];'
        )
    lines.append("  }")

    lines.append("  subgraph cluster_R {")
    lines.append('    label="G_R (answer side)";')
    for node in sorted(graph.r_nodes, key=repr):
        lines.append(
            f"    R{_quote(node)} [label={_quote(node)}, "
            'fillcolor="#e0e0e0", shape=box];'
        )
    lines.append("  }")

    for b, c in sorted(graph.l_arcs, key=repr):
        lines.append(f"  L{_quote(b)} -> L{_quote(c)};")
    for b, c in sorted(graph.e_arcs, key=repr):
        lines.append(f"  L{_quote(b)} -> R{_quote(c)} [style=dashed];")
    for b, c in sorted(graph.r_arcs, key=repr):
        lines.append(f"  R{_quote(b)} -> R{_quote(c)} [penwidth=2];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def magic_graph_to_dot(query: CSLQuery, title: str = "magic graph") -> str:
    """Render only ``G_L`` (a Figure-2 style picture)."""
    graph = build_query_graph(query)
    classification = classify_graph(graph)
    lines = [
        "digraph magic_graph {",
        f"  label={_quote(title)};",
        "  rankdir=BT;",
        "  node [style=filled, shape=circle, fontname=Helvetica];",
    ]
    for node in sorted(graph.l_nodes, key=repr):
        node_class = classification.node_class(node).value
        color = _CLASS_COLORS[node_class]
        shape = "doublecircle" if node == graph.source else "circle"
        lines.append(
            f"  {_quote(node)} [fillcolor=\"{color}\", shape={shape}];"
        )
    for b, c in sorted(graph.l_arcs, key=repr):
        lines.append(f"  {_quote(b)} -> {_quote(c)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
