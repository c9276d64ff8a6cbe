"""Query graphs (Section 3 of the paper).

Given a CSL query instance, the query graph ``G_Q`` is the subgraph — of
the graph ``G`` built from the ``L``, ``E`` and ``R`` relations — induced
by the nodes reachable from the source constant ``a``:

* **L-nodes** and **R-nodes** are distinct even when they carry the same
  value (the paper labels them; we keep two separate node sets);
* ``G_L`` (the *magic graph*): one arc ``(b, c)`` per pair ``(b, c) ∈ L``
  between reachable L-nodes — its node set is exactly the magic set;
* ``G_E``: one arc from L-node ``b`` to R-node ``c`` per usable pair
  ``(b, c) ∈ E``;
* ``G_R``: one **reversed** arc ``(c, b)`` per pair ``(b, c) ∈ R``.

This module builds the graph *unchar­ged* (it is an analysis artefact,
not a database computation) by walking the query's shared adjacency
index (:mod:`repro.core.graph_index`) from the source.  It is read
where the explicit arcs are the point: the DOT export draws them,
:func:`~repro.core.classification.classify_nodes` (the oracle) walks
them, and ``extended_counting`` takes its level cap from the node
counts.  The paper's statistics come from the cost analyzer's walk
(:func:`repro.core.complexity.compute_statistics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from .csl import CSLQuery, Pair
from .graph_index import closure


@dataclass
class QueryGraph:
    """The query graph ``G_Q = G_L ∪ G_E ∪ G_R`` of a CSL instance."""

    source: object
    l_nodes: Set[object] = field(default_factory=set)
    r_nodes: Set[object] = field(default_factory=set)
    l_arcs: Set[Pair] = field(default_factory=set)
    e_arcs: Set[Pair] = field(default_factory=set)
    r_arcs: Set[Pair] = field(default_factory=set)

    # --- derived counts (the paper's n / m quantities) -------------------

    @property
    def n_l(self) -> int:
        return len(self.l_nodes)

    @property
    def n_r(self) -> int:
        return len(self.r_nodes)

    @property
    def n(self) -> int:
        return self.n_l + self.n_r

    @property
    def m_l(self) -> int:
        return len(self.l_arcs)

    @property
    def m_e(self) -> int:
        return len(self.e_arcs)

    @property
    def m_r(self) -> int:
        return len(self.r_arcs)

    @property
    def m(self) -> int:
        return self.m_l + self.m_e + self.m_r

    @property
    def magic_set(self) -> Set[object]:
        """``MS = N_L`` (Proposition 1)."""
        return self.l_nodes

    def l_successors(self) -> Dict[object, Set[object]]:
        adjacency: Dict[object, Set[object]] = {b: set() for b in self.l_nodes}
        for b, c in self.l_arcs:
            adjacency[b].add(c)
        return adjacency

    def __repr__(self):
        return (
            f"QueryGraph(source={self.source!r}, n_L={self.n_l}, m_L={self.m_l}, "
            f"n_R={self.n_r}, m_R={self.m_r}, m_E={self.m_e})"
        )


def build_query_graph(query: CSLQuery) -> QueryGraph:
    """Construct ``G_Q`` by reachability from the source.

    Following the note in DESIGN.md, an ``E`` pair ``(b, c)`` whose target
    ``c`` never occurs in ``R`` still contributes an R-node (with no
    outgoing ``G_R`` arcs) so the graph semantics exactly matches the
    Datalog semantics.
    """
    index = query.index
    graph = QueryGraph(source=query.source)
    graph.l_nodes = closure([query.source], index.l_successors)
    graph.l_arcs = {
        (b, c) for b in graph.l_nodes for c in index.l_successors.get(b, ())
    }
    graph.e_arcs = {
        (b, c) for b in graph.l_nodes for c in index.e_successors.get(b, ())
    }
    # G_R arcs are reversed R pairs: (b, c) in R gives the arc (c, b).
    graph.r_nodes = closure(
        {c for _b, c in graph.e_arcs}, index.r_predecessors
    )
    graph.r_arcs = {
        (c, b) for c in graph.r_nodes for b in index.r_predecessors.get(c, ())
    }
    return graph
