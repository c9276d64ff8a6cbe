"""Ground-truth classification of magic-graph nodes (Section 3).

For each node ``b`` of the magic graph ``G_L``, ``I_b`` is the set of
path lengths from the source ``a`` to ``b``.  ``b`` is

* **single** when ``I_b`` is a singleton,
* **multiple** when ``I_b`` is finite with more than one element,
* **recurring** when ``I_b`` is infinite — by Proposition 1(c) exactly
  when some directed path from ``a`` to ``b`` passes through a cycle.

The magic graph is **regular** when every node is single.

The computation here is the oracle: it materializes the exact ``I_b``
sets, read by the Theorem 1/2 checks (``analysis/static/rewrite_check``,
``magic_counting(verify_conditions=True)``), the DOT export, and the
tests that hold the fast analyses to it: ``tests/test_classification.py``
(walk enumeration), ``tests/test_complexity.py`` (the statistics off the
cost analyzer's walk), ``tests/test_step1.py`` (the Step-1 fixpoints).

1. Tarjan SCC on ``G_L``; nodes of non-trivial components (or with a
   self-loop) are *cyclic cores*;
2. recurring = forward closure of the cores;
3. the subgraph induced by the non-recurring nodes is a DAG; a dynamic
   program over a topological order (Tarjan's, reversed) accumulates
   the exact distance sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Optional, Set

from .csl import CSLQuery
from .graph_index import bfs_depths, recurring_closure
from .query_graph import QueryGraph, build_query_graph


class NodeClass(Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"
    RECURRING = "recurring"


class MagicGraphClass(Enum):
    """The three magic-graph regimes of the paper's cost tables."""

    REGULAR = "regular"
    ACYCLIC = "acyclic"  # non-regular but cycle-free
    CYCLIC = "cyclic"


@dataclass
class Classification:
    """Node classes and distance sets of one magic graph."""

    source: object
    distance_sets: Dict[object, FrozenSet[int]] = field(default_factory=dict)
    single: Set[object] = field(default_factory=set)
    multiple: Set[object] = field(default_factory=set)
    recurring: Set[object] = field(default_factory=set)
    shortest_distance: Dict[object, int] = field(default_factory=dict)

    @property
    def is_regular(self) -> bool:
        return not self.multiple and not self.recurring

    @property
    def is_cyclic(self) -> bool:
        return bool(self.recurring)

    @property
    def counting_safe(self) -> bool:
        """True when the pure counting method terminates on this graph
        (no recurring node — equivalently, no reachable L-cycle)."""
        return not self.recurring

    @property
    def graph_class(self) -> MagicGraphClass:
        if self.recurring:
            return MagicGraphClass.CYCLIC
        if self.multiple:
            return MagicGraphClass.ACYCLIC
        return MagicGraphClass.REGULAR

    def node_class(self, node) -> NodeClass:
        if node in self.recurring:
            return NodeClass.RECURRING
        if node in self.multiple:
            return NodeClass.MULTIPLE
        return NodeClass.SINGLE

    def indices(self, node) -> Optional[FrozenSet[int]]:
        """``I_b`` for non-recurring ``b``; None when infinite."""
        return self.distance_sets.get(node)


def classify_graph(graph: QueryGraph) -> Classification:
    """Classify every node of the magic graph ``G_L`` of ``graph``."""
    successors = graph.l_successors()
    classification = Classification(source=graph.source)

    # Shortest distances — used for i_x and as a sanity anchor.
    classification.shortest_distance = bfs_depths(graph.source, successors)
    components, recurring = recurring_closure(graph.l_nodes, successors)
    classification.recurring = recurring

    # Distance sets for the non-recurring nodes: DP over the induced
    # (acyclic) subgraph.  Tarjan's output is reverse-topological, so
    # walking it backwards visits every node after its predecessors.
    finite_nodes = graph.l_nodes - recurring
    working: Dict[object, Set[int]] = {node: set() for node in finite_nodes}
    if graph.source in working:
        working[graph.source].add(0)
    for component in reversed(components):
        node = component[0]
        if node not in working:
            continue
        for successor in successors[node]:
            if successor in working:
                working[successor].update(i + 1 for i in working[node])

    for node in finite_nodes:
        indices = frozenset(working[node])
        classification.distance_sets[node] = indices
        if len(indices) == 1:
            classification.single.add(node)
        else:
            classification.multiple.add(node)
    return classification


def classify_nodes(query: CSLQuery) -> Classification:
    """Classification of the magic-graph nodes of ``query``."""
    return classify_graph(build_query_graph(query))


def boundary_index(classification: Classification) -> int:
    """The single methods' frontier ``i_x``: the maximum index such that
    every node with shortest distance less than ``i_x`` is single.

    On a regular graph this is ``max distance + 1`` (every node counted);
    the paper's Figure 2 has ``i_x = 2``.
    """
    non_single_distances = [
        distance
        for node, distance in classification.shortest_distance.items()
        if node in classification.multiple or node in classification.recurring
    ]
    if not non_single_distances:
        return max(classification.shortest_distance.values(), default=0) + 1
    return min(non_single_distances)
