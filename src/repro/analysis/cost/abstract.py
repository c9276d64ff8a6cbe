"""Abstract interpretation of the magic-graph dynamics.

The concrete property every Step-1 strategy revolves around is the
*index set* ``I_v`` — the set of distinct L-path lengths from the
source to ``v``.  Materializing the sets is what the expensive Step-1
fixpoints do at run time; the analyzer instead propagates an
:class:`~repro.analysis.cost.domain.Interval` abstraction over the
SCC-condensed graph:

* **cycle participation** — Tarjan SCC over the region adjacency finds
  the cyclic cores; their forward closure is the *recurring* set
  (``I_v`` infinite), exactly as ``recurring_step1_scc`` computes it.
* **distance interval** ``[dmin_v, dmax_v]`` — BFS shortest distance
  plus longest-path DP over the residual DAG.  All paths to a
  non-recurring node avoid recurring nodes (the recurring set is closed
  under successors), so the DP is well-founded.  A non-recurring node
  is *provably single* iff ``dmin == dmax`` — both ends are realized
  path lengths, so the interval collapses exactly when ``|I_v| = 1``.
* **index multiplicity** ``hi_v >= |I_v|`` — interval recurrence
  ``hi_v = min(Σ_preds hi_u, dmax_v - dmin_v + 1, n)`` (every index
  arrives through some predecessor; indices live inside the distance
  interval; a non-recurring node has at most ``n`` distinct simple-path
  lengths).

When the region statistics were widened the abstraction degrades to its
coarsest element: every node maybe-recurring *and* maybe-finite with
multiplicity ``n``, no distance information, and the degradation is
recorded as an assumption.  Every downstream formula then takes the
worst case over both possibilities, which keeps the certificate sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from ...core.graph_index import bfs_depths, recurring_closure
from .domain import INF, Interval
from .stats import RegionStatistics


@dataclass(frozen=True)
class MultiplicityAbstract:
    """The fixpoint of the abstract dynamics over one region."""

    source: object
    #: Coarsest element: no structure known beyond the node superset.
    widened: bool
    nodes: FrozenSet[object]
    #: Superset of the nodes with infinite index sets (exact when not
    #: widened — SCC reachability is precise on the explored graph).
    recurring: FrozenSet[object]
    #: ``nodes - recurring``; empty in widened mode (every node is
    #: *maybe* recurring, so no node is certifiably finite).
    finite: FrozenSet[object]
    #: Distance interval per reachable node (exact ``dmin``; ``dmax``
    #: is INF for recurring nodes).  Empty when widened.
    distance: Mapping[object, Interval]
    #: Index-multiplicity upper bound per finite node.
    multiplicity: Mapping[object, Interval]
    assumptions: Tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def is_certified_acyclic(self) -> bool:
        """True when the analyzer *proved* no reachable node recurs."""
        return not self.widened and not self.recurring

    @property
    def provably_single(self) -> FrozenSet[object]:
        """Nodes with a collapsed distance interval: ``|I_v| = 1``."""
        if self.widened:
            return frozenset()
        return frozenset(
            v for v in self.finite if self.distance[v].is_exact
        )

    @property
    def non_single(self) -> FrozenSet[object]:
        """Superset of the nodes with ``|I_v| >= 2``."""
        return self.nodes - self.provably_single

    @property
    def is_certified_regular(self) -> bool:
        return not self.widened and not self.non_single

    @property
    def frontier_index(self) -> float:
        """``i_x``: least shortest-distance of a non-single node.

        Exact in the unwidened abstraction (single-ness is exact there);
        INF when every node is single (the regular case) and 0 in the
        widened one (so the RC/RM splits derived from it stay
        supersets in both directions of use).
        """
        if self.widened:
            return 0
        candidates = [self.distance[v].lo for v in self.non_single]
        return min(candidates) if candidates else INF

    def hi(self, node: object) -> float:
        """Upper bound on ``|I_v|`` (INF for maybe-recurring nodes)."""
        if self.widened:
            return self.n
        if node in self.recurring:
            return INF
        return self.multiplicity[node].hi

    def max_dmin(self) -> int:
        if self.widened:
            return max(0, self.n - 1)
        return max((self.distance[v].lo for v in self.nodes), default=0)

    def max_dmax_finite(self) -> int:
        """Largest realized index of any certifiably finite node."""
        if self.widened:
            return max(0, self.n - 1)
        his = [self.distance[v].hi for v in self.finite]
        return int(max(his)) if his else 0

    def multiplicity_weighted(self, weight) -> float:
        """``Σ_{v finite} hi_v * weight(v)`` (the widened abstraction
        has no certifiably finite nodes, so the sum is 0 there — the
        widened formulas cover those nodes through the recurring side).
        """
        return sum(self.multiplicity[v].hi * weight(v) for v in self.finite)


def interpret(stats: RegionStatistics) -> MultiplicityAbstract:
    """Run the abstract dynamics to fixpoint over ``stats``' region."""
    if stats.magic_widened:
        return MultiplicityAbstract(
            source=stats.source,
            widened=True,
            nodes=stats.ms,
            recurring=stats.ms,
            finite=frozenset(),
            distance={},
            multiplicity={},
            assumptions=(
                "region widened: every node treated as both "
                "maybe-recurring and maybe-multiple",
            ),
        )

    nodes = stats.ms
    successors = stats.adjacency
    # Cycle participation, and exact shortest distances (every region
    # node is source-reachable).
    components, recurring = recurring_closure(nodes, successors)
    dmin = bfs_depths(stats.source, successors)

    # Longest path + multiplicity over the finite DAG.  Tarjan's output
    # is reverse-topological w.r.t. successors; walk it backwards so
    # predecessors are finished first.  All in-region predecessors of a
    # finite node are themselves finite (recurring is successor-closed).
    finite = frozenset(nodes - recurring)
    predecessors: Dict[object, List[object]] = {v: [] for v in finite}
    for v in finite:
        for successor in successors.get(v, ()):
            if successor in predecessors:
                predecessors[successor].append(v)
    n = len(nodes)
    dmax: Dict[object, int] = {}
    hi: Dict[object, float] = {}
    for component in reversed(components):
        value = component[0]
        if value not in predecessors:
            continue
        preds = predecessors[value]
        if value == stats.source:
            dmax[value] = 0
            hi[value] = 1
            continue
        dmax[value] = 1 + max(dmax[p] for p in preds)
        span = dmax[value] - dmin[value] + 1
        hi[value] = min(sum(hi[p] for p in preds), span, n)

    distance = {
        v: Interval(dmin[v], INF if v in recurring else dmax[v])
        for v in nodes
    }
    multiplicity = {v: Interval(1, hi[v]) for v in finite}

    return MultiplicityAbstract(
        source=stats.source,
        widened=False,
        nodes=nodes,
        recurring=frozenset(recurring),
        finite=finite,
        distance=distance,
        multiplicity=multiplicity,
        assumptions=(),
    )
