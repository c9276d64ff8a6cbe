"""Abstract interpretation of the magic-graph dynamics.

The concrete property every Step-1 strategy revolves around is the
*index set* ``I_v`` — the set of distinct L-path lengths from the
source to ``v``.  Materializing the sets is what the expensive Step-1
fixpoints do at run time; the analyzer instead propagates an
:class:`~repro.analysis.cost.domain.Interval` abstraction over the
SCC-condensed graph:

* **cycle participation** — the cyclic cores of ``G_L`` are a fact
  about ``L`` alone, so the index finds them at most once per pair-set
  version (:attr:`~repro.core.graph_index.GraphIndex.condensation`,
  which ``GraphIndex.patched`` carries across rank-respecting deltas);
  the region
  is closed under ``L``, so the forward closure of the cores it meets
  is its *recurring* set (``I_v`` infinite), exactly as
  ``recurring_step1_scc`` computes it.
* **distance interval** ``[dmin_v, dmax_v]`` — BFS shortest distance
  plus longest-path DP over the residual DAG, in the condensation's
  rank order.  All paths to a non-recurring node avoid recurring nodes
  (the recurring set is closed under successors), so the DP is
  well-founded.  A non-recurring node
  is *provably single* iff ``dmin == dmax`` — both ends are realized
  path lengths, so the interval collapses exactly when ``|I_v| = 1``.
* **index multiplicity** ``hi_v >= |I_v|`` — interval recurrence
  ``hi_v = min(Σ_preds hi_u, dmax_v - dmin_v + 1, n)`` (every index
  arrives through some predecessor; indices live inside the distance
  interval; a non-recurring node has at most ``n`` distinct simple-path
  lengths).

The state holds the intervals' ends as plain integers per node — the
bound formulas read one end at a time, once per served source — and
``distance``/``multiplicity`` present them as ``Interval`` maps.

When the region statistics were widened the abstraction degrades to its
coarsest element: every node maybe-recurring *and* maybe-finite with
multiplicity ``n``, no distance information, and the degradation is
recorded as an assumption.  Every downstream formula then takes the
worst case over both possibilities, which keeps the certificate sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ...core.classification import MagicGraphClass
from ...core.graph_index import closure
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
    #: Shortest distance from the source per reachable node (exact).
    #: Empty when widened.
    shortest: Mapping[object, int]
    #: Longest distance from the source per finite node (both ends are
    #: realized path lengths; a recurring node's is INF).
    longest: Mapping[object, int]
    #: Upper bound on the index multiplicity ``|I_v|`` per finite node.
    index_count: Mapping[object, int]
    assumptions: Tuple[str, ...]

    @cached_property
    def distance(self) -> Mapping[object, Interval]:
        """Distance interval per reachable node (exact ``dmin``; ``dmax``
        is INF for recurring nodes).  Empty when widened."""
        return {
            v: Interval(lo, self.longest.get(v, INF))
            for v, lo in self.shortest.items()
        }

    @cached_property
    def multiplicity(self) -> Mapping[object, Interval]:
        """Index-multiplicity interval per finite node."""
        return {v: Interval(1, hi) for v, hi in self.index_count.items()}

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def is_certified_acyclic(self) -> bool:
        """True when the analyzer *proved* no reachable node recurs."""
        return not self.widened and not self.recurring

    @cached_property
    def provably_single(self) -> FrozenSet[object]:
        """Nodes with a collapsed distance interval: ``|I_v| = 1``."""
        if self.widened:
            return frozenset()
        shortest = self.shortest
        return frozenset(
            v for v, reach in self.longest.items() if reach == shortest[v]
        )

    @cached_property
    def non_single(self) -> FrozenSet[object]:
        """Superset of the nodes with ``|I_v| >= 2``."""
        return self.nodes - self.provably_single

    @property
    def is_certified_regular(self) -> bool:
        return not self.widened and not self.non_single

    @property
    def graph_class(self) -> Optional[MagicGraphClass]:
        """The magic-graph regime this state *proves* — recurrence and
        single-ness are exact in the unwidened abstraction, so it is
        :func:`~repro.core.classification.classify_nodes`' class — or
        None when the region was widened and nothing is proved."""
        if self.widened:
            return None
        if self.recurring:
            return MagicGraphClass.CYCLIC
        if self.non_single:
            return MagicGraphClass.ACYCLIC
        return MagicGraphClass.REGULAR

    @cached_property
    def frontier_index(self) -> float:
        """``i_x``: least shortest-distance of a non-single node.

        Exact in the unwidened abstraction (single-ness is exact there);
        INF when every node is single (the regular case) and 0 in the
        widened one (so the RC/RM splits derived from it stay
        supersets in both directions of use).
        """
        if self.widened:
            return 0
        return min(map(self.shortest.get, self.non_single), default=INF)

    def hi(self, node: object) -> float:
        """Upper bound on ``|I_v|`` (INF for maybe-recurring nodes)."""
        if self.widened:
            return self.n
        if node in self.recurring:
            return INF
        return self.index_count[node]

    @cached_property
    def max_dmin(self) -> int:
        if self.widened:
            return max(0, self.n - 1)
        return max(self.shortest.values(), default=0)

    @cached_property
    def max_dmax_finite(self) -> int:
        """Largest realized index of any certifiably finite node."""
        if self.widened:
            return max(0, self.n - 1)
        return max(self.longest.values(), default=0)

    def multiplicity_weighted(self, degree: Mapping[object, int]) -> int:
        """``Σ_{v finite} hi_v * (1 + degree(v))``: what re-expanding
        every finite node once per collected index costs (the widened
        abstraction has no certifiably finite nodes, so the sum is 0
        there — the widened formulas cover those nodes through the
        recurring side)."""
        return sum(
            hi * (1 + degree.get(v, 0)) for v, hi in self.index_count.items()
        )


def interpret(stats: RegionStatistics) -> MultiplicityAbstract:
    """Run the abstract dynamics to fixpoint over ``stats``' region."""
    if stats.magic_widened:
        return MultiplicityAbstract(
            source=stats.source,
            widened=True,
            nodes=stats.ms,
            recurring=stats.ms,
            finite=frozenset(),
            shortest={},
            longest={},
            index_count={},
            assumptions=(
                "region widened: every node treated as both "
                "maybe-recurring and maybe-multiple",
            ),
        )

    nodes = stats.ms
    successors = stats.adjacency
    # Cycle participation, and exact shortest distances (every region
    # node is source-reachable).
    recurring = closure(nodes & stats.condensation.cores, successors)
    dmin = stats.depth

    # Longest path + multiplicity over the finite DAG, pushed along the
    # arcs in descending condensation rank, which finishes a node's
    # predecessors before the node.  All in-region predecessors of a
    # finite node are themselves finite (recurring is successor-closed)
    # and the source has none (one would close a cycle through it).  A
    # source outside ``L`` has no rank, and is a region by itself.
    finite = nodes - recurring
    n = len(nodes)
    dmax: Dict[object, int] = dict.fromkeys(finite, 0)
    arriving: Dict[object, int] = dict.fromkeys(finite, 0)
    hi: Dict[object, int] = {}
    if stats.source in finite:
        arriving[stats.source] = 1
    for value in sorted(
        finite, key=stats.condensation.rank.get, reverse=True
    ):
        reach = dmax[value]
        carried = hi[value] = min(arriving[value], reach - dmin[value] + 1, n)
        reach += 1
        for successor in successors.get(value, ()):
            if successor in arriving:
                arriving[successor] += carried
                if dmax[successor] < reach:
                    dmax[successor] = reach

    return MultiplicityAbstract(
        source=stats.source,
        widened=False,
        nodes=nodes,
        recurring=frozenset(recurring),
        finite=finite,
        shortest=dmin,
        longest=dmax,
        index_count=hi,
        assumptions=(),
    )
