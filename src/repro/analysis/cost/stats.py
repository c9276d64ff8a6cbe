"""Cheap EDB statistics for the cost analyzer.

The bound formulas in :mod:`repro.analysis.cost.bounds` are expressed
over a handful of aggregate quantities of the query's reachable region:
the magic-side node/arc counts, per-node L/E fan-outs, the *full
relation* L in-degrees (the paper's nested-loop joins probe ``L(None,
x1)``, which charges every predecessor whether reachable or not), and
the answer-side sweep cost ``n_R + m_R``.

Collecting them exactly costs two bounded closures over the query's
shared adjacency index (L forward from the source — breadth-first, so
the walk that finds the region also measures the shortest distances the
abstract interpretation starts from — and R backward from the exit
targets, which keeps only the two integers the formulas read, ``n_R``
and ``m_R``) — nothing that grows with the relations outside the
region.  Both closures respect a *node budget*: the moment
more nodes are discovered than the budget allows, the explorer gives up
and **widens** — the region is replaced by the whole-relation superset
(every L target plus the source; every R first column plus every E
target) and the widening is recorded as an explicit assumption on the
certificate.  Widened statistics are still *sound* (every true region
is a subset of the widened one and every bound formula is monotone in
the region), just loose; the analyzer never samples-and-guesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ...core.csl import CSLQuery
from ...core.graph_index import Condensation, bfs_depths

#: Default exploration budget: regions larger than this are widened to
#: whole-relation aggregates instead of being traversed.
DEFAULT_NODE_BUDGET = 4096


@dataclass(frozen=True)
class RegionStatistics:
    """Aggregate statistics of (a superset of) the reachable region.

    ``ms`` is a superset of the true magic set and ``n_y``/``m_r``
    count a superset of the true answer-side region; every derived
    aggregate is therefore an upper bound on its true counterpart, which
    is the only direction the bound formulas need.
    """

    source: object
    widened: bool
    #: True when the *magic-side* closure specifically gave up — the
    #: abstract interpretation needs distances over the real region, so
    #: it degrades to its coarsest element exactly when this is set.
    magic_widened: bool
    assumptions: Tuple[str, ...]
    ms: FrozenSet[object]
    #: Answer-side node count (the paper's ``n_R``).
    n_y: int
    #: R arcs inside the answer region (the paper's ``m_R``): the region
    #: is closed under full-relation R in-arcs, so the full in-degrees
    #: of its members count exactly the region arcs.
    m_r: int
    #: L successors of every ``ms`` node (adjacency for the abstract
    #: interpretation; only populated when the region was NOT widened).
    adjacency: Mapping[object, Set[object]] = field(repr=False)
    #: Full-relation L out-degree of the ``ms`` nodes.
    out_l: Mapping[object, int] = field(repr=False)
    #: Full-relation L in-degree of the ``ms`` nodes.
    in_l: Mapping[object, int] = field(repr=False)
    #: Full-relation E out-degree of the ``ms`` nodes.
    out_e: Mapping[object, int] = field(repr=False)
    #: Shortest L-distance from the source to every ``ms`` node (the one
    #: walk that finds the region also measures it; empty when the magic
    #: region was widened).
    depth: Mapping[object, int] = field(repr=False)
    #: The index's condensation of ``G_L`` (cyclic cores and topological
    #: rank; None when the magic region was widened — the abstraction
    #: reads no structure then).
    condensation: Optional[Condensation] = field(repr=False)
    #: ``(aggregate, node set) -> sum``: the bound formulas ask for the
    #: same few sums over the same few sets for every method.
    _sums: Dict[Tuple[str, FrozenSet[object]], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        """|MS| upper bound (the paper's ``n_L``)."""
        return len(self.ms)

    @cached_property
    def m(self) -> int:
        """L arcs leaving the region (the paper's ``m_L``)."""
        return self._degree_sum("out_l", self.out_l, self.ms)

    # --- the aggregate forms the bound formulas consume ----------------

    def _degree_sum(
        self, name: str, degree: Mapping[object, int], nodes: Iterable[object]
    ) -> int:
        """``Σ degree(v)`` over ``nodes``, once per (name, node set)."""
        nodes = frozenset(nodes)
        total = self._sums.get((name, nodes))
        if total is None:
            total = sum(map(degree.get, nodes, repeat(0)))
            self._sums[name, nodes] = total
        return total

    def probe_sum(self, nodes: Iterable[object]) -> int:
        """Σ (1 + outdeg_L(v)): cost of L-expanding each node once."""
        nodes = frozenset(nodes)
        return len(nodes) + self._degree_sum("out_l", self.out_l, nodes)

    def e_sum(self, nodes: Iterable[object]) -> int:
        """Σ (1 + outdeg_E(v)): cost of E-probing each node once."""
        nodes = frozenset(nodes)
        return len(nodes) + self._degree_sum("out_e", self.out_e, nodes)

    def lin_sum(self, nodes: Iterable[object]) -> int:
        """Σ indeg_L(v) over ``nodes`` (full-relation in-degrees)."""
        return self._degree_sum("in_l", self.in_l, nodes)

    def l_cross(self, sources: Iterable[object], targets) -> int:
        """Upper bound on ``|{(x, x1) in L : x in sources, x1 in
        targets}|`` without scanning L: the crossing arcs are at most
        the total out-degree of ``sources`` and at most the total
        in-degree of ``targets``, whichever is smaller."""
        out_total = self._degree_sum("out_l", self.out_l, sources)
        in_total = self.lin_sum(targets)
        return min(out_total, in_total)

    @property
    def answer_sweep(self) -> int:
        """``n_R + m_R``: one full descend level can cost at most this."""
        return self.n_y + self.m_r

    def summary(self) -> Dict[str, object]:
        return {
            "source": repr(self.source),
            "widened": self.widened,
            "n_l": self.n,
            "m_l": self.m,
            "n_r": self.n_y,
            "m_r": self.m_r,
            "assumptions": list(self.assumptions),
        }


def _answer_region(
    seeds: Set[object],
    predecessors: Mapping[object, List[object]],
    budget: Optional[int],
) -> Optional[Tuple[int, int]]:
    """``(n_R, m_R)`` of ``seeds`` closed backwards under ``R``: the
    nodes, and the arcs out of them, counted as the walk expands each
    node once.  None as soon as more than ``budget`` nodes are found
    (:func:`~repro.core.graph_index.closure`'s rule: the caller widens).
    """
    seen = set(seeds)
    stack = list(seen)
    arcs = 0
    while stack:
        if budget is not None and len(seen) > budget:
            return None
        reached = predecessors.get(stack.pop())
        if reached:
            arcs += len(reached)
            for node in reached:
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
    return len(seen), arcs


def collect_statistics(
    query: CSLQuery, node_budget: Optional[int] = DEFAULT_NODE_BUDGET
) -> RegionStatistics:
    """Two budgeted walks over the query's adjacency index.

    ``node_budget=None`` walks the whole region and never widens."""
    index = query.index
    assumptions: List[str] = []
    depth = bfs_depths(query.source, index.l_successors, node_budget)
    ms: Iterable[object] = depth
    ms_exceeded = node_budget is not None and len(depth) > node_budget
    if ms_exceeded:
        depth = {}
        ms = {query.source} | {c for _b, c in query.left}
        assumptions.append(
            f"magic region exceeded the {node_budget}-node exploration "
            "budget; widened to every L target plus the source"
        )

    # Answer region: E targets of the magic region, closed backwards
    # under R.  With a widened magic set the seed set is already a
    # superset of the true exit frontier, so the closure stays sound.
    exit_targets = {c for b in ms for c in index.e_successors.get(b, ())}
    answer_side = _answer_region(
        exit_targets, index.r_predecessors, node_budget
    )
    if answer_side is None:
        answers = {c for _b, c in query.exit} | {y for y, _y1 in query.right}
        answer_side = len(answers), sum(
            len(index.r_predecessors.get(y, ())) for y in answers
        )
        assumptions.append(
            f"answer region exceeded the {node_budget}-node exploration "
            "budget; widened to every E target plus every R first column"
        )
    n_y, m_r = answer_side

    def degrees(nodes, adjacency) -> Dict[object, int]:
        return {v: len(adjacency[v]) for v in nodes if v in adjacency}

    return RegionStatistics(
        source=query.source,
        widened=bool(assumptions),
        magic_widened=ms_exceeded,
        assumptions=tuple(assumptions),
        ms=frozenset(ms),
        n_y=n_y,
        m_r=m_r,
        adjacency={} if ms_exceeded else index.l_successors,
        depth=depth,
        condensation=None if ms_exceeded else index.condensation,
        out_l=degrees(ms, index.l_successors),
        in_l=degrees(ms, index.l_predecessors),
        out_e=degrees(ms, index.e_successors),
    )
