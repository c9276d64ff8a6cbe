"""Graph statistics and the paper's Θ cost formulas (Tables 1-5).

Section 3 and Sections 6-9 express every method's cost in terms of
quantities of the query graph.  :class:`GraphStatistics` holds all of
them; :func:`predicted_cost` evaluates the corresponding Θ-expression.
The benchmark harness (:func:`repro.analysis.runner.measure`) divides
measured tuple retrievals by these predictions across a size sweep — a
bounded ratio confirms the paper's asymptotic shape; ``repro analyze``,
the REPL and :mod:`repro.core.explain` print them.

:func:`compute_statistics` reads them off the cost analyzer's walk run
without a node budget (``collect_statistics`` then ``interpret``, in
:mod:`repro.analysis.cost`); unwidened, that abstraction is exact, so no
``I_b`` set is materialized.  ``tests/test_complexity.py`` holds every
field to the definitions below over ``build_query_graph`` →
``classify_graph``, the oracle.

Quantities (notation as in the paper; ``X̂`` rendered ``x_hat``):

=========  ==========================================================
``n_l, m_l, n_r, m_r, m_e``  sizes of G_L, G_R, G_E
``i_x``    single-method frontier: the largest index such that every
           node with (shortest) index below it is single
``n_x, m_x``    nodes/arcs of the subgraph induced by single nodes with
                distance < i_x
``n_j_hat, m_j_hat``  single nodes below i_x with no path to any node
                with distance >= i_x; arcs entering them
``n_s, m_s``    single nodes; arcs among them
``n_i_hat, m_i_hat``  single nodes with no path to any multiple or
                recurring node; arcs entering them
``n_m, m_m``    single+multiple nodes; arcs among them
``n_m_hat, m_m_hat``  single/multiple nodes with no path to any
                recurring node; arcs entering them
=========  ==========================================================

The cost expressions follow the unified reading discussed in DESIGN.md:
within one strategy the counting term is identical for the independent
and the integrated variant (RC is the same set), and the two variants
differ only in the magic term (``m_x̂``-style exclusions for independent
vs. the larger ``m_x``-style exclusions for integrated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .classification import MagicGraphClass
from .csl import CSLQuery
from .graph_index import closure
from .methods import METHODS
from .reduced_sets import Mode, Strategy


@dataclass
class GraphStatistics:
    """Every quantity the cost tables mention, for one query graph."""

    n_l: int
    m_l: int
    n_r: int
    m_r: int
    m_e: int
    graph_class: MagicGraphClass
    i_x: int
    n_x: int
    m_x: int
    n_j_hat: int
    m_j_hat: int
    n_s: int
    m_s: int
    n_i_hat: int
    m_i_hat: int
    n_m: int
    m_m: int
    n_m_hat: int
    m_m_hat: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "n_L": self.n_l, "m_L": self.m_l, "n_R": self.n_r,
            "m_R": self.m_r, "m_E": self.m_e,
            "class": self.graph_class.value,
            "i_x": self.i_x, "n_x": self.n_x, "m_x": self.m_x,
            "n_ĵ": self.n_j_hat, "m_ĵ": self.m_j_hat,
            "n_s": self.n_s, "m_s": self.m_s,
            "n_î": self.n_i_hat, "m_î": self.m_i_hat,
            "n_m": self.n_m, "m_m": self.m_m,
            "n_m̂": self.n_m_hat, "m_m̂": self.m_m_hat,
        }


def compute_statistics(query: CSLQuery) -> GraphStatistics:
    """All Table 1-5 quantities for ``query``.

    Read off the cost analyzer's region walk, run without a node budget
    (module docstring)."""
    from ..analysis.cost import collect_statistics, interpret

    region = collect_statistics(query, node_budget=None)
    abstract = interpret(region)
    nodes = abstract.nodes
    successors = region.adjacency
    shortest = abstract.shortest
    single = abstract.provably_single
    finite = abstract.finite
    # Every node is single on a regular graph (INF frontier): all count.
    i_x = min(abstract.frontier_index, abstract.max_dmin + 1)
    below = {b for b in single if shortest[b] < i_x}

    # The region is closed under L, so its arcs are its nodes' L arcs.
    predecessors: Dict[object, List[object]] = {v: [] for v in nodes}
    for b in nodes:
        for c in successors.get(b, ()):
            predecessors[c].append(b)

    def clear_of(members, targets):
        """``members`` (disjoint from ``targets``) with no L path to any
        of ``targets``."""
        return members - closure(targets, predecessors)

    def within(members) -> int:
        return sum(
            1 for b in members for c in successors.get(b, ()) if c in members
        )

    def entering(members) -> int:
        return sum(len(predecessors[c]) for c in members)

    j_hat = clear_of(below, {b for b in nodes if shortest[b] >= i_x})
    i_hat = clear_of(single, abstract.non_single)
    m_hat = clear_of(finite, abstract.recurring)
    return GraphStatistics(
        n_l=region.n, m_l=region.m,
        n_r=region.n_y, m_r=region.m_r,
        m_e=sum(region.out_e.values()),
        graph_class=abstract.graph_class,
        i_x=i_x,
        n_x=len(below), m_x=within(below),
        n_j_hat=len(j_hat), m_j_hat=entering(j_hat),
        n_s=len(single), m_s=within(single),
        n_i_hat=len(i_hat), m_i_hat=entering(i_hat),
        n_m=len(finite), m_m=within(finite),
        n_m_hat=len(m_hat), m_m_hat=entering(m_hat),
    )


# --- Θ-expressions -------------------------------------------------------

_REGULAR_COST = "m_l + n_l * m_r"


def _regular(stats: GraphStatistics) -> int:
    return stats.m_l + stats.n_l * stats.m_r


def predicted_cost(method: str, stats: GraphStatistics) -> Optional[int]:
    """Evaluate the paper's Θ-expression for ``method`` on ``stats``.

    ``method`` is a name of :data:`repro.core.methods.METHODS`.  Returns
    ``None`` when the method is unsafe for the graph class (counting on
    cyclic graphs — the "unsafe" cell of Table 1).
    """
    row = METHODS.get(method)
    if row is None:
        raise ValueError(f"unknown method {method!r}")
    regular = stats.graph_class is MagicGraphClass.REGULAR
    cyclic = stats.graph_class is MagicGraphClass.CYCLIC
    m_l, m_r, n_l = stats.m_l, stats.m_r, stats.n_l

    if row.strategy is None:
        if cyclic and row.needs_acyclic:
            return None
        if method == "counting":
            if regular:
                return _regular(stats)
            return n_l * m_l + n_l * m_r
        if method == "extended_counting":
            # The [MPS] footnote quotes Θ(m × n³); our reconstruction
            # caps the fixpoint at n_L × n_R levels.
            if cyclic:
                return n_l * stats.n_r * (m_l + m_r)
            return predicted_cost("counting", stats)
        if method == "magic_set":
            return m_l + m_l * m_r
        if method == "henschen_naqvi":
            # Re-walks the R side per level: Σ_k k·m_R ≤ n_L² m_R.
            return m_l + n_l * n_l * m_r
        raise ValueError(f"no Θ-expression recorded for {method!r}")

    # A magic counting method; the modes differ only in the arcs the
    # magic term excludes (module docstring).
    if regular:
        return _regular(stats)
    independent = row.mode is Mode.INDEPENDENT
    if row.strategy is Strategy.BASIC:
        return m_l + m_l * m_r
    if row.strategy is Strategy.SINGLE:
        excluded = stats.m_j_hat if independent else stats.m_x
        return m_l + (m_l - excluded) * m_r + stats.n_x * m_r
    if row.strategy is Strategy.MULTIPLE:
        excluded = stats.m_i_hat if independent else stats.m_s
        return m_l + (m_l - excluded) * m_r + stats.n_s * m_r
    # Recurring.  The smarter SCC Step 1 pays O(m_L + n_m × m_m) instead
    # of n_L × m_L.
    step1 = m_l + stats.n_m * stats.m_m if row.scc_step1 else n_l * m_l
    if not cyclic:
        return step1 + n_l * m_r
    excluded = stats.m_m_hat if independent else stats.m_m
    return step1 + (m_l - excluded) * m_r + stats.n_m * m_r


def all_method_predictions(stats: GraphStatistics) -> Dict[str, Optional[int]]:
    """Predicted costs for every method of the table, Tables 1-5 combined."""
    return {method: predicted_cost(method, stats) for method in METHODS}
