"""Closed-form retrieval bounds per method, from the abstract state.

Every formula here is derived charge-for-charge from the corresponding
implementation in :mod:`repro.core` — the unit is the
``CostCounter`` unit (one per ``Relation.lookup`` probe plus one per
tuple yielded), not the paper's asymptotic Θ-forms in
``core/complexity.py``.  The derivations (and the soundness argument
for each) are asserted by ``tests/test_cost_soundness.py``; the key
shared pieces:

* **expansion cost** — L-expanding a value costs ``1 + outdeg_L(v)``;
  E-probing costs ``1 + outdeg_E(v)``; both counted once per expansion.
* **magic/PM fixpoint** (``magic_fixpoint``) — seeds cost
  ``Σ_{x∈EG}(1 + e(x))``; every PM fact ``(x1, y1)`` (keys confined to
  ``S = EG ∪ RG``, values confined to the answer region ``Y``, at most
  ``|Y|`` facts per key) is expanded exactly once at
  ``1 + indeg_L(x1)`` (full-relation in-degree: the backward probe
  charges unreachable predecessors too) plus, per in-arc from ``RG``,
  an answer-side probe ``1 + indeg_R(y1)``.  Summed:
  ``e_sum(EG) + n_R·(|S| + lin_sum(S)) + l_cross(RG,S)·(n_R + m_R)``.
* **descend** (``descend_answers``) — each level's working set is a
  subset of ``Y``, so one level costs at most ``n_R + m_R``; levels run
  from the largest RC index down to 1.
* **Step-1 fixpoints** — basic/single expand each region value exactly
  once (``n + m``); multiple re-expands at most the non-single nodes;
  the recurring fixpoints re-expand each value once per collected
  index (``hi_v`` for certifiably finite nodes, the ``2n - 1`` level
  cap otherwise).

Each strategy's RC/RM is replaced by a certified *superset* (every cost
component is monotone in both sets, so supersets are sound): dynamic
single/multiple classification is exact in the unwidened abstraction
(``dmin == dmax`` iff single), the recurring split is exact for the SCC
variant, and the widened abstraction degrades every set to the whole
region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ...core.csl import CSLQuery
from ...core.methods import method_name
from ...core.reduced_sets import Mode, Strategy
from .abstract import MultiplicityAbstract, interpret
from .certificate import CostCertificate, MethodBound
from .domain import INF, finite
from .stats import DEFAULT_NODE_BUDGET, RegionStatistics, collect_statistics


def _pm_bound(
    stats: RegionStatistics,
    exit_guard: FrozenSet[object],
    recursion_guard: FrozenSet[object],
) -> Tuple[float, Dict[str, float]]:
    """Bound the ``magic_fixpoint`` retrievals for the given guards."""
    if not exit_guard:
        # No seeds, no facts, no expansions: the fixpoint is free.
        return 0, {"magic_seed": 0, "magic_expand": 0}
    keys = exit_guard | recursion_guard
    seed = stats.e_sum(exit_guard)
    expand = stats.n_y * (len(keys) + stats.lin_sum(keys))
    expand += stats.l_cross(recursion_guard, keys) * stats.answer_sweep
    return seed + expand, {"magic_seed": seed, "magic_expand": expand}


def _transfer_bound(
    stats: RegionStatistics,
    pm_keys: FrozenSet[object],
    rc_values: FrozenSet[object],
) -> float:
    """Bound the integrated rule-3 transfer loop over the PM facts."""
    if not pm_keys:
        return 0
    backward = stats.n_y * (len(pm_keys) + stats.lin_sum(pm_keys))
    crossing = stats.l_cross(rc_values, pm_keys) * stats.answer_sweep
    return backward + crossing


@dataclass(frozen=True)
class _StrategyShape:
    """A certified superset description of one Step-1 outcome."""

    step1: float
    #: Σ over the RC superset's (index, value) pairs of ``1 + e(value)``.
    rc_seed: float
    #: Largest index any RC pair can carry (drives the descend depth).
    max_index: float
    #: Superset of the dynamic RM (the magic part's exit guard).
    rm: FrozenSet[object]
    #: Superset of the RC *values* (drives the transfer crossing term).
    rc_values: FrozenSet[object]


def _basic_shapes(
    stats: RegionStatistics, abstract: MultiplicityAbstract
) -> List[_StrategyShape]:
    """Basic is all-or-nothing: count everything on a regular graph,
    magic everything otherwise.  When regularity is undecided (widened
    region) both outcomes are possible and the caller maxes over them.
    """
    step1 = stats.n + stats.m
    regular = _StrategyShape(
        step1=step1,
        rc_seed=stats.e_sum(stats.ms),
        max_index=abstract.max_dmin,
        rm=frozenset(),
        rc_values=stats.ms,
    )
    irregular = _StrategyShape(
        step1=step1,
        rc_seed=0,
        max_index=0,
        rm=stats.ms,
        rc_values=frozenset(),
    )
    if abstract.widened:
        return [regular, irregular]
    return [regular] if abstract.is_certified_regular else [irregular]


def _single_shapes(
    stats: RegionStatistics, abstract: MultiplicityAbstract
) -> List[_StrategyShape]:
    """Split at the frontier index ``i_x`` (exact in the unwidened
    abstraction: the minimal non-single node is always detected)."""
    step1 = stats.n + stats.m
    if abstract.widened:
        return [
            _StrategyShape(
                step1=step1,
                rc_seed=stats.e_sum(stats.ms),
                max_index=max(0, stats.n - 1),
                rm=stats.ms,
                rc_values=stats.ms,
            )
        ]
    boundary = abstract.frontier_index
    shortest = abstract.shortest
    rc_values = frozenset(
        v for v, depth in shortest.items() if depth < boundary
    )
    rm = abstract.nodes - rc_values
    max_index = max(map(shortest.get, rc_values), default=0)
    return [
        _StrategyShape(
            step1=step1,
            rc_seed=stats.e_sum(rc_values),
            max_index=max_index,
            rm=rm,
            rc_values=rc_values,
        )
    ]


def _multiple_shapes(
    stats: RegionStatistics, abstract: MultiplicityAbstract
) -> List[_StrategyShape]:
    """Per-node split; the Section-8 fixpoint re-expands at most the
    non-single nodes (the second-occurrence guard caps everyone at two
    expansions) and its RC keeps one (first-index, value) pair per
    still-single value."""
    non_single = abstract.non_single
    step1 = (stats.n + stats.m) + stats.probe_sum(non_single)
    return [
        _StrategyShape(
            step1=step1,
            rc_seed=stats.e_sum(stats.ms),
            max_index=abstract.max_dmin,
            rm=non_single,
            rc_values=stats.ms,
        )
    ]


def _recurring_shapes(
    stats: RegionStatistics,
    abstract: MultiplicityAbstract,
    scc_variant: bool,
    finite_expand: float,
    finite_seed: float,
) -> List[_StrategyShape]:
    """Magic only the truly recurring nodes.

    The SCC Step 1 computes the recurring set and the finite nodes'
    exact index sets directly (one region traversal plus one re-probe
    per (node, index) pair).  The naive fixpoint collects indices
    level-synchronously under the ``2K - 1`` level cap: a certifiably
    finite node is re-expanded at most ``hi_v`` times, anything else at
    most ``2n - 1`` times, and a truncated recurring node can leak into
    RC with up to ``2n - 1`` indices of size up to ``2n - 2`` — the RC
    superset must include that leak (its RM is still confined to the
    recurring set: a witness index ``>= K`` proves a cycle).

    ``finite_expand``/``finite_seed`` are the finite nodes' L-expansion
    and E-probe costs weighted by their index multiplicity
    (:meth:`MultiplicityAbstract.multiplicity_weighted`).
    """
    n = stats.n
    recurring = stats.ms if abstract.widened else abstract.recurring
    finite_nodes = abstract.finite
    if scc_variant:
        step1 = (stats.n + stats.m) + finite_expand
        if abstract.widened:
            # Unknown index sets: every node may carry up to n indices.
            rc_seed: float = n * stats.e_sum(stats.ms)
            max_index: float = max(0, n - 1)
            rc_values = stats.ms
        else:
            rc_seed = finite_seed
            max_index = abstract.max_dmax_finite
            rc_values = finite_nodes
        return [
            _StrategyShape(
                step1=step1,
                rc_seed=rc_seed,
                max_index=max_index,
                rm=recurring,
                rc_values=rc_values,
            )
        ]

    cap = max(1, 2 * n - 1)
    step1 = finite_expand + cap * stats.probe_sum(recurring)
    rc_seed = finite_seed + cap * stats.e_sum(recurring)
    max_index = (2 * n - 2) if recurring else abstract.max_dmax_finite
    return [
        _StrategyShape(
            step1=step1,
            rc_seed=rc_seed,
            max_index=max(0, max_index),
            rm=recurring,
            rc_values=stats.ms,
        )
    ]


def _hybrid_bound(
    stats: RegionStatistics,
    shape: _StrategyShape,
    mode: Mode,
) -> Tuple[float, Dict[str, float]]:
    """Assemble one (strategy shape, mode) total from the pieces."""
    breakdown: Dict[str, float] = {"step1": shape.step1}
    if mode is Mode.INDEPENDENT:
        seed = shape.rc_seed
        descend = shape.max_index * stats.answer_sweep
        magic, magic_parts = _pm_bound(stats, shape.rm, stats.ms)
        breakdown.update(magic_parts)
        breakdown.update({"counting_seed": seed, "descend": descend})
        return shape.step1 + seed + descend + magic, breakdown
    # Integrated: the source pair (0, a) is force-added to RC, the magic
    # part is confined to RM, and its results transfer across the
    # frontier before one shared descend.
    seed = shape.rc_seed + (1 + stats.out_e.get(stats.source, 0))
    descend = shape.max_index * stats.answer_sweep
    magic, magic_parts = _pm_bound(stats, shape.rm, shape.rm)
    transfer = _transfer_bound(
        stats, shape.rm, shape.rc_values | {stats.source}
    )
    breakdown.update(magic_parts)
    breakdown.update(
        {"counting_seed": seed, "transfer": transfer, "descend": descend}
    )
    return shape.step1 + seed + descend + magic + transfer, breakdown


_SHAPES = {
    Strategy.BASIC: _basic_shapes,
    Strategy.SINGLE: _single_shapes,
    Strategy.MULTIPLE: _multiple_shapes,
}


def _finalize(
    method: str,
    total: float,
    breakdown: Dict[str, float],
    assumptions: Tuple[str, ...],
) -> MethodBound:
    if not finite(total):
        return MethodBound(
            method=method,
            bound=None,
            reason="no finite bound derivable for this region",
            assumptions=assumptions,
        )
    return MethodBound(
        method=method,
        bound=int(total),
        breakdown=tuple(
            (phase, int(value)) for phase, value in breakdown.items()
        ),
        assumptions=assumptions,
    )


def _counting_bound(
    stats: RegionStatistics,
    abstract: MultiplicityAbstract,
    cs: float,
    seed: float,
) -> MethodBound:
    """``cs``/``seed``: the multiplicity-weighted L-expansion and
    E-probe costs of the finite nodes (all of them, when certified)."""
    if not abstract.is_certified_acyclic:
        reason = (
            "cannot certify termination: the region was widened"
            if abstract.widened
            else "the counting fixpoint diverges on cyclic magic graphs"
        )
        return MethodBound(method="counting", bound=None, reason=reason)
    descend = abstract.max_dmax_finite * stats.answer_sweep
    return _finalize(
        "counting",
        cs + seed + descend,
        {"counting_set": cs, "counting_seed": seed, "descend": descend},
        stats.assumptions,
    )


def _extended_counting_bound(stats: RegionStatistics) -> MethodBound:
    cap = max(1, stats.n * max(1, stats.n_y))
    cs = cap * (stats.n + stats.m)
    seed = (cap + 1) * stats.e_sum(stats.ms)
    descend = cap * stats.answer_sweep
    return _finalize(
        "extended_counting",
        cs + seed + descend,
        {"counting_set": cs, "counting_seed": seed, "descend": descend},
        stats.assumptions,
    )


def _magic_set_bound(stats: RegionStatistics) -> MethodBound:
    reachability = stats.n + stats.m
    magic, parts = _pm_bound(stats, stats.ms, stats.ms)
    breakdown: Dict[str, float] = {"reachability": reachability}
    breakdown.update(parts)
    return _finalize(
        "magic_set", reachability + magic, breakdown, stats.assumptions
    )


def certify_cost(
    query: CSLQuery, node_budget: int = DEFAULT_NODE_BUDGET
) -> CostCertificate:
    """The full certificate for one materialized CSL query."""
    stats = collect_statistics(query, node_budget=node_budget)
    abstract = interpret(stats)
    assumptions = stats.assumptions + abstract.assumptions
    finite_expand = abstract.multiplicity_weighted(stats.out_l)
    finite_seed = abstract.multiplicity_weighted(stats.out_e)

    bounds: Dict[str, MethodBound] = {}
    bounds["counting"] = _counting_bound(
        stats, abstract, finite_expand, finite_seed
    )
    bounds["extended_counting"] = _extended_counting_bound(stats)
    bounds["magic_set"] = _magic_set_bound(stats)
    bounds["henschen_naqvi"] = MethodBound(
        method="henschen_naqvi",
        bound=None,
        reason="the Henschen-Naqvi iteration is not modeled by the "
        "cost analyzer",
    )

    for strategy in (Strategy.BASIC, Strategy.SINGLE, Strategy.MULTIPLE):
        shapes = _SHAPES[strategy](stats, abstract)
        for mode in (Mode.INDEPENDENT, Mode.INTEGRATED):
            name = method_name(strategy, mode)
            worst: float = 0
            breakdown: Dict[str, float] = {}
            for shape in shapes:
                total, parts = _hybrid_bound(stats, shape, mode)
                if total >= worst:
                    worst, breakdown = total, parts
            bounds[name] = _finalize(name, worst, breakdown, assumptions)

    for scc_variant in (False, True):
        shapes = _recurring_shapes(
            stats, abstract, scc_variant, finite_expand, finite_seed
        )
        for mode in (Mode.INDEPENDENT, Mode.INTEGRATED):
            name = method_name(Strategy.RECURRING, mode, scc_variant)
            total, parts = _hybrid_bound(stats, shapes[0], mode)
            bounds[name] = _finalize(name, total, parts, assumptions)

    return CostCertificate(
        source=query.source,
        widened=stats.widened,
        assumptions=assumptions,
        bounds=bounds,
        statistics=stats.summary(),
        graph_class=abstract.graph_class,
    )
