"""The efficiency hierarchy of Figure 3.

The paper orders the methods by asymptotic cost, per magic-graph class:

* fixing the mode, RECURRING ≤ MULTIPLE ≤ SINGLE ≤ BASIC (the recurring
  vs. multiple edge holds only *on average*, i.e. under the realistic
  assumption ``m_L = O(m_R)`` — Section 9);
* fixing the strategy, INTEGRATED ≤ INDEPENDENT;
* every magic counting method ≤ the magic set method, and on regular
  graphs every method collapses to the counting method's
  Θ(m_L + n_L·m_R).

``HIERARCHY_RELATIONS`` encodes the arcs of Figure 3 (solid arcs =
always, per Propositions 4-7; dotted arcs = average-case).
:func:`check_dominance` verifies a set of *measured* costs against the
hierarchy with a slack factor, which is how the Figure 3 benchmark
asserts the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from .classification import MagicGraphClass
from .methods import METHODS

_R = MagicGraphClass.REGULAR
_A = MagicGraphClass.ACYCLIC
_C = MagicGraphClass.CYCLIC


@dataclass(frozen=True)
class DominanceRelation:
    """``better`` costs asymptotically no more than ``worse`` on the
    given graph classes.  ``average_only`` marks the dotted arcs of
    Figure 3 (they need the ``m_L = O(m_R)`` average-case assumption)."""

    better: str
    worse: str
    classes: FrozenSet[MagicGraphClass]
    average_only: bool = False
    source: str = ""


HIERARCHY_RELATIONS: List[DominanceRelation] = [
    # Proposition 2: counting vs magic set.
    DominanceRelation("counting", "magic_set", frozenset({_R}), False, "Prop 2a"),
    DominanceRelation("counting", "magic_set", frozenset({_A}), True, "Prop 2b"),
    # Proposition 4: basic methods.
    DominanceRelation("mc_basic_independent", "magic_set", frozenset({_R, _A, _C}),
                      False, "Prop 4 (B =_{A,C} Ms, better on regular)"),
    DominanceRelation("mc_basic_integrated", "magic_set", frozenset({_R, _A, _C}),
                      False, "Prop 4"),
    DominanceRelation("counting", "mc_basic_independent", frozenset({_A}),
                      True, "Prop 4 (C ≲_A B)"),
    # Proposition 5: single methods.
    DominanceRelation("mc_single_independent", "mc_basic_independent",
                      frozenset({_A, _C}), False, "Prop 5"),
    DominanceRelation("mc_single_integrated", "mc_basic_integrated",
                      frozenset({_A, _C}), False, "Prop 5"),
    DominanceRelation("mc_single_integrated", "mc_single_independent",
                      frozenset({_A, _C}), False, "Prop 5"),
    # Proposition 6: multiple methods.
    DominanceRelation("mc_multiple_independent", "mc_single_independent",
                      frozenset({_A, _C}), False, "Prop 6"),
    DominanceRelation("mc_multiple_integrated", "mc_single_integrated",
                      frozenset({_A, _C}), False, "Prop 6"),
    DominanceRelation("mc_multiple_integrated", "mc_multiple_independent",
                      frozenset({_A, _C}), False, "Prop 6"),
    # Proposition 7: recurring methods (dotted vs multiple — the naive
    # Step 1 pays n_L × m_L, so dominance is average-case).
    DominanceRelation("mc_recurring_integrated", "mc_recurring_independent",
                      frozenset({_A, _C}), False, "Prop 7"),
    DominanceRelation("mc_recurring_independent", "mc_multiple_independent",
                      frozenset({_A, _C}), True, "Prop 7 / §9"),
    DominanceRelation("mc_recurring_integrated", "mc_multiple_integrated",
                      frozenset({_A, _C}), True, "Prop 7 / §9"),
    # Conclusion: every magic counting method beats the magic set method.
    DominanceRelation("mc_single_integrated", "magic_set",
                      frozenset({_A, _C}), False, "Conclusion"),
    DominanceRelation("mc_multiple_integrated", "magic_set",
                      frozenset({_A, _C}), False, "Conclusion"),
    DominanceRelation("mc_recurring_integrated", "magic_set",
                      frozenset({_A, _C}), True, "Conclusion"),
]

# On regular graphs every method of Figure 3 coincides with the counting
# method: the ranked rows, less the SCC Step-1 variants (same RC/RM as
# their paper-literal twins, so not a second point of the lattice).
REGULAR_EQUIVALENCE_GROUP: List[str] = [
    row.name for row in METHODS.values() if row.ranked and not row.scc_step1
]


@dataclass
class DominanceViolation:
    relation: DominanceRelation
    better_cost: int
    worse_cost: int

    def __str__(self):
        return (
            f"{self.relation.better} ({self.better_cost}) should not exceed "
            f"{self.relation.worse} ({self.worse_cost}) [{self.relation.source}]"
        )


def check_dominance(
    measured: Dict[str, Optional[int]],
    graph_class: MagicGraphClass,
    slack: float = 1.0,
    include_average: bool = True,
) -> List[DominanceViolation]:
    """Check measured costs against every applicable hierarchy arc.

    ``measured`` maps method names to tuple-retrieval counts (``None``
    for methods that were unsafe on the instance — those relations are
    skipped, as are relations whose methods were not measured).
    ``slack`` relaxes the comparison (Θ hides constants; on single
    instances a factor around 1-2 is appropriate).  Returns the list of
    violated relations (empty = hierarchy holds).
    """
    violations: List[DominanceViolation] = []
    for relation in HIERARCHY_RELATIONS:
        if graph_class not in relation.classes:
            continue
        if relation.average_only and not include_average:
            continue
        better_cost = measured.get(relation.better)
        worse_cost = measured.get(relation.worse)
        if better_cost is None or worse_cost is None:
            continue
        if better_cost > slack * worse_cost:
            violations.append(
                DominanceViolation(relation, better_cost, worse_cost)
            )
    return violations


FIGURE3_ART = r"""
        Efficiency hierarchy (Figure 3) — an arrow X --> Y means
        "X costs asymptotically no more than Y" on non-regular graphs;
        ~~> arcs hold on average (m_L = O(m_R)).  On regular graphs
        every method equals the counting method C.

                      Ms  (magic set)
                       ^
                       |
                       B  (basic, either mode)
                     ^   ^
                    /     \
              S_IND        |
               ^  ^        |
               |   \       |
               |    S_INT  |
               |     ^     |
          M_IND      |     |
           ^  ^      |     |
           ~   \     |     |
           ~    M_INT      |
           ~     ^         |
        R_IND    ~         |
           ^     ~         |
            \    ~         |
             R_INT ~~~~~~~~+
"""


def render_figure3() -> str:
    """A textual rendering of the Figure 3 lattice plus the relation
    table (solid vs. average-case arcs with their sources)."""
    lines = [FIGURE3_ART, "Relations encoded:"]
    for relation in HIERARCHY_RELATIONS:
        arrow = "≲ (avg)" if relation.average_only else "≤"
        classes = ",".join(sorted(c.value[0].upper() for c in relation.classes))
        lines.append(
            f"  {relation.better:28s} {arrow:8s} {relation.worse:28s} "
            f"[{classes}] ({relation.source})"
        )
    return "\n".join(lines)


def check_regular_equivalence(
    measured: Dict[str, Optional[int]], slack: float = 3.0
) -> List[str]:
    """On a regular graph all methods should cost the same up to a
    constant; returns the names outside ``slack`` of the group median."""
    costs = [
        (name, measured[name])
        for name in REGULAR_EQUIVALENCE_GROUP
        if measured.get(name) is not None
    ]
    if not costs:
        return []
    values = sorted(cost for _name, cost in costs)
    median = values[len(values) // 2]
    return [
        name
        for name, cost in costs
        if cost > slack * median or median > slack * max(cost, 1)
    ]
