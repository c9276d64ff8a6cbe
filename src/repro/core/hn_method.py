"""The Henschen-Naqvi iterative method ([HN]), reconstructed.

Section 3 notes that in [BR]'s comparative study "the counting method
was shown to be more efficient than all other methods (including the
magic set method but excluding the [HN] method which is comparable
performance-wise)".  For the canonical query, Henschen-Naqvi's compiled
iterative expression is

    answer  =  ⋃_k  R⁻ᵏ( E( Lᵏ(a) ) )

evaluated level by level: walk the binding up ``k`` L-steps, across one
E-step, then back down ``k`` R-steps — for every ``k`` independently.

The crucial structural difference from the counting method: counting
*shares* the downward cascade across all levels (every ``P_C`` fact is
descended once), while [HN] re-walks the R side from scratch for each
``k``.  On shallow graphs the two are comparable (the [BR] result); on
deep graphs [HN] pays a quadratic Σ_k k·m_R — the ablation benchmark
makes this crossover visible.

Like the counting method, [HN] is unsafe on cyclic magic graphs; both
consume one L-side level walk, so the same divergence detection applies.
"""

from __future__ import annotations

from typing import Optional

from .cost import AnswerResult
from .counting_method import level_frontiers
from .csl import CSLQuery, charged_image


def hn_method(
    query: CSLQuery, counter=None, max_level: Optional[int] = None
) -> AnswerResult:
    """Evaluate ``query`` with the iterative [HN] strategy.

    Raises :class:`UnsafeQueryError` on cyclic magic graphs unless a
    ``max_level`` truncation is forced.
    """
    instance = query.instance(counter)
    exits, bits = instance.index.ebits, instance.index.bits
    answers = levels = 0
    # Up: L^k(source), one level per step.
    for frontier in level_frontiers(
        instance, max_level, "the [HN] iterative method"
    ):
        # Across: E(frontier).
        current = charged_image(instance, "e", exits, frontier)
        # Down: R applied k times, recomputed from scratch at each level.
        for _ in range(levels):
            if not current:
                break
            current = charged_image(instance, "r", bits, current)
        answers |= current
        levels += 1
    return AnswerResult(
        answers=frozenset(bits.decode(answers)),
        method="henschen_naqvi",
        cost=instance.counter,
        details={"levels": levels},
    )
