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

Like the counting method, [HN] is unsafe on cyclic magic graphs; the
same divergence detection applies.
"""

from __future__ import annotations

from typing import Optional, Set

from ..errors import UnsafeQueryError
from .cost import AnswerResult
from .csl import CSLQuery


def hn_method(
    query: CSLQuery, counter=None, max_level: Optional[int] = None
) -> AnswerResult:
    """Evaluate ``query`` with the iterative [HN] strategy.

    Raises :class:`UnsafeQueryError` on cyclic magic graphs unless a
    ``max_level`` truncation is forced.
    """
    instance = query.instance(counter)
    answers: Set[object] = set()
    frontier: Set[object] = {instance.source}
    seen: Set[object] = {instance.source}
    level = 0
    levels_processed = 0
    while frontier:
        # Across: E(frontier).
        current: Set[object] = set()
        for value in frontier:
            for _x, y in instance.exit.lookup((value, None)):
                current.add(y)
        # Down: R applied k times, recomputed from scratch at each level.
        for _ in range(level):
            if not current:
                break
            next_down: Set[object] = set()
            for y1 in current:
                for y, _y1 in instance.right.lookup((None, y1)):
                    next_down.add(y)
            current = next_down
        answers |= current
        levels_processed += 1

        # Up: L(frontier).
        if max_level is not None and level >= max_level:
            break
        next_frontier: Set[object] = set()
        for value in frontier:
            for _b, successor in instance.left.lookup((value, None)):
                next_frontier.add(successor)
                seen.add(successor)
        level += 1
        frontier = next_frontier
        if max_level is None and level > len(seen):
            raise UnsafeQueryError(
                "the [HN] iterative method is unsafe: the magic graph is "
                f"cyclic (frontier alive at level {level} with only "
                f"{len(seen)} distinct values)"
            )
    return AnswerResult(
        answers=frozenset(answers),
        method="henschen_naqvi",
        cost=instance.counter,
        details={"levels": levels_processed},
    )
