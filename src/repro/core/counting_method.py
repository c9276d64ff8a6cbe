"""The counting method (Section 2) and its cyclic-safe extension.

The counting set ``CS`` indexes every magic value with its distance from
the source::

    CS(0, a).
    CS(J+1, X1) :- CS(J, X), L(X, X1).

and answers are produced by seeding ``P_C`` through the exit relation and
counting back down through ``R``::

    P_C(J, Y)   :- CS(J, X), E(X, Y).
    P_C(J-1, Y) :- P_C(J, Y1), R(Y, Y1).
    Answer(Y)   :- P_C(0, Y).

The method is **unsafe on cyclic magic graphs**: the ``CS`` fixpoint
never terminates.  :func:`counting_method` detects divergence — the
frontier at each level is a function of the previous frontier alone, so
a repeated frontier set proves the fixpoint periodic (with a coarser
``level > |seen values|`` backstop) — and raises
:class:`UnsafeQueryError` within O(cycle length) of entering the cycle,
reproducing the "unsafe" entry of Table 1 without an actual
non-termination.

:func:`extended_counting_method` reconstructs the [MPS] extension the
paper cites in the Section 3 footnote (cost there: Θ(m × n³)): a common
index ``k`` matching ``k`` L-steps with ``k`` R-steps corresponds to a
path in the product graph ``G_L × G_R``, so if any common ``k`` exists
one exists below ``n_L × n_R``; truncating the counting fixpoint at that
level is therefore complete, and safe on every input.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from ..errors import UnsafeQueryError
from .cost import AnswerResult
from .csl import CSLInstance, CSLQuery, frontier_step
from .query_graph import build_query_graph


def level_frontiers(
    instance: CSLInstance,
    max_level: Optional[int] = None,
    method: str = "counting method",
) -> Iterator[Set[object]]:
    """The L-side level walk: yields the frontier ``L^k(source)`` for
    ``k = 0, 1, ...`` until it drains.

    When ``max_level`` is given the walk is truncated there (used by the
    extended method); otherwise divergence detection raises
    :class:`UnsafeQueryError` (naming ``method``) on cyclic magic graphs
    — an untruncated walk that did not detect would only loop forever
    there, so "detect unless truncated" is not a choice.
    """
    frontier: Set[object] = {instance.source}
    seen = set(frontier)
    # Divergence witness: the frontier at level k+1 is a function of the
    # frontier at level k alone, so a repeated frontier set makes the
    # sequence periodic — the fixpoint can never drain.  On an acyclic
    # magic graph every walk is bounded, so the frontier empties before
    # any repetition; the check therefore fires exactly on cyclic
    # graphs, and within one period of the cycle being entered (much
    # earlier than the coarse ``level > |seen|`` bound, which can lag by
    # up to n levels on wide graphs).
    seen_frontiers: Set[frozenset] = {frozenset(frontier)}
    level = 0
    while frontier:
        yield frontier
        if max_level is not None and level >= max_level:
            return
        frontier = frontier_step(instance.left, 0, frontier)
        seen |= frontier
        level += 1
        if max_level is None and frontier:
            frontier_key = frozenset(frontier)
            if frontier_key in seen_frontiers:
                raise UnsafeQueryError(
                    f"{method} is unsafe: the magic graph is cyclic "
                    f"(frontier set repeated at level {level}; the CS "
                    "fixpoint is periodic and would grow forever)"
                )
            seen_frontiers.add(frontier_key)
            if level > len(seen):
                # Backstop: a walk longer than the number of distinct
                # values repeats a value, which also proves a cycle.
                raise UnsafeQueryError(
                    f"{method} is unsafe: the magic graph is cyclic "
                    f"(frontier still alive at level {level} with only "
                    f"{len(seen)} distinct values)"
                )


def compute_counting_set(
    instance: CSLInstance, max_level: Optional[int] = None
) -> Dict[int, Set[object]]:
    """The ``CS`` fixpoint, level by level: ``{index: set of values}``
    (truncation and divergence as for :func:`level_frontiers`)."""
    return dict(enumerate(level_frontiers(instance, max_level)))


def descend_answers(
    instance: CSLInstance, pc_levels: Dict[int, Set[object]]
) -> Set[object]:
    """Apply ``P_C(J-1, Y) :- P_C(J, Y1), R(Y, Y1)`` down to level 0.

    ``pc_levels`` maps index to the set of ``Y`` values known at that
    index.  The caller's mapping is left untouched (the descent works on
    a fresh copy), so shared or cached level sets can be reused across
    queries; the level-0 set is returned.
    """
    if not pc_levels:
        return set()
    working = {level: set(values) for level, values in pc_levels.items()}
    for level in range(max(working), 0, -1):
        current = working.get(level)
        if current:
            working.setdefault(level - 1, set()).update(
                frontier_step(instance.right, 1, current)
            )
    return working.get(0, set())


def seed_exit(
    instance: CSLInstance, pairs: Iterable[Tuple[int, object]]
) -> Dict[int, Set[object]]:
    """Apply ``P_C(J, Y) :- CS(J, X), E(X, Y)`` to ``(index, value)``
    pairs — the counting set's, or a reduced counting set ``RC`` (rule 1
    of Section 4, rule 4 of Section 5).  One exit probe per pair."""
    pairs = list(pairs)
    exits = instance.exit.probe_many((0,), [(value,) for _index, value in pairs])
    pc_levels: Dict[int, Set[object]] = {}
    for (index, _value), rows in zip(pairs, exits):
        if rows:
            pc_levels.setdefault(index, set()).update(y for _x, y in rows)
    return pc_levels


def counting_answers(instance: CSLInstance, max_level: Optional[int] = None):
    """The whole counting pipeline on one instance: the ``CS`` fixpoint,
    the exit seeding, the descent.  Returns ``(answers, cs_levels)``."""
    cs_levels = compute_counting_set(instance, max_level)
    pc_levels = seed_exit(
        instance,
        (
            (level, value)
            for level, values in cs_levels.items()
            for value in values
        ),
    )
    return descend_answers(instance, pc_levels), cs_levels


def counting_method(
    query: CSLQuery, counter=None, max_level: Optional[int] = None
) -> AnswerResult:
    """Evaluate ``query`` with the pure counting method.

    Raises :class:`UnsafeQueryError` on cyclic magic graphs (unless a
    ``max_level`` truncation is forced, which sacrifices completeness).
    """
    instance = query.instance(counter)
    answers, cs_levels = counting_answers(instance, max_level)
    return AnswerResult(
        answers=frozenset(answers),
        method="counting",
        cost=instance.counter,
        details={
            "cs_pairs": sum(len(v) for v in cs_levels.values()),
            "cs_levels": len(cs_levels),
        },
    )


def extended_counting_method(query: CSLQuery, counter=None) -> AnswerResult:
    """The cyclic-safe counting extension ([MPS] reconstruction).

    Truncates the counting fixpoint at level ``n_L × n_R`` of the query
    graph.  Complete because a common L/R index, if any exists, exists
    below the product-graph size; safe because the level cap bounds the
    fixpoint on every input.
    """
    graph = build_query_graph(query)
    cap = max(1, graph.n_l * max(1, graph.n_r))
    instance = query.instance(counter)
    answers, cs_levels = counting_answers(instance, cap)
    return AnswerResult(
        answers=frozenset(answers),
        method="extended_counting",
        cost=instance.counter,
        details={
            "cs_pairs": sum(len(v) for v in cs_levels.values()),
            "level_cap": cap,
        },
    )
