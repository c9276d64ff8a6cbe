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

from typing import Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from ..errors import UnsafeQueryError
from .cost import AnswerResult
from .csl import CSLInstance, CSLQuery, charged_image
from .query_graph import build_query_graph


def level_frontiers(
    instance: CSLInstance,
    max_level: Optional[int] = None,
    method: str = "counting method",
) -> Iterator[int]:
    """The L-side level walk: yields the frontier ``L^k(source)`` for
    ``k = 0, 1, ...`` until it drains, as a mask over ``index.lbits``.

    When ``max_level`` is given the walk is truncated there (used by the
    extended method); otherwise divergence detection raises
    :class:`UnsafeQueryError` (naming ``method``) on cyclic magic graphs
    — an untruncated walk that did not detect would only loop forever
    there, so "detect unless truncated" is not a choice.  Each step is
    charged as it is taken, so a refusal has paid for the levels walked.
    """
    lbits = instance.index.lbits
    frontier = seen = lbits.encode((instance.source,))
    # Divergence witness: the frontier at level k+1 is a function of the
    # frontier at level k alone, so a repeated frontier set makes the
    # sequence periodic — the fixpoint can never drain.  On an acyclic
    # magic graph every walk is bounded, so the frontier empties before
    # any repetition; the check therefore fires exactly on cyclic
    # graphs, and within one period of the cycle being entered (much
    # earlier than the coarse ``level > |seen|`` bound, which can lag by
    # up to n levels on wide graphs).
    seen_frontiers: Set[int] = {frontier}
    level = 0
    while frontier:
        yield frontier
        if max_level is not None and level >= max_level:
            return
        frontier = charged_image(instance, "l", lbits, frontier)
        seen |= frontier
        level += 1
        if max_level is None and frontier:
            if frontier in seen_frontiers:
                raise UnsafeQueryError(
                    f"{method} is unsafe: the magic graph is cyclic "
                    f"(frontier set repeated at level {level}; the CS "
                    "fixpoint is periodic and would grow forever)"
                )
            seen_frontiers.add(frontier)
            if level > seen.bit_count():
                # Backstop: a walk longer than the number of distinct
                # values repeats a value, which also proves a cycle.
                raise UnsafeQueryError(
                    f"{method} is unsafe: the magic graph is cyclic "
                    f"(frontier still alive at level {level} with only "
                    f"{seen.bit_count()} distinct values)"
                )


def compute_counting_set(
    instance: CSLInstance, max_level: Optional[int] = None
) -> Dict[int, int]:
    """The ``CS`` fixpoint, level by level: ``{index: mask of values}``
    (truncation and divergence as for :func:`level_frontiers`)."""
    return dict(enumerate(level_frontiers(instance, max_level)))


def level_masks(
    instance: CSLInstance, pairs: Iterable[Tuple[int, object]]
) -> Dict[int, int]:
    """Distinct ``(index, value)`` pairs (a reduced counting set ``RC``)
    as ``CS``-like level masks over ``index.lbits``."""
    levels: Dict[int, list] = {}
    for index, value in pairs:
        levels.setdefault(index, []).append(value)
    encode = instance.index.lbits.encode
    return {index: encode(values) for index, values in levels.items()}


def descend_answers(
    instance: CSLInstance, pc_levels: Mapping[int, int]
) -> Set[object]:
    """Apply ``P_C(J-1, Y) :- P_C(J, Y1), R(Y, Y1)`` down to level 0.

    ``pc_levels`` maps index to the mask of ``Y`` values known there
    (over ``index.bits``) and is left untouched; the level-0 values are
    returned, decoded once.
    """
    bits, mask = instance.index.bits, 0
    for level in range(max(pc_levels, default=0), 0, -1):
        mask |= pc_levels.get(level, 0)
        if mask:
            mask = charged_image(instance, "r", bits, mask)
    return bits.decode(mask | pc_levels.get(0, 0))


def seed_exit(
    instance: CSLInstance, levels: Mapping[int, int]
) -> Dict[int, int]:
    """Apply ``P_C(J, Y) :- CS(J, X), E(X, Y)`` to level masks — ``CS``'s,
    or :func:`level_masks` of ``RC`` (rule 1 of Section 4, rule 4 of
    Section 5): one exit probe per pair, ``P_C`` as ``index.bits`` masks."""
    ebits = instance.index.ebits
    pc_levels = {index: charged_image(instance, "e", ebits, mask)
                 for index, mask in levels.items()}
    return {index: image for index, image in pc_levels.items() if image}


def counting_answers(instance: CSLInstance, max_level: Optional[int] = None):
    """The whole counting pipeline on one instance: the ``CS`` fixpoint,
    the exit seeding, the descent.  Returns ``(answers, cs_levels)``."""
    cs_levels = compute_counting_set(instance, max_level)
    return descend_answers(instance, seed_exit(instance, cs_levels)), cs_levels


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
            "cs_pairs": sum(m.bit_count() for m in cs_levels.values()),
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
            "cs_pairs": sum(m.bit_count() for m in cs_levels.values()),
            "level_cap": cap,
        },
    )
