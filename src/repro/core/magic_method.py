"""The magic set method (Section 2), seminaive and set-at-a-time.

The magic set ``MS`` is the set of values L-reachable from the source::

    MS(a).
    MS(X1) :- MS(X), L(X, X1).

(the seminaive computation adds the ``not(MS(_, X1))`` guard — a value
enters the set once, which is exactly what makes the method safe on
cyclic graphs).  The modified rules then compute, for every magic value,
its full answer set::

    P_M(X, Y) :- MS(X), E(X, Y).
    P_M(X, Y) :- MS(X), L(X, X1), P_M(X1, Y1), R(Y, Y1).
    Answer(Y) :- P_M(a, Y).

The implementation drives the recursive rule *backwards* from the newly
derived facts, a whole ``P_M(X1, ·)`` delta at a time: the delta joins
with the ``L`` arcs entering ``X1`` (restricted to magic values) and the
``R`` pairs ending in its ``Y1`` values.  Each ``P_M`` fact is expanded
exactly once and charged the paper's nested loop (:func:`predecessor_join`),
giving the Θ(m_L × m_R) behaviour of Table 1.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, Iterator, Optional, Set, Tuple

from .cost import AnswerResult
from .csl import CSLInstance, CSLQuery, frontier_step


def union_magic_set(instance: CSLInstance, sources: Iterable) -> Set[object]:
    """The seminaive ``MS`` fixpoint from every source at once: one charged
    sweep over ``L``, a value reachable from several sources expanded once."""
    magic = frontier = set(sources)
    while frontier:
        frontier = frontier_step(instance.left, 0, frontier) - magic
        magic |= frontier
    return magic


def compute_magic_set(instance: CSLInstance) -> Set[object]:
    """The magic set of the instance's own source."""
    return union_magic_set(instance, (instance.source,))


def predecessor_join(
    instance: CSLInstance, guard: Container, delta: Dict[object, Set[object]]
) -> Iterator[Tuple[object, Set[object]]]:
    """``L(X, x1), R(Y, y1)`` under each batch of facts ``P_M(x1, ys)``.

    Drains ``delta`` (``{x1: ys}``; the consumer may refill it between
    steps — the semi-naive loop) and yields ``(x, image)``: each
    L-predecessor of ``x1`` in ``guard`` with the non-empty R-image of
    ``ys`` (shared: read, do not modify).  The *charge* is the paper's
    nested loop — per fact the L arcs into ``x1`` and, once per guarded
    predecessor, the R pairs ending in ``y1``: the Θ(m_L × m_R) product,
    not a factored join — while the *read* is factored: L is charged on
    the batch's one read, R is owed per ``y1`` and settled when ``delta``
    runs dry (``docs/complexity_notes.md``: the sum is order-independent).
    """
    left, right = instance.left.probe_repeated, instance.right.probe_repeated
    images: Dict[object, frozenset] = {}
    owed: Dict[object, int] = {}
    while delta:
        x1, ys = delta.popitem()
        preds = [x for x, _x1 in left((1,), (x1,), len(ys)) if x in guard]
        if not preds:
            continue
        for y1 in ys - images.keys():
            images[y1] = frozenset(y for y, _y1 in right((1,), (y1,), 0))
        image: Set[object] = set()
        for y1 in ys:
            owed[y1] = owed.get(y1, 0) + len(preds)
            image |= images[y1]
        for x in preds if image else ():
            yield x, image
    for y1, times in owed.items():
        right((1,), (y1,), times)


def magic_fixpoint(
    instance: CSLInstance,
    magic: Set[object],
    exit_guard: Optional[Set[object]] = None,
    recursion_guard: Optional[Set[object]] = None,
) -> Dict[object, Set[object]]:
    """The ``P_M`` fixpoint over the modified rules.

    ``exit_guard`` restricts the exit rule (the paper's rule 3) and
    ``recursion_guard`` the recursive rule (rule 4); both default to the
    full ``magic`` set, which yields the plain magic set method.  The
    magic counting methods reuse this with ``RM`` in place of one or both
    guards (independent: exit ``RM`` / recursion ``MS``; integrated:
    ``RM`` for both).

    Returns ``P_M`` as ``{x: set of y}``.
    """
    exit_guard = magic if exit_guard is None else exit_guard
    recursion_guard = magic if recursion_guard is None else recursion_guard
    # delta[x1]: the facts P_M(x1, ·) not yet expanded (each enters once).
    pm: Dict[object, Set[object]] = {}
    delta: Dict[object, Set[object]] = {}
    exits = instance.exit.probe_many((0,), [(x,) for x in exit_guard])
    for x, rows in zip(exit_guard, exits):
        if rows:
            ys = {y for _x, y in rows}
            pm[x], delta[x] = ys, set(ys)
    for x, image in predecessor_join(instance, recursion_guard, delta):
        known = pm.setdefault(x, set())
        fresh = image - known
        if fresh:
            known |= fresh
            delta.setdefault(x, set()).update(fresh)
    return pm


def magic_set_method(query: CSLQuery, counter=None) -> AnswerResult:
    """Evaluate ``query`` with the pure magic set method (always safe)."""
    instance = query.instance(counter)
    magic = compute_magic_set(instance)
    pm = magic_fixpoint(instance, magic)
    answers = frozenset(pm.get(instance.source, set()))
    return AnswerResult(
        answers=answers,
        method="magic_set",
        cost=instance.counter,
        details={
            "magic_set_size": len(magic),
            "pm_facts": sum(len(v) for v in pm.values()),
        },
    )
