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
giving the Θ(m_L × m_R) behaviour of Table 1 — on ``GraphIndex.bits``
masks: what is new is ``image & ~known``, the ``R`` charge popcounts.

The deltas wait in a :class:`Worklist` that pops values in the order of
the condensation of ``G_L`` (``GraphIndex.condensation.rank``, one
Tarjan pass per pair-set version), successors before predecessors: a
value outside a cycle is expanded once, with its whole answer set, and
only values on a cycle are expanded again as their cycle fills in.
The order moves no charge — each fact's cost depends on the fact alone
(``docs/complexity_notes.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .cost import AnswerResult
from .csl import CSLInstance, CSLQuery, frontier_step
from .graph_index import BitIndex, Node


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


class Worklist:
    """``P_M`` facts not yet expanded, ``{x1: ys mask}``, popped by
    ascending ``rank`` — with a condensation's rank, successors first.

    A value is queued once: facts for a value already queued join its
    mask.  Ties go to the most recently queued value, so with every rank
    equal the pops are exactly ``dict.popitem()``'s; values themselves
    are never compared (they may be of mixed types).  A value ``rank``
    does not know (one off ``L``: it has no predecessor) ranks 0.
    """

    __slots__ = ("_rank", "_facts", "_heap", "_recency")

    def __init__(self, rank: Mapping[object, int]):
        self._rank = rank
        self._facts: Dict[object, int] = {}
        # (rank, -n, x) for the n-th value queued: no two entries tie
        # before x, so x is never compared.
        self._heap: List[Tuple[int, int, object]] = []
        self._recency = 0

    def add(self, x, ys: int) -> None:
        """Queue the facts ``P_M(x, y)`` for the bits ``y`` of ``ys``."""
        queued = self._facts.get(x)
        if queued is not None:
            self._facts[x] = queued | ys
            return
        self._facts[x] = ys
        self._recency -= 1
        heappush(self._heap, (self._rank.get(x, 0), self._recency, x))

    def pop(self) -> Tuple[object, int]:
        """The lowest-ranked value and every fact queued for it."""
        x = heappop(self._heap)[2]
        return x, self._facts.pop(x)

    def __bool__(self) -> bool:
        return bool(self._heap)


def worklist(instance: CSLInstance, facts: Mapping[object, int]) -> Worklist:
    """``facts`` queued in the condensation order of ``instance``'s
    ``G_L``.  No facts, no order: an empty worklist reads no index."""
    queue = Worklist(instance.index.condensation.rank if facts else {})
    for x, ys in facts.items():
        queue.add(x, ys)
    return queue


def predecessor_join(
    instance: CSLInstance, guard: Container, delta: Worklist
) -> Iterator[Tuple[object, int]]:
    """``L(X, x1), R(Y, y1)`` under each batch of facts ``P_M(x1, ys)``.

    Drains ``delta`` (the consumer may refill it between steps — the
    semi-naive loop) and yields ``(x, image)``: each L-predecessor of
    ``x1`` in ``guard`` with the non-empty R-image mask of ``ys``.  In
    condensation order a value off a cycle arrives once, after every
    successor it could hear from.  The *charge* is the paper's nested
    loop — per fact the L arcs into ``x1`` and, per guarded predecessor,
    the R pairs ending in ``y1`` — while the *work* is a word at a time:
    L is one read per batch, R a few popcounts per batch settled when
    ``delta`` runs dry (``docs/complexity_notes.md``), the image a table
    entry per byte.
    """
    if not delta:
        return
    bits, left = instance.index.bits, instance.left.probe_repeated
    probes, tuples, spill = 0, 0, {}
    while delta:
        x1, ys = delta.pop()
        facts = ys.bit_count()
        preds = [x for x, _x1 in left((1,), (x1,), facts) if x in guard]
        if not preds:
            continue
        probes += len(preds) * facts
        tuples += len(preds) * bits.indegree(ys)
        image = bits.image(ys, spill)
        for x in preds if image else ():
            yield x, image
    instance.counter.charge_probe_batch(instance.right.name, probes)
    instance.counter.charge_tuples(instance.right.name, tuples)


@dataclass(eq=False)  # equal as a mapping, to a dict of sets too
class MagicFacts(Mapping[object, Set[Node]]):
    """``P_M`` as ``{x: set of y}``: ``masks`` over ``bits``, decoded per key read."""

    masks: Dict[object, int]
    bits: BitIndex

    def __getitem__(self, x) -> Set[Node]:
        return self.bits.decode(self.masks[x])

    def __iter__(self) -> Iterator[object]:
        return iter(self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def facts(self) -> int:  # how many P_M facts: a popcount per key
        return sum(mask.bit_count() for mask in self.masks.values())


def magic_fixpoint(
    instance: CSLInstance,
    magic: Set[object],
    exit_guard: Optional[Set[object]] = None,
    recursion_guard: Optional[Set[object]] = None,
) -> MagicFacts:
    """The ``P_M`` fixpoint over the modified rules.

    ``exit_guard`` restricts the exit rule (the paper's rule 3) and
    ``recursion_guard`` the recursive rule (rule 4); both default to the
    full ``magic`` set, which yields the plain magic set method.  The
    magic counting methods reuse this with ``RM`` in place of one or both
    guards (independent: exit ``RM`` / recursion ``MS``; integrated:
    ``RM`` for both).  The exit rule seeds from the index's ``E`` masks,
    charged one probe per guard value plus its matches.

    Returns ``P_M`` as ``{x: set of y}`` (:class:`MagicFacts`).
    """
    exit_guard = magic if exit_guard is None else exit_guard
    recursion_guard = magic if recursion_guard is None else recursion_guard
    if not exit_guard:  # no fact: no charge, and no index read
        return MagicFacts({}, BitIndex({}, {}))
    bits = instance.index.bits
    pm = {x: mask for x in exit_guard if (mask := bits.exit_mask(x))}
    instance.counter.charge_probe_batch(instance.exit.name, len(exit_guard))
    instance.counter.charge_tuples(instance.exit.name, MagicFacts(pm, bits).facts)
    # delta: the facts P_M(x1, ·) not yet expanded (each enters once).
    delta = worklist(instance, pm)
    for x, image in predecessor_join(instance, recursion_guard, delta):
        known = pm.get(x, 0)
        fresh = image & ~known
        if fresh:
            pm[x] = known | fresh
            delta.add(x, fresh)
    return MagicFacts(pm, bits)


def magic_set_method(query: CSLQuery, counter=None) -> AnswerResult:
    """Evaluate ``query`` with the pure magic set method (always safe)."""
    instance = query.instance(counter)
    magic = compute_magic_set(instance)
    pm = magic_fixpoint(instance, magic)
    answers = frozenset(pm.get(instance.source, ()))
    return AnswerResult(
        answers=answers,
        method="magic_set",
        cost=instance.counter,
        details={
            "magic_set_size": len(magic),
            "pm_facts": pm.facts,
        },
    )
