"""Counting-safety certification — the analyzer's headline pass.

The counting method diverges exactly when the magic graph ``G_L``
reachable from the bound constant contains a cycle (Section 3 of the
paper).  The engine currently discovers this *dynamically*: the
repeated-frontier check inside
:func:`~repro.core.counting_method.compute_counting_set` aborts the
fixpoint after it has already started.  This module proves the same
property *statically*, before any fixpoint runs, by strongly-connected-
component analysis of the ``L`` pair set:

* :func:`certify_relation` — whole-relation certificate.  If the
  condensation of the full ``L`` graph is a DAG, counting terminates
  from **every** source; one SCC pass certifies an entire compiled plan.
  If a cycle exists somewhere, the verdict is ``UNKNOWN`` (a particular
  source may not reach it) and per-source certification is required.
* :func:`certify_source` — database-aware certificate for one bound
  constant: the nodes reachable from the source, checked against the
  cyclic cores of the same condensation (the index computes it once per
  pair-set version).  Always decides ``SAFE`` or ``UNSAFE`` and, when
  unsafe, names a witness cycle.
* :func:`certify_program` — program-level entry point; degrades to
  ``UNKNOWN`` with a stated reason whenever certification is impossible
  (no goal, free goal, outside the CSL class, no database).

Everything here walks the in-memory adjacency index of the pair sets
(:mod:`repro.core.graph_index`; a raw pair set is indexed on the way
in) — no :class:`~repro.datalog.relation.Relation` probes, no
cost-counter charges, and crucially no fixpoint iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple, Union

from ...core.csl import CSLQuery, Pair
from ...core.graph_index import GraphIndex, closure, condense
from ...errors import NotCSLError


class Verdict:
    """Three-valued certification outcome (plain strings for JSON ease)."""

    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SafetyCertificate:
    """The result of one counting-safety certification.

    ``source`` is ``None`` for a whole-relation certificate (valid for
    every bound constant); ``cycle`` is a witness — a node sequence
    whose consecutive pairs (wrapping) are all ``L`` arcs — present
    exactly when a cycle was found.
    """

    verdict: str
    reason: str
    source: Optional[object] = None
    cycle: Optional[Tuple[object, ...]] = None
    checked_nodes: int = 0

    @property
    def is_safe(self) -> bool:
        return self.verdict == Verdict.SAFE

    @property
    def is_unsafe(self) -> bool:
        return self.verdict == Verdict.UNSAFE

    def describe(self) -> str:
        scope = "any source" if self.source is None else f"source {self.source!r}"
        text = f"counting is {self.verdict} from {scope}: {self.reason}"
        if self.cycle:
            text += f" (witness cycle: {' -> '.join(map(repr, self.cycle))})"
        return text


def _as_index(left: Union[GraphIndex, Iterable[Pair]]) -> GraphIndex:
    """``left`` is the ``L`` pair set, or the index already built from
    it (a query's, a plan's)."""
    return left if isinstance(left, GraphIndex) else GraphIndex(left)


def _cycle_within(
    component, successors: Dict[object, Set[object]]
) -> Tuple[object, ...]:
    """An explicit cycle inside one cyclic SCC, so the diagnostic can
    *show* the divergence, not just assert it."""
    if len(component) == 1:
        return (component[0],)
    # Walk within the component until a node repeats; the suffix
    # from its first occurrence is a directed cycle.
    members = set(component)
    path = [component[0]]
    positions = {component[0]: 0}
    while True:
        here = path[-1]
        step = next(s for s in sorted(successors[here], key=repr)
                    if s in members)
        if step in positions:
            return tuple(path[positions[step]:])
        positions[step] = len(path)
        path.append(step)


def _witness_cycle(
    nodes: Iterable[object], successors: Dict[object, Set[object]]
) -> Optional[Tuple[object, ...]]:
    """A cycle among ``nodes`` (closed under ``successors``), or None:
    one Tarjan pass finds a non-trivial SCC or a self-loop."""
    component = condense(nodes, successors).first_cyclic
    return None if component is None else _cycle_within(component, successors)


def certify_relation(
    left: Union[GraphIndex, Iterable[Pair]]
) -> SafetyCertificate:
    """Whole-relation certificate: SAFE means safe from *every* source.

    A cycle anywhere in ``L`` downgrades to UNKNOWN — the bound constant
    of a particular goal may not reach it, so deciding that goal needs
    :func:`certify_source`.
    """
    index = _as_index(left)
    checked = len(index.condensation.rank)
    component = index.condensation.first_cyclic
    if component is None:
        return SafetyCertificate(
            Verdict.SAFE,
            "the L graph is acyclic; counting terminates from every source",
            checked_nodes=checked,
        )
    return SafetyCertificate(
        Verdict.UNKNOWN,
        "the L graph contains a cycle; whether the bound source reaches "
        "it requires per-source certification",
        cycle=_cycle_within(component, index.l_successors),
        checked_nodes=checked,
    )


def certify_source(
    left: Union[GraphIndex, Iterable[Pair]], source
) -> SafetyCertificate:
    """Per-source certificate: the magic set against the cyclic cores
    of ``L``'s condensation (:attr:`GraphIndex.condensation`).

    Decides every input — the magic set is closed under ``L``, so it
    holds a cycle (counting diverges, Proposition 1(c)) exactly when it
    meets a core; otherwise the counting fixpoint visits each (index,
    node) pair at most once and stops.  Only a refusal pays an SCC pass
    of its own, for the witness it names.
    """
    index = _as_index(left)
    successors = index.l_successors
    reachable = closure([source], successors)
    if reachable.isdisjoint(index.condensation.cores):
        return SafetyCertificate(
            Verdict.SAFE,
            "no cycle is reachable from the bound source; the counting "
            "fixpoint terminates",
            source=source,
            checked_nodes=len(reachable),
        )
    return SafetyCertificate(
        Verdict.UNSAFE,
        "the magic graph reachable from the bound source contains a "
        "cycle; the counting method would diverge",
        source=source,
        cycle=_witness_cycle(reachable, successors),
        checked_nodes=len(reachable),
    )


def certify_counting_safety(query: CSLQuery) -> SafetyCertificate:
    """Certificate for one CSL query (its own source)."""
    return certify_source(query.index, query.source)


def certify_program(program, database=None) -> SafetyCertificate:
    """Program-level certification, honest about what it cannot decide.

    Without a database the property is data-dependent (any non-empty
    ``L`` relation could carry a cycle), so the verdict degrades to
    UNKNOWN with the reason stated rather than guessing.
    """
    goal = getattr(program, "query", None)
    if goal is None:
        return SafetyCertificate(
            Verdict.UNKNOWN, "the program has no query goal to certify"
        )
    if not any(term.is_constant for term in goal.terms):
        return SafetyCertificate(
            Verdict.UNKNOWN,
            "the query goal binds no constant, so there is no source to "
            "certify from",
        )
    if database is None:
        return SafetyCertificate(
            Verdict.UNKNOWN,
            "counting safety depends on the L relation's data; supply a "
            "database (facts) to certify",
        )
    try:
        query = CSLQuery.from_program(program, database=database)
    except NotCSLError as error:
        return SafetyCertificate(
            Verdict.UNKNOWN,
            f"the program is outside the CSL class ({error}); the "
            "counting method does not apply",
        )
    return certify_counting_safety(query)
