"""Answering one CSL query for many source constants.

The paper's methods answer ``?- P(a, Y)`` for a single ``a``.  A server
answering the same query shape for many bindings (every user, every
session) faces an amortisation trade-off the single-shot analysis
hides:

* the **magic set method amortises**: the union magic set is computed
  once and the ``P_M`` fixpoint is shared — a value reachable from
  several sources is expanded once, and each source reads its answers
  from ``P_M(source, ·)``;
* the **counting method cannot share**: indices are distances *from a
  particular source*, so each source runs its own counting pass
  (distance sets differ per source);
* the magic counting hybrids inherit counting's per-source Step 1/2.

:func:`multi_source_magic` and :func:`multi_source_counting` implement
the two extremes over one shared cost counter, and the benchmark
``benchmarks/test_multi_source.py`` locates the crossover: few sources
favour counting (per-source wins), many overlapping sources favour the
shared magic fixpoint.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List

from ..datalog.relation import CostCounter
from .counting_method import counting_method
from .csl import CSLQuery
from .magic_method import magic_fixpoint, union_magic_set


def multi_source_magic(
    query: CSLQuery, sources: Iterable, counter: CostCounter = None
) -> Dict[object, FrozenSet]:
    """One shared magic/``P_M`` fixpoint for every source.

    Returns ``{source: answers}``.  The whole run is charged to
    ``counter``; pass your own to read the cost back (a fresh one is
    used, and discarded, otherwise).
    """
    sources = list(sources)
    instance = query.instance(counter)
    magic = union_magic_set(instance, sources)
    pm = magic_fixpoint(instance, magic)
    return {
        source: frozenset(pm.get(source, set())) for source in sources
    }


def multi_source_counting(
    query: CSLQuery, sources: Iterable, counter: CostCounter = None
) -> Dict[object, FrozenSet]:
    """Independent counting runs, one per source, on a shared counter.

    Raises :class:`UnsafeQueryError` as soon as any source's magic graph
    is cyclic (same safety profile as the single-source method).
    """
    counter = counter if counter is not None else CostCounter()
    answers: Dict[object, FrozenSet] = {}
    for source in sources:
        result = counting_method(query.with_source(source), counter=counter)
        answers[source] = result.answers
    return answers


def shared_ancestor_sources(query: CSLQuery, count: int) -> List:
    """A helper for experiments: ``count`` L-side values whose
    reachable regions overlap heavily (all values sorted by out-degree,
    highest first — hubs share the most downstream work)."""
    successors = query.index.l_successors
    ranked = sorted(successors, key=lambda v: (-len(successors[v]), repr(v)))
    return ranked[:count]
