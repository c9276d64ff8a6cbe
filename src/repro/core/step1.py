"""Step 1 of the magic counting methods: computing RC and RM.

Four strategies (Sections 6-9), each trading detection effort for a
finer split of the magic set:

* **basic** — detect whether the magic graph is regular; all-or-nothing.
* **single** — find the frontier index ``i_x`` below which every node is
  single; count below it, magic above it.
* **multiple** — classify every node; count the single ones, magic the
  rest.  (First and second occurrences both generate, so multiplicity
  propagates; a node never acquires a third tuple, which bounds the
  fixpoint even on cyclic graphs.)
* **recurring** — count single *and* multiple nodes (with all their
  indices), magic only the truly recurring ones.  The paper's naive
  Step 1 runs the unbounded counting fixpoint up to level ``2K - 1``
  (any longer walk must contain a cycle); the "smarter" variant it
  sketches detects recurring nodes in linear time with Tarjan's SCC
  algorithm and propagates index sets only through the non-recurring
  DAG — :func:`recurring_step1_scc`.

Every function reads ``L`` off the graph index's adjacency, a frontier
at a time (:func:`~repro.core.csl.left_image`), and charges it through
:meth:`CSLInstance.charge`, so Step-1 costs land in the same counter as
Step 2.  What is charged is the paper's loop; what is read may be less:
the naive recurring Step 1 reads each distinct frontier once and charges
the periodic tail up to level ``2K - 1`` without re-walking it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Set

from .csl import CSLInstance, left_image
from .graph_index import recurring_closure
from .magic_method import compute_magic_set
from .reduced_sets import Mode, ReducedSets, Strategy


def _basic_fixpoint(instance: CSLInstance):
    """The Section-6 fixpoint: only first occurrences generate.

    Returns ``(first, duplicated)`` where ``first`` maps each magic value
    to its first (shortest) index and ``duplicated`` is the set of values
    re-derived at a later level (proof of non-regularity).
    """
    first: Dict[object, int] = {instance.source: 0}
    duplicated: Set[object] = set()
    frontier: Set[object] = {instance.source}
    level = 0
    while frontier:
        level += 1
        reached = left_image(instance, frontier)
        # A value this level reaches for the first time may be reached
        # again within the level: one tuple, not a duplicate.
        duplicated |= reached & first.keys()
        frontier = reached - first.keys()
        first.update(dict.fromkeys(frontier, level))
    return first, duplicated


def basic_step1(instance: CSLInstance) -> ReducedSets:
    """Basic method: counting everywhere, or magic everywhere."""
    first, duplicated = _basic_fixpoint(instance)
    ms = set(first)
    if not duplicated:
        rc = {(index, value) for value, index in first.items()}
        return ReducedSets(
            rc=rc, rm=set(), ms=ms, strategy=Strategy.BASIC,
            details={"regular": True},
        )
    return ReducedSets(
        rc=set(), rm=set(ms), ms=ms, strategy=Strategy.BASIC,
        details={"regular": False},
    )


def single_step1(instance: CSLInstance) -> ReducedSets:
    """Single method: split at the frontier index ``i_x``.

    ``i_x`` is the smallest first-index of a node the fixpoint re-derived
    at a later level.  Every node strictly below ``i_x`` is single (the
    minimal non-single node is always detected — see the proof sketch in
    tests/test_step1.py), so its unique index is its first index.
    """
    first, duplicated = _basic_fixpoint(instance)
    ms = set(first)
    if not duplicated:
        rc = {(index, value) for value, index in first.items()}
        return ReducedSets(
            rc=rc, rm=set(), ms=ms, strategy=Strategy.SINGLE,
            details={"regular": True, "i_x": max(first.values(), default=0) + 1},
        )
    boundary = min(first[value] for value in duplicated)
    rc = {(index, value) for value, index in first.items() if index < boundary}
    rm = {value for value, index in first.items() if index >= boundary}
    return ReducedSets(
        rc=rc, rm=rm, ms=ms, strategy=Strategy.SINGLE,
        details={"regular": False, "i_x": boundary},
    )


def multiple_step1(instance: CSLInstance) -> ReducedSets:
    """Multiple method: per-node single/non-single classification.

    The Section-8 fixpoint lets first *and* second occurrences generate
    but never creates a third tuple for a node (the ``not(MS(_, 2, X1))``
    guard), so it terminates on every graph in O(m_L) retrievals while
    propagating multiplicity downstream.
    """
    first: Dict[object, int] = {instance.source: 0}
    second: Dict[object, int] = {}
    frontier: Set[object] = {instance.source}
    level = 0
    while frontier:
        level += 1
        # The not(MS(_, 2, X1)) guard; whatever else the level reaches
        # gains exactly one tuple (same-level re-derivations are that
        # same tuple) and generates.
        frontier = left_image(instance, frontier) - second.keys()
        second.update(dict.fromkeys(frontier & first.keys(), level))
        first.update(dict.fromkeys(frontier - first.keys(), level))
    ms = set(first)
    rm = set(second)
    rc = {(index, value) for value, index in first.items() if value not in rm}
    return ReducedSets(
        rc=rc, rm=rm, ms=ms, strategy=Strategy.MULTIPLE,
        details={"regular": not rm, "single_nodes": len(ms) - len(rm)},
    )


def recurring_step1(instance: CSLInstance) -> ReducedSets:
    """Recurring method, naive Step 1 (Section 9).

    Runs the unbounded counting fixpoint while ``I < 2K - 1`` (``K`` =
    values seen so far): a walk of length ``≥ K`` must traverse a cycle,
    and every recurring node is guaranteed to collect such a witness
    index before level ``2K - 1``.  Θ(n_L × m_L) retrievals.

    The fixpoint's tuples are kept as one frontier per level (``MS(I,
    ·)`` is the frontier of level ``I``), never as an index set per
    value: a value with an index ``≥ K`` is recurring, and every other
    value is counted at each level it occurs in.  A frontier is a
    function of the previous frontier alone, so the first repeated
    frontier makes the sequence periodic and fixes ``K``; the levels
    from there to ``2K - 1`` are indexed arithmetically, and their
    expansions are charged per value exactly as the literal loop would
    pay them, not re-read.
    """
    levels = [frozenset({instance.source})]  # one per distinct frontier
    first_at = {levels[0]: 0}
    seen = {instance.source}
    repeat = None
    while levels[-1] and len(levels) - 1 < 2 * len(seen) - 1:
        # Levels only grow, so the next level is the whole image.
        frontier = frozenset(left_image(instance, levels[-1]))
        repeat = first_at.get(frontier)
        if repeat is not None:
            break
        first_at[frontier] = len(levels)
        levels.append(frontier)
        seen |= frontier
    cardinality = len(seen)
    if repeat is None:
        start, period, last = len(levels), 1, len(levels) - 1
    else:
        start, period, last = repeat, len(levels) - repeat, 2 * cardinality - 1

    def at(level: int) -> int:
        """The distinct frontier that is level ``level``."""
        return level if level < start else start + (level - start) % period

    # The literal loop also expands levels len(levels) .. last - 1.
    times: Counter = Counter()
    for index, count in Counter(map(at, range(len(levels), last))).items():
        times.update(dict.fromkeys(levels[index], count))
    successors = instance.index.l_successors
    instance.charge("l", sum(times.values()), sum(
        count * len(successors.get(value, ())) for value, count in times.items()))

    rm = set().union(*(levels[index] for index in
                       set(map(at, range(cardinality, last + 1)))))
    outside = [level - rm for level in levels[:cardinality]]
    rc = {
        (index, value)
        for index in range(min(cardinality, last + 1))
        for value in outside[at(index)]
    }
    return ReducedSets(
        rc=rc, rm=rm, ms=seen, strategy=Strategy.RECURRING,
        details={"regular": not rm and sum(map(len, levels)) == cardinality,
                 "variant": "fixpoint", "levels": last},
    )


def recurring_step1_scc(instance: CSLInstance) -> ReducedSets:
    """Recurring method, "smarter" Step 1 (the O(m_L + n_m × m_m)
    implementation the paper sketches via [Tar]).

    1. one charged traversal finds the magic set (m_L);
    2. Tarjan SCC finds the cyclic cores; their forward closure is the
       recurring set (linear, in memory);
    3. exact index sets for the non-recurring nodes are propagated
       through the residual DAG, charging an ``L`` probe per (node,
       index) pair — Θ(Σ|I_b| · outdeg) = O(n_m × m_m) retrievals.
    """
    seen = compute_magic_set(instance)
    successors = instance.index.l_successors
    components, recurring = recurring_closure(seen, successors)

    # Index-set propagation over the non-recurring DAG.  Tarjan's output
    # order is reverse-topological w.r.t. the successor direction, so
    # iterate it backwards to visit sources first.
    finite_nodes = seen - recurring
    indices: Dict[object, Set[int]] = {value: set() for value in finite_nodes}
    if instance.source in indices:
        indices[instance.source].add(0)
    probes = tuples = 0
    for component in reversed(components):
        value = component[0]
        if value not in finite_nodes:
            continue
        # One charged probe per (node, index) pair: the smarter
        # implementation still pays n_m × m_m for multiple nodes.
        shifted = {index + 1 for index in indices[value]}
        targets = successors.get(value, ())
        probes += len(shifted)
        tuples += len(shifted) * len(targets)
        for successor in targets:
            if successor in indices:
                indices[successor] |= shifted
    instance.charge("l", probes, tuples)

    rm = set(recurring)
    rc = {
        (index, value)
        for value, bucket in indices.items()
        for index in bucket
    }
    return ReducedSets(
        rc=rc, rm=rm, ms=seen, strategy=Strategy.RECURRING,
        details={"regular": not rm and all(len(b) == 1 for b in indices.values()),
                 "variant": "scc"},
    )


_STEP1_DISPATCH = {
    Strategy.BASIC: basic_step1,
    Strategy.SINGLE: single_step1,
    Strategy.MULTIPLE: multiple_step1,
    Strategy.RECURRING: recurring_step1,
}


def compute_reduced_sets(
    instance: CSLInstance,
    strategy: Strategy,
    scc_variant: bool = False,
) -> ReducedSets:
    """Dispatch to the requested Step-1 strategy.

    ``scc_variant`` selects the smarter recurring implementation (only
    meaningful for :attr:`Strategy.RECURRING`).
    """
    if strategy is Strategy.RECURRING and scc_variant:
        return recurring_step1_scc(instance)
    return _STEP1_DISPATCH[strategy](instance)


def reduced_sets_for(
    instance: CSLInstance,
    strategy: Strategy,
    mode: Mode,
    scc_variant: bool = False,
) -> ReducedSets:
    """Step 1 as a method of the given ``mode`` opens with it: the
    strategy's reduced sets, with ``(0, a)`` in ``RC`` for the
    integrated Step 2 (Theorem 2, condition c; uncharged)."""
    reduced = compute_reduced_sets(instance, strategy, scc_variant)
    if mode is Mode.INTEGRATED:
        reduced.ensure_source_pair(instance.source)
    return reduced
