"""Differential test of the frontier-at-a-time kernels.

The five Step-1 functions expand a whole frontier off the graph index's
``L`` adjacency (``core.csl.left_image``); counting and [HN] expand a
whole frontier as a mask (``core.csl.charged_image`` over
``GraphIndex.lbits``/``ebits``/``bits``); both charge through
``CSLInstance.charge``.  The oracles below are the eleven loops they
replaced, kept verbatim from the last commit that executed one Python
step per charged retrieval (``Relation.lookup`` per value): three in the
counting method, five in Step 1 (the SCC variant holds two), three in
[HN].  The oracles read relations of their own
(``conftest.make_instance``) on every storage backend; kernel and oracle
must agree on the result *and* on every key of
``CostCounter.snapshot()``; the only adapters between them turn ``RC``
pairs into level masks and decode masks.
"""

from __future__ import annotations

import pathlib
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core
from repro.core import step1
from repro.core.counting_method import (
    compute_counting_set,
    counting_answers,
    descend_answers,
    level_masks,
    seed_exit,
)
from repro.core.cost import AnswerResult
from repro.core.csl import CSLInstance, CSLQuery, left_image
from repro.core.hn_method import hn_method
from repro.core.reduced_sets import ReducedSets, Strategy
from repro.datalog.stratify import strongly_connected_components
from repro.errors import UnsafeQueryError
from repro.workloads.generators import cyclic_workload

from .conftest import (
    BACKENDS,
    SOURCES,
    RelationTriple,
    make_instance,
    sourced_queries,
)

# --- the oracles: the parent commit's per-tuple loops, verbatim -------------


def oracle_compute_counting_set(
    instance: RelationTriple, max_level: Optional[int] = None
) -> Dict[int, Set[object]]:
    levels: Dict[int, Set[object]] = {0: {instance.source}}
    seen: Set[object] = {instance.source}
    level = 0
    frontier = {instance.source}
    seen_frontiers: Set[frozenset] = {frozenset(frontier)}
    while frontier:
        if max_level is not None and level >= max_level:
            break
        next_frontier: Set[object] = set()
        for value in frontier:
            for _b, successor in instance.left.lookup((value, None)):
                next_frontier.add(successor)
                seen.add(successor)
        level += 1
        if not next_frontier:
            break
        levels[level] = next_frontier
        frontier = next_frontier
        if max_level is None:
            frontier_key = frozenset(frontier)
            if frontier_key in seen_frontiers:
                raise UnsafeQueryError(
                    "counting method is unsafe: the magic graph is cyclic "
                    f"(frontier set repeated at level {level}; the CS "
                    "fixpoint is periodic and would grow forever)"
                )
            seen_frontiers.add(frontier_key)
            if level > len(seen):
                # Backstop: a walk longer than the number of distinct
                # values repeats a value, which also proves a cycle.
                raise UnsafeQueryError(
                    "counting method is unsafe: the magic graph is cyclic "
                    f"(frontier still alive at level {level} with only "
                    f"{len(seen)} distinct values)"
                )
    return levels


def oracle_descend_answers(
    instance: RelationTriple, pc_levels: Dict[int, Set[object]]
) -> Set[object]:
    if not pc_levels:
        return set()
    working = {level: set(values) for level, values in pc_levels.items()}
    for level in range(max(working), 0, -1):
        current = working.get(level)
        if not current:
            continue
        below = working.setdefault(level - 1, set())
        for y1 in current:
            for y, _y1 in instance.right.lookup((None, y1)):
                below.add(y)
    return working.get(0, set())


def oracle_seed_exit(
    instance: RelationTriple, pairs: Iterable[Tuple[int, object]]
) -> Dict[int, Set[object]]:
    pc_levels: Dict[int, Set[object]] = {}
    for index, value in pairs:
        for _x, y in instance.exit.lookup((value, None)):
            pc_levels.setdefault(index, set()).add(y)
    return pc_levels


def oracle_basic_fixpoint(instance: RelationTriple):
    first: Dict[object, int] = {instance.source: 0}
    duplicated: Set[object] = set()
    frontier = [instance.source]
    level = 0
    while frontier:
        level += 1
        next_frontier: List[object] = []
        for value in frontier:
            for _b, successor in instance.left.lookup((value, None)):
                if successor in first:
                    if first[successor] != level:
                        duplicated.add(successor)
                else:
                    first[successor] = level
                    next_frontier.append(successor)
        frontier = next_frontier
    return first, duplicated


def oracle_multiple_step1(instance: RelationTriple) -> ReducedSets:
    first: Dict[object, int] = {instance.source: 0}
    second: Dict[object, int] = {}
    frontier: Set[object] = {instance.source}
    level = 0
    while frontier:
        level += 1
        next_frontier: Set[object] = set()
        for value in frontier:
            for _b, successor in instance.left.lookup((value, None)):
                if successor in second:
                    continue  # the not(MS(_, 2, X1)) guard
                if successor in first:
                    if first[successor] == level:
                        continue  # same-level re-derivation: one tuple
                    second[successor] = level
                    next_frontier.add(successor)
                else:
                    first[successor] = level
                    next_frontier.add(successor)
        frontier = next_frontier
    ms = set(first)
    rm = set(second)
    rc = {(index, value) for value, index in first.items() if value not in rm}
    return ReducedSets(
        rc=rc, rm=rm, ms=ms, strategy=Strategy.MULTIPLE,
        details={"regular": not rm, "single_nodes": len(ms) - len(rm)},
    )


def oracle_recurring_step1(instance: RelationTriple) -> ReducedSets:
    indices: Dict[object, Set[int]] = {instance.source: {0}}
    frontier: Set[object] = {instance.source}
    level = 0
    while frontier and level < 2 * len(indices) - 1:
        next_frontier: Set[object] = set()
        for value in frontier:
            for _b, successor in instance.left.lookup((value, None)):
                bucket = indices.setdefault(successor, set())
                if level + 1 not in bucket:
                    bucket.add(level + 1)
                    next_frontier.add(successor)
        level += 1
        frontier = next_frontier
    cardinality = len(indices)
    rm = {value for value, bucket in indices.items() if max(bucket) >= cardinality}
    rc = {
        (index, value)
        for value, bucket in indices.items()
        if value not in rm
        for index in bucket
    }
    return ReducedSets(
        rc=rc, rm=rm, ms=set(indices), strategy=Strategy.RECURRING,
        details={"regular": not rm and all(len(b) == 1 for b in indices.values()),
                 "variant": "fixpoint", "levels": level},
    )


def oracle_recurring_step1_scc(instance: RelationTriple) -> ReducedSets:
    adjacency: Dict[object, List[object]] = {}
    order: List[object] = []
    stack = [instance.source]
    seen = {instance.source}
    while stack:
        value = stack.pop()
        order.append(value)
        successors = [s for _b, s in instance.left.lookup((value, None))]
        adjacency[value] = successors
        for successor in successors:
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)

    successor_sets = {value: set(successors) for value, successors in adjacency.items()}
    components = strongly_connected_components(
        sorted(seen, key=repr), successor_sets
    )
    cores: Set[object] = set()
    for component in components:
        if len(component) > 1:
            cores.update(component)
        elif component[0] in successor_sets[component[0]]:
            cores.add(component[0])
    recurring = set(cores)
    stack = list(cores)
    while stack:
        value = stack.pop()
        for successor in successor_sets[value]:
            if successor not in recurring:
                recurring.add(successor)
                stack.append(successor)

    finite_nodes = seen - recurring
    indices: Dict[object, Set[int]] = {value: set() for value in finite_nodes}
    if instance.source in indices:
        indices[instance.source].add(0)
    for component in reversed(components):
        value = component[0]
        if value not in finite_nodes:
            continue
        for index in sorted(indices[value]):
            # One charged probe per (node, index) pair: the smarter
            # implementation still pays n_m × m_m for multiple nodes.
            for _b, successor in instance.left.lookup((value, None)):
                if successor in indices:
                    indices[successor].add(index + 1)

    rm = set(recurring)
    rc = {
        (index, value)
        for value, bucket in indices.items()
        for index in bucket
    }
    return ReducedSets(
        rc=rc, rm=rm, ms=set(seen), strategy=Strategy.RECURRING,
        details={"regular": not rm and all(len(b) == 1 for b in indices.values()),
                 "variant": "scc"},
    )


def oracle_hn_method(query, counter=None, max_level: Optional[int] = None):
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


# --- helpers -------------------------------------------------------------------


def outcome(function, *args):
    """``function(*args)``, or the ``UnsafeQueryError`` class it raised."""
    try:
        return function(*args)
    except UnsafeQueryError:
        return UnsafeQueryError


def decoded_levels(instance: CSLInstance, levels: Dict[int, int]):
    """The adapter: ``CS`` level masks as value sets.  A mask that decodes
    to nothing holds only the bit past the numbering — the source, when
    no relation numbers it."""
    decode = instance.index.lbits.decode
    return {index: decode(mask) or {instance.source} for index, mask in levels.items()}


def kernel_counting_set(instance: CSLInstance, max_level: Optional[int] = None):
    return decoded_levels(instance, compute_counting_set(instance, max_level))


def reduced_fields(reduced: ReducedSets):
    return reduced.rc, reduced.rm, reduced.ms, reduced.strategy, reduced.details


class OnBackend:
    """Stands in for a ``CSLQuery`` where an oracle method only calls
    ``query.instance(counter)``: builds its relations on ``backend``."""

    def __init__(self, query, backend):
        self.query, self.backend = query, backend

    def instance(self, counter=None):
        return make_instance(self.query, self.backend, counter)


max_levels = st.one_of(st.none(), st.integers(min_value=0, max_value=9))

# --- the differential properties ----------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(query=sourced_queries(), frontier=st.sets(st.sampled_from(SOURCES)))
def test_left_image_is_the_charged_lookup(backend, query, frontier):
    kernel = query.instance()
    oracle = make_instance(query, backend)
    expected = {
        successor
        for value in frontier
        for _b, successor in oracle.left.lookup((value, None))
    }

    assert left_image(kernel, frontier) == expected
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(query=sourced_queries(), max_level=max_levels)
def test_counting_set_matches_per_tuple_oracle(backend, query, max_level):
    kernel = query.instance()
    oracle = make_instance(query, backend)
    expected = outcome(oracle_compute_counting_set, oracle, max_level)

    # Same levels, or a refusal on exactly the oracle's inputs — after
    # exactly the oracle's charges either way.
    assert outcome(kernel_counting_set, kernel, max_level) == expected
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries(), strategy=st.sampled_from(list(Strategy)))
def test_exit_seeding_and_descent_match_per_tuple_oracle(backend, query, strategy):
    # RC of the recurring strategy repeats a value under several indices:
    # every pair is one exit probe.
    pairs = sorted(step1.compute_reduced_sets(query.instance(), strategy).rc)
    kernel = query.instance()
    oracle = make_instance(query, backend)

    pc_levels = seed_exit(kernel, level_masks(kernel, iter(pairs)))
    bits = kernel.index.bits
    decoded = {level: bits.decode(mask) for level, mask in pc_levels.items()}
    assert decoded == oracle_seed_exit(oracle, iter(pairs))
    assert all(pc_levels.values()), "P_C must hold no empty level"
    assert kernel.counter.snapshot() == oracle.counter.snapshot()

    before = dict(pc_levels)
    assert descend_answers(kernel, pc_levels) == oracle_descend_answers(
        oracle, decoded
    )
    assert pc_levels == before, "the caller's mapping is left untouched"
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries(), max_level=max_levels)
def test_counting_pipeline_matches_per_tuple_oracle(backend, query, max_level):
    def oracle_counting_answers(instance):
        cs_levels = oracle_compute_counting_set(instance, max_level)
        pc_levels = oracle_seed_exit(
            instance,
            ((level, v) for level, values in cs_levels.items() for v in values),
        )
        return oracle_descend_answers(instance, pc_levels), cs_levels

    def kernel_counting_answers(instance):
        answers, cs_levels = counting_answers(instance, max_level)
        return answers, decoded_levels(instance, cs_levels)

    kernel = query.instance()
    oracle = make_instance(query, backend)
    expected = outcome(oracle_counting_answers, oracle)

    assert outcome(kernel_counting_answers, kernel) == expected
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries())
def test_basic_fixpoint_matches_per_tuple_oracle(backend, query):
    kernel = query.instance()
    oracle = make_instance(query, backend)

    assert step1._basic_fixpoint(kernel) == oracle_basic_fixpoint(oracle)
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


def _over_oracle_fixpoint(function):
    """``function`` (basic or single Step 1) fed by the oracle fixpoint."""

    def run(instance):
        with mock.patch.object(step1, "_basic_fixpoint", oracle_basic_fixpoint):
            return function(instance)

    return run


STEP1 = {
    "basic": (step1.basic_step1, _over_oracle_fixpoint(step1.basic_step1)),
    "single": (step1.single_step1, _over_oracle_fixpoint(step1.single_step1)),
    "multiple": (step1.multiple_step1, oracle_multiple_step1),
    "recurring": (step1.recurring_step1, oracle_recurring_step1),
    "recurring_scc": (step1.recurring_step1_scc, oracle_recurring_step1_scc),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(STEP1))
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries())
def test_step1_matches_per_tuple_oracle(backend, name, query):
    function, oracle_function = STEP1[name]
    kernel = query.instance()
    oracle = make_instance(query, backend)

    assert reduced_fields(function(kernel)) == reduced_fields(
        oracle_function(oracle)
    )
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


# --- the periodic tail of the naive recurring Step 1 ---------------------------


def counted_reads():
    """Count Step 1's charged ``L`` reads: every frontier it reads goes
    through one ``left_image`` call, which charges it."""
    return mock.patch.object(step1, "left_image", wraps=step1.left_image)

_CHAIN = [("s", "c1")] + [(f"c{i}", f"c{i + 1}") for i in range(1, 7)]

#: name -> (``L`` arcs, asked from ``s``; ``L`` reads the kernel makes:
#: the transient plus one period, or every level when nothing repeats)
PERIODIC = {
    # cycles of lengths 2 and 3 off the source: period 6 from level 1,
    # repeat at level 7, charged to 2K - 1 = 11
    "two_cycles": (
        {("s", "a0"), ("a0", "a1"), ("a1", "a0"),
         ("s", "b0"), ("b0", "b1"), ("b1", "b2"), ("b2", "b0")},
        7,
    ),
    # an 8-arc chain into a 2-cycle (K = 10): transient 8, repeat at
    # level 10, charged to 19
    "long_transient": (
        set(_CHAIN) | {("c7", "d0"), ("d0", "d1"), ("d1", "d0")}, 10,
    ),
    # the repeat starts at level 0: at level 1 = 2K - 1 (nothing to
    # charge), or at level 2 through a 2-cycle (one level charged)
    "source_self_loop": ({("s", "s")}, 1),
    "cycle_through_source": ({("s", "a"), ("a", "s")}, 2),
    "self_loop_and_exit_arc": ({("s", "s"), ("s", "x")}, 2),
    # distinct frontiers on levels 0..6, repeat exactly at 2K - 1 = 7
    "repeat_at_2k_minus_1": (
        {("s", "b"), ("b", "c"), ("c", "a"), ("a", "a"), ("a", "s")}, 7,
    ),
    "regular": ({("s", "a"), ("a", "b"), ("s", "c")}, 3),
    "acyclic": ({("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("c", "d")}, 4),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(PERIODIC))
def test_recurring_step1_charges_the_periodic_tail(backend, name):
    arcs, reads = PERIODIC[name]
    query = CSLQuery(arcs, {("a", "y0"), ("s", "y1")}, {("y2", "y0")}, "s")
    kernel = query.instance()
    oracle = make_instance(query, backend)
    with counted_reads() as left_reads:
        reduced = step1.recurring_step1(kernel)

    assert reduced_fields(reduced) == reduced_fields(oracle_recurring_step1(oracle))
    assert kernel.counter.snapshot() == oracle.counter.snapshot()
    assert left_reads.call_count == reads


def test_recurring_step1_reads_table1_cyclic_s8_up_to_the_repeat():
    # The literal loop expands all 2K - 1 levels (401 at K = 201); the
    # kernel reads until the first level whose frontier it already holds
    # (the transient, then one period) and charges the rest.
    query = cyclic_workload(scale=8, seed=0)
    successors = query.index.l_successors
    frontiers = [frozenset({query.source})]
    while frontiers[-1] not in frontiers[:-1]:
        frontiers.append(frozenset(
            c for value in frontiers[-1] for c in successors.get(value, ())))
    repeat = len(frontiers) - 1

    instance = query.instance()
    with counted_reads() as left_reads:
        reduced = step1.recurring_step1(instance)

    assert all(call.args[0] is instance for call in left_reads.call_args_list)
    assert left_reads.call_count == repeat < reduced.details["levels"] // 4
    oracle = make_instance(query, "set")
    assert reduced_fields(reduced) == reduced_fields(oracle_recurring_step1(oracle))
    assert instance.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=80, deadline=None)
@given(query=sourced_queries(), max_level=max_levels)
def test_hn_matches_per_tuple_oracle(backend, query, max_level):
    expected = outcome(oracle_hn_method, OnBackend(query, backend), None, max_level)
    if expected is UnsafeQueryError:
        # The kernel refuses too — earlier, at counting's level, so the
        # charges differ on purpose (tests/test_hn_method.py pins them).
        with pytest.raises(UnsafeQueryError, match=r"\[HN\]"):
            hn_method(query, max_level=max_level)
        return
    result = hn_method(query, max_level=max_level)

    assert result.answers == expected.answers
    assert result.details == expected.details  # levels, exactly
    assert result.cost.snapshot() == expected.cost.snapshot()


# --- the guard -------------------------------------------------------------------


def test_no_per_value_lookup_under_core():
    """The per-tuple loops must not creep back, nor a second copy of the
    relations: ``core`` reads ``L``/``E``/``R`` off the graph index only,
    never through a ``Relation`` read or a tuple store."""
    root = pathlib.Path(repro.core.__file__).parent
    banned = (
        r"\.lookup\(|probe_many\(|probe_repeated\(|frontier_step\(|\.storage\b"
    )
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(root.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(banned, line)
    ]
    assert offenders == []


def test_counting_walks_on_masks_only():
    """Counting, Step 2 and [HN] read ``L``/``E``/``R`` through the
    index's masks, never a per-frontier set read; rule 3 ORs into the
    ``P_C`` masks without a round trip through value sets."""
    root = pathlib.Path(repro.core.__file__).parent
    banned = {
        "counting_method.py": r"left_image\(",
        "hn_method.py": r"left_image\(",
        "step2.py": r"left_image\(|\.encode\(|\.decode\(",
    }
    offenders = [
        f"{name}:{number}"
        for name, pattern in banned.items()
        for number, line in enumerate((root / name).read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert offenders == []
