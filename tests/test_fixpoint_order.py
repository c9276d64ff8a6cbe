"""The order in which the ``P_M`` fixpoint expands its magic values.

``core.magic_method.predecessor_join`` drains a :class:`Worklist` of
answer masks popped by ascending ``GraphIndex.condensation.rank``:
successors first, so a value off a cycle is expanded once.  The order is a schedule, not
a semantics: under the ranked order, the reversed one and a shuffled
one, ``P_M`` and every key of ``CostCounter.snapshot()`` are equal.
With every rank tied the worklist is ``dict.popitem()``; values are
never compared; and a run that starts no fixpoint reads no index and
builds no bit index.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csl import CSLInstance, CSLQuery
from repro.core.graph_index import GraphIndex
from repro.core.magic_method import Worklist, magic_fixpoint
from repro.core.methods import magic_counting
from repro.core.reduced_sets import Mode, Strategy
from repro.core.step1 import compute_reduced_sets
from repro.core.step2 import integrated_step2
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)

from .conftest import BACKENDS, make_instance, sourced_queries
from .test_magic_kernel import guards, oracle_magic_fixpoint

ORDERS = ["ranked", "reversed", "shuffled"]


def ordered_instance(query: CSLQuery, order: str, seed: int = 0) -> CSLInstance:
    """A fresh instance of ``query`` (an index of its own) whose
    condensation ranks its nodes in ``order``."""
    fresh = CSLQuery(query.left, query.exit, query.right, query.source)
    condensation = fresh.index.condensation
    nodes = list(condensation.rank)
    if order == "reversed":
        rank = {node: -r for node, r in condensation.rank.items()}
    elif order == "shuffled":
        positions = list(range(len(nodes)))
        random.Random(seed).shuffle(positions)
        rank = dict(zip(nodes, positions))
    else:
        rank = condensation.rank
    fresh.index._condensation = condensation._replace(rank=rank)
    return fresh.instance()


def outcomes(query: CSLQuery, exit_guard, recursion_guard, magic, seed=0):
    """``{order: (P_M, snapshot)}`` of one fixpoint under every order."""
    results = {}
    for order in ORDERS:
        instance = ordered_instance(query, order, seed)
        pm = magic_fixpoint(instance, magic, exit_guard, recursion_guard)
        results[order] = (pm, instance.counter.snapshot())
    return results


def table1_queries():
    for make in (regular_workload, acyclic_workload, cyclic_workload):
        for seed in range(2):
            query = make(scale=1, seed=seed)
            for source in sorted(query.magic_set(), key=repr)[:6]:
                yield pytest.param(
                    query.with_source(source),
                    id=f"{make.__name__}-{seed}-{source}",
                )


@pytest.mark.parametrize("combination", ["MS/MS", "RM/MS", "RM/RM"])
@settings(max_examples=80, deadline=None)
@given(
    query=sourced_queries(),
    strategy=st.sampled_from(list(Strategy)),
    seed=st.integers(0, 2**16),
)
def test_every_order_gives_one_pm_and_one_charge(combination, query, strategy, seed):
    reduced = compute_reduced_sets(query.instance(), strategy)
    exit_guard, recursion_guard = guards(reduced, combination)
    results = outcomes(query, exit_guard, recursion_guard, reduced.ms, seed)
    assert results["reversed"] == results["ranked"]
    assert results["shuffled"] == results["ranked"]
    oracle = query.instance()
    expected = oracle_magic_fixpoint(
        oracle, reduced.ms, exit_guard, recursion_guard
    )
    assert results["ranked"] == (expected, oracle.counter.snapshot())


@pytest.mark.parametrize("query", list(table1_queries()))
def test_every_order_agrees_on_the_table1_families(query):
    magic = query.magic_set()
    results = outcomes(query, None, None, magic, seed=len(magic))
    assert results["reversed"] == results["ranked"]
    assert results["shuffled"] == results["ranked"]


@settings(max_examples=40, deadline=None)
@given(query=sourced_queries(), strategy=st.sampled_from(list(Strategy)))
def test_the_rule3_transfer_is_order_free(query, strategy):
    results = []
    for order in ORDERS:
        instance = ordered_instance(query, order)
        reduced = compute_reduced_sets(query.instance(), strategy)
        reduced.ensure_source_pair(query.source)
        answers, details = integrated_step2(instance, reduced)
        results.append((answers, details, instance.counter.snapshot()))
    assert results[1] == results[0] and results[2] == results[0]


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("add"),
                st.integers(0, 6),
                st.sets(st.integers(0, 4), max_size=3),
            ),
            st.tuples(st.just("pop")),
        ),
        max_size=40,
    )
)
def test_with_every_rank_tied_the_pops_are_popitems(steps):
    tied = Worklist({})  # every value ranks 0
    reference = {}
    for step in steps:
        if step[0] == "add":
            _op, x, ys = step
            mask = sum(1 << y for y in ys)
            tied.add(x, mask)
            reference[x] = reference.get(x, 0) | mask
        elif reference:
            assert tied.pop() == reference.popitem()
        assert bool(tied) == bool(reference)


def test_values_of_mixed_types_are_never_compared():
    # One strongly connected component over an int, a str and a tuple:
    # every rank ties, so only the recency breaks ties in the heap.
    left = {(1, "a"), ("a", 1), ("a", (2, "b")), ((2, "b"), 1)}
    exit_pairs = {(1, "y"), ("a", 3), ((2, "b"), ("z",))}
    right = {("w", "y"), (4, 3), ("y", ("z",))}
    query = CSLQuery(left, exit_pairs, right, 1)
    assert len(set(query.index.condensation.rank.values())) == 1
    for backend in BACKENDS:
        instance = make_instance(query, backend)
        oracle = make_instance(query, backend)
        magic = query.magic_set()
        pm = magic_fixpoint(instance, magic)
        assert pm == oracle_magic_fixpoint(oracle, magic)
        assert instance.counter.snapshot() == oracle.counter.snapshot()
    queue = Worklist({1: 0, "a": 0})
    for bit, value in enumerate((1, "a", (2, "b"), None)):
        queue.add(value, 1 << bit)
    assert [queue.pop()[0] for _ in range(4)] == [None, (2, "b"), "a", 1]


def test_a_hand_built_instance_reads_its_own_pairs(acyclic_query):
    for backend in BACKENDS:
        instance = make_instance(acyclic_query, backend)
        assert instance.index is acyclic_query.index
        assert (
            instance.index.l_successors
            == GraphIndex(acyclic_query.left).l_successors
        )
    relation = make_instance(acyclic_query, "set")
    with pytest.raises(TypeError):  # no instance without its query
        CSLInstance(
            left=relation.left,
            exit=relation.exit,
            right=relation.right,
            source=relation.source,
        )


def test_a_run_without_a_fixpoint_builds_no_index():
    # Regular: basic Step 1 puts every value in RC and none in RM, so
    # the integrated method starts no P_M fixpoint — and reads no index.
    query = regular_workload(scale=1, seed=0)
    result = magic_counting(query, Strategy.BASIC, Mode.INTEGRATED)
    assert result.details["rm_size"] == 0
    assert query._shared.index is None
    # Nor, once something else has built the index, its bit index.
    query.magic_set()
    magic_counting(query, Strategy.BASIC, Mode.INTEGRATED)
    assert query._shared.index._bits is None
    # A fixpoint that starts reads the one index of the pair sets, and
    # its bits.
    cyclic = cyclic_workload(scale=1, seed=0)
    magic_counting(cyclic, Strategy.BASIC, Mode.INTEGRATED)
    assert cyclic._shared.index is not None
    assert cyclic._shared.index._bits is not None
