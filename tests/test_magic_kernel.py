"""Differential test of the set-at-a-time ``P_M`` kernel.

``core.magic_method.magic_fixpoint`` reads every adjacency list once and
charges the paper's nested loop arithmetically.  The oracles below are
the loops it replaced, kept verbatim from the last commit that executed
one Python step per charged retrieval: the per-tuple worklist fixpoint,
the per-tuple reachability sweep, and ``integrated_step2``'s rule-3
transfer loop.  The kernel reads the graph index; each oracle reads
relations of its own (``conftest.make_instance``) on every storage
backend.  Kernel and oracle must agree on the result *and* on every key
of ``CostCounter.snapshot()``.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csl import CSLQuery
from repro.core.magic_method import (
    compute_magic_set,
    magic_fixpoint,
    union_magic_set,
)
from repro.core.multi_source import union_magic_set as exported_union
from repro.core.reduced_sets import Strategy
from repro.core.step1 import compute_reduced_sets
from repro.core.step2 import integrated_step2
from repro.workloads.generators import cyclic_workload

from .conftest import (
    BACKENDS,
    SOURCES,
    RelationTriple,
    _pairs,
    make_instance,
    sourced_queries,
)
from .test_frontier_kernel import oracle_descend_answers, oracle_seed_exit

# --- the oracles: the parent commit's per-tuple loops, verbatim -------------


def oracle_union_magic_set(instance: RelationTriple, sources) -> set:
    magic = set(sources)
    frontier = list(magic)
    while frontier:
        value = frontier.pop()
        for _b, successor in instance.left.lookup((value, None)):
            if successor not in magic:
                magic.add(successor)
                frontier.append(successor)
    return magic


def oracle_magic_fixpoint(
    instance: RelationTriple,
    magic: Set[object],
    exit_guard: Optional[Set[object]] = None,
    recursion_guard: Optional[Set[object]] = None,
) -> Dict[object, Set[object]]:
    if exit_guard is None:
        exit_guard = magic
    if recursion_guard is None:
        recursion_guard = magic
    pm: Dict[object, Set[object]] = {}
    worklist = []

    def derive(x, y) -> None:
        bucket = pm.setdefault(x, set())
        if y not in bucket:
            bucket.add(y)
            worklist.append((x, y))

    for x in exit_guard:
        for _x, y in instance.exit.lookup((x, None)):
            derive(x, y)

    # Nested-loop join, as the paper's cost model assumes: the R pairs
    # are re-retrieved for every qualifying L predecessor, which is what
    # makes the method Θ(m_L × m_R).  (A factored join would be cheaper;
    # the paper's analysis — and Table 1 — charges the product.)
    while worklist:
        x1, y1 = worklist.pop()
        for x, _x1 in instance.left.lookup((None, x1)):
            if x not in recursion_guard:
                continue
            for y, _y1 in instance.right.lookup((None, y1)):
                derive(x, y)
    return pm


def oracle_integrated_step2(instance: RelationTriple, reduced):
    pm = oracle_magic_fixpoint(
        instance,
        magic=reduced.ms,
        exit_guard=reduced.rm,
        recursion_guard=reduced.rm,
    )
    pc_levels = oracle_seed_exit(instance, reduced.rc)
    rc_by_value: Dict[object, List[int]] = {}
    for index, value in reduced.rc:
        rc_by_value.setdefault(value, []).append(index)
    transferred = 0
    for x1, ys in pm.items():
        for y1 in ys:
            for x, _x1 in instance.left.lookup((None, x1)):
                indices = rc_by_value.get(x)
                if not indices:
                    continue
                for y, _y1 in instance.right.lookup((None, y1)):
                    for index in indices:
                        bucket = pc_levels.setdefault(index, set())
                        if y not in bucket:
                            bucket.add(y)
                            transferred += 1
    answers = oracle_descend_answers(instance, pc_levels)
    details = {
        "pm_facts": sum(len(v) for v in pm.values()),
        "transferred": transferred,
    }
    return set(answers), details


# --- instances ---------------------------------------------------------------


def guards(reduced, combination: str):
    """``(exit_guard, recursion_guard)`` the way Step 2 passes them."""
    return {
        "MS/MS": (None, None),
        "RM/MS": (reduced.rm, reduced.ms),
        "RM/RM": (reduced.rm, reduced.rm),
    }[combination]


# --- the differential properties ----------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("combination", ["MS/MS", "RM/MS", "RM/RM"])
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries(), strategy=st.sampled_from(list(Strategy)))
def test_fixpoint_matches_per_tuple_oracle(backend, combination, query, strategy):
    reduced = compute_reduced_sets(query.instance(), strategy)
    exit_guard, recursion_guard = guards(reduced, combination)

    kernel = query.instance()
    oracle = make_instance(query, backend)
    pm = magic_fixpoint(kernel, reduced.ms, exit_guard, recursion_guard)
    expected = oracle_magic_fixpoint(
        oracle, reduced.ms, exit_guard, recursion_guard
    )

    assert pm == expected
    assert all(pm.values()), "P_M must hold no empty bucket"
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(query=sourced_queries())
def test_empty_exit_guard_gives_empty_pm_and_no_charge(backend, query):
    instance = query.instance()
    oracle = make_instance(query, backend)
    magic = query.magic_set()
    assert magic_fixpoint(instance, magic, exit_guard=set()) == {}
    assert oracle_magic_fixpoint(oracle, magic, exit_guard=set()) == {}
    assert instance.counter.retrievals == oracle.counter.retrievals == 0


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries(), extra=st.sets(st.sampled_from(SOURCES), max_size=3))
def test_reachability_sweep_matches_per_tuple_oracle(backend, query, extra):
    sources = [query.source, *sorted(extra)]
    kernel = query.instance()
    oracle = make_instance(query, backend)

    assert union_magic_set(kernel, sources) == oracle_union_magic_set(
        oracle, sources
    )
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


def test_one_sweep_under_every_name(cyclic_query):
    assert exported_union is union_magic_set
    instance = cyclic_query.instance()
    assert compute_magic_set(instance) == cyclic_query.magic_set()
    assert instance.counter.retrievals == 8  # 4 values: 4 probes + 4 arcs


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries(), strategy=st.sampled_from(list(Strategy)))
def test_integrated_transfer_matches_per_tuple_oracle(backend, query, strategy):
    def reduced_sets():
        reduced = compute_reduced_sets(query.instance(), strategy)
        return reduced.ensure_source_pair(query.source)

    kernel = query.instance()
    oracle = make_instance(query, backend)
    answers, details = integrated_step2(kernel, reduced_sets())
    expected_answers, expected_details = oracle_integrated_step2(
        oracle, reduced_sets()
    )

    assert answers == expected_answers
    assert details == expected_details  # pm_facts and transferred, exactly
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


# --- the word-level kernel at the edges of its bit index ---------------------

#: x values of every type the pairs may hold (never ``None``: that is
#: ``lookup``'s free position)
_WIDE_X = [0, 1, "a", "b", (2, "c"), ("d",)]
#: 100 answer-side values, of mixed types: > 64 bits, > 8 chunks
_WIDE_Y = (
    [f"y{i}" for i in range(40)]
    + list(range(100, 140))
    + [(i, "t") for i in range(10)]
    + [("u", (i,)) for i in range(10)]
)


@st.composite
def wide_queries(draw):
    """A few magic values over a wide answer side: self-loops in ``L``
    and ``R``, ``y`` values only ``E`` reaches, and an ``R`` that may be
    empty."""
    left = draw(_pairs(_WIDE_X, _WIDE_X, 12))
    exit_pairs = draw(_pairs(_WIDE_X, _WIDE_Y, 80))
    # the first 20 y values occur only in E
    right = draw(st.one_of(st.just(set()), _pairs(_WIDE_Y[20:], _WIDE_Y[20:], 120)))
    return CSLQuery(left, exit_pairs, right, draw(st.sampled_from(_WIDE_X)))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("combination", ["MS/MS", "RM/MS", "RM/RM"])
@settings(max_examples=40, deadline=None)
@given(query=wide_queries(), strategy=st.sampled_from(list(Strategy)))
def test_a_wide_answer_side_matches_the_oracle(backend, combination, query, strategy):
    reduced = compute_reduced_sets(query.instance(), strategy)
    exit_guard, recursion_guard = guards(reduced, combination)
    kernel = query.instance()
    oracle = make_instance(query, backend)
    pm = magic_fixpoint(kernel, reduced.ms, exit_guard, recursion_guard)
    expected = oracle_magic_fixpoint(oracle, reduced.ms, exit_guard, recursion_guard)
    assert pm == expected
    assert pm.facts == sum(len(ys) for ys in expected.values())
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(query=wide_queries(), strategy=st.sampled_from(list(Strategy)))
def test_a_wide_integrated_transfer_matches_the_oracle(backend, query, strategy):
    def reduced_sets():
        reduced = compute_reduced_sets(query.instance(), strategy)
        return reduced.ensure_source_pair(query.source)

    kernel = query.instance()
    oracle = make_instance(query, backend)
    assert integrated_step2(kernel, reduced_sets()) == oracle_integrated_step2(
        oracle, reduced_sets()
    )
    assert kernel.counter.snapshot() == oracle.counter.snapshot()


@pytest.mark.parametrize("backend", BACKENDS)
def test_hand_built_edges_match_the_oracle(backend):
    cases = {
        "empty R": CSLQuery({(0, 1), (1, 0)}, {(0, "y"), (1, ("t", 2))}, set(), 0),
        "self-loops": CSLQuery(
            {("a", "a"), ("a", "b")}, {("b", 1), ("a", "z")},
            {(1, 1), ("w", 1), ("z", "z")}, "a",
        ),
        "E-only answers": CSLQuery(
            {("a", "b")}, {("b", "e1"), ("b", "r1"), ("a", "e2")},
            {("r0", "r1")}, "a",
        ),
        "9 chunks": CSLQuery(
            {(i, i + 1) for i in range(70)},
            {(70, ("y", 0))},
            {(("y", i + 1), ("y", i)) for i in range(80)},
            0,
        ),
    }
    for name, query in cases.items():
        kernel = query.instance()
        oracle = make_instance(query, backend)
        magic = query.magic_set()
        assert magic_fixpoint(kernel, magic) == oracle_magic_fixpoint(oracle, magic), name
        assert kernel.counter.snapshot() == oracle.counter.snapshot(), name
    assert len(cases["9 chunks"].index.bits.values) > 64


def test_chunk_entries_are_filled_only_by_lookups(monkeypatch):
    query = cyclic_workload(scale=2, seed=0)
    bits = query.index.bits
    lookups = []
    image = type(bits).image

    def counted(self, mask, spill):
        size = (mask.bit_length() + 7) >> 3
        lookups.append(sum(1 for byte in mask.to_bytes(size, "little") if byte))
        return image(self, mask, spill)

    monkeypatch.setattr(type(bits), "image", counted)
    exits = query.index.ebits
    assert not bits.table and not exits.rows
    magic = query.magic_set()
    magic_fixpoint(query.instance(), magic)
    chunks = (len(bits.values) + 7) // 8
    assert 0 < len(bits.table) <= sum(lookups)
    assert len(bits.table) <= 256 * chunks
    assert exits.rows.keys() == magic  # a mask per guard value only


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_table_out_of_room_spills_and_keeps_the_result(backend):
    # Past its room the table stops growing; the entries it has no room
    # for live in the fixpoint's own spill, with equal facts and charges.
    query = cyclic_workload(scale=2, seed=0)
    magic = query.magic_set()
    oracle = make_instance(query, backend)
    expected = oracle_magic_fixpoint(oracle, magic)
    for room in (0, 2000):
        bits = query.index.bits
        bits.table.clear()
        bits.room = room
        kernel = query.instance()
        assert magic_fixpoint(kernel, magic) == expected
        assert kernel.counter.snapshot() == oracle.counter.snapshot()
        assert (len(bits.table) > 0) is (room > 0)
        held = [entry.bit_length() + 256 for entry in bits.table.values()]
        assert sum(held) - max(held, default=0) <= room  # the last one may overdraw


def test_threads_filling_one_chunk_table_agree():
    # Every fixpoint on a plan reads one BitIndex, and its table entries
    # are filled without a lock: racing fills must store equal entries.
    query = cyclic_workload(scale=2, seed=0)
    magic = query.magic_set()
    oracle = make_instance(query, "set")
    expected = (oracle_magic_fixpoint(oracle, magic), oracle.counter.snapshot())
    results = []

    def run():
        for _ in range(5):
            instance = query.instance()
            pm = magic_fixpoint(instance, magic)
            results.append((pm == expected[0], instance.counter.snapshot()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [(True, expected[1])] * 20
