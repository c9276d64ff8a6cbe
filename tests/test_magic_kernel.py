"""Differential test of the set-at-a-time ``P_M`` kernel.

``core.magic_method.magic_fixpoint`` reads every adjacency list once and
charges the paper's nested loop arithmetically.  The oracles below are
the loops it replaced, kept verbatim from the last commit that executed
one Python step per charged retrieval: the per-tuple worklist fixpoint,
the per-tuple reachability sweep, and ``integrated_step2``'s rule-3
transfer loop.  Kernel and oracle must agree on the result *and* on
every key of ``CostCounter.snapshot()``, on both storage backends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counting_method import descend_answers, seed_exit
from repro.core.csl import CSLInstance
from repro.core.magic_method import (
    compute_magic_set,
    magic_fixpoint,
    union_magic_set,
)
from repro.core.multi_source import union_magic_set as exported_union
from repro.core.reduced_sets import Strategy
from repro.core.step1 import compute_reduced_sets
from repro.core.step2 import integrated_step2

from .conftest import BACKENDS, SOURCES, make_instance, sourced_queries

# --- the oracles: the parent commit's per-tuple loops, verbatim -------------


def oracle_union_magic_set(instance: CSLInstance, sources) -> set:
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
    instance: CSLInstance,
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


def oracle_integrated_step2(instance: CSLInstance, reduced):
    pm = oracle_magic_fixpoint(
        instance,
        magic=reduced.ms,
        exit_guard=reduced.rm,
        recursion_guard=reduced.rm,
    )
    pc_levels = seed_exit(instance, reduced.rc)
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
    answers = descend_answers(instance, pc_levels)
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

    kernel = make_instance(query, backend)
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
    instance = make_instance(query, backend)
    assert magic_fixpoint(instance, query.magic_set(), exit_guard=set()) == {}
    assert instance.counter.retrievals == 0


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(query=sourced_queries(), extra=st.sets(st.sampled_from(SOURCES), max_size=3))
def test_reachability_sweep_matches_per_tuple_oracle(backend, query, extra):
    sources = [query.source, *sorted(extra)]
    kernel = make_instance(query, backend)
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

    kernel = make_instance(query, backend)
    oracle = make_instance(query, backend)
    answers, details = integrated_step2(kernel, reduced_sets())
    expected_answers, expected_details = oracle_integrated_step2(
        oracle, reduced_sets()
    )

    assert answers == expected_answers
    assert details == expected_details  # pm_facts and transferred, exactly
    assert kernel.counter.snapshot() == oracle.counter.snapshot()
