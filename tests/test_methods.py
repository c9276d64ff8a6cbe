"""Correctness of the counting, magic set, and all magic counting methods.

The master property (Fact 1 + Theorems 1 and 2): on every instance,
every safe method returns exactly the answer set of the Fact-2 oracle.
"""

import re

import pytest
from hypothesis import given, settings

from repro.core.counting_method import (
    compute_counting_set,
    counting_method,
    descend_answers,
    extended_counting_method,
    seed_exit,
)
from repro.core.magic_method import compute_magic_set, magic_set_method
from repro.core.methods import all_method_coordinates, magic_counting, method_name
from repro.core.reduced_sets import Mode, Strategy
from repro.core.solver import fact2_answer
from repro.core.csl import CSLQuery
from repro.errors import UnsafeQueryError

from .conftest import acyclic_csl_queries, csl_queries


class TestCountingMethod:
    def test_simple_answers(self, samegen_query):
        result = counting_method(samegen_query)
        assert result.answers == fact2_answer(samegen_query)

    def test_unsafe_on_cycle(self, cyclic_query):
        with pytest.raises(UnsafeQueryError):
            counting_method(cyclic_query)

    def test_divergence_check_can_be_disabled_with_cap(self, cyclic_query):
        result = counting_method(cyclic_query, max_level=50)
        # Truncated run is safe but the cap must be generous enough; at
        # 50 levels on a 4-node graph it is complete here.
        assert result.answers == fact2_answer(cyclic_query)

    def test_details_exposed(self, samegen_query):
        result = counting_method(samegen_query)
        assert result.details["cs_levels"] >= 1
        assert result.method == "counting"

    def test_r_side_cycle_is_safe(self):
        # Cycles in G_R do not affect counting safety (only G_L counts).
        q = CSLQuery(
            {("a", "b")}, {("b", "r")}, {("r", "r"), ("s", "r")}, "a"
        )
        result = counting_method(q)
        assert result.answers == fact2_answer(q)

    @settings(max_examples=100, deadline=None)
    @given(acyclic_csl_queries())
    def test_correct_on_all_acyclic(self, query):
        assert counting_method(query).answers == fact2_answer(query)

    def test_descend_answers_leaves_caller_levels_untouched(self, samegen_query):
        # Regression: descend_answers used to mutate pc_levels in place,
        # corrupting any cached/shared level sets on a second descent.
        instance = samegen_query.instance()
        cs_levels = compute_counting_set(instance)
        pc_levels = seed_exit(instance, cs_levels)
        snapshot = dict(pc_levels)
        first = descend_answers(instance, pc_levels)
        assert pc_levels == snapshot
        assert descend_answers(instance, pc_levels) == first

    def test_divergence_detected_within_cycle_length(self):
        # Regression for the old `level > len(seen)` bound: on a wide
        # graph (many dead-end siblings) it fired only ~n levels after
        # the cycle was provable.  The frontier-repetition check fires
        # within one period of entering the cycle.
        left = {("a", f"dead{i}") for i in range(50)}
        left |= {("a", "c0"), ("c0", "c1"), ("c1", "c0")}
        query = CSLQuery(left, {("c0", "u")}, {("u", "u")}, "a")
        with pytest.raises(UnsafeQueryError) as excinfo:
            counting_method(query)
        level = int(re.search(r"level (\d+)", str(excinfo.value)).group(1))
        # Cycle is entered at level 1 and has length 2; detection must
        # land within O(cycle length), far below the ~53 of the old bound.
        assert level <= 6


class TestExtendedCounting:
    def test_safe_and_complete_on_cycle(self, cyclic_query):
        result = extended_counting_method(cyclic_query)
        assert result.answers == fact2_answer(cyclic_query)

    @settings(max_examples=60, deadline=None)
    @given(csl_queries(max_l=10, max_e=4, max_r=10))
    def test_correct_on_arbitrary_graphs(self, query):
        assert extended_counting_method(query).answers == fact2_answer(query)


class TestMagicSetMethod:
    def test_magic_set_contents(self, cyclic_query):
        instance = cyclic_query.instance()
        assert compute_magic_set(instance) == {"a", "b", "c", "d"}

    def test_safe_on_cycle(self, cyclic_query):
        result = magic_set_method(cyclic_query)
        assert result.answers == fact2_answer(cyclic_query)

    def test_details(self, samegen_query):
        result = magic_set_method(samegen_query)
        assert result.details["magic_set_size"] == len(samegen_query.magic_set())

    @settings(max_examples=100, deadline=None)
    @given(csl_queries())
    def test_correct_on_arbitrary_graphs(self, query):
        assert magic_set_method(query).answers == fact2_answer(query)


class TestMagicCountingMethods:
    def test_all_eight_coordinates(self):
        assert len(all_method_coordinates()) == 8

    def test_method_names(self):
        assert method_name(Strategy.BASIC, Mode.INDEPENDENT) == "mc_basic_independent"
        assert (
            method_name(Strategy.RECURRING, Mode.INTEGRATED, scc_step1=True)
            == "mc_recurring_integrated_scc"
        )

    @pytest.mark.parametrize("strategy,mode", all_method_coordinates())
    def test_correct_on_cyclic_fixture(self, cyclic_query, strategy, mode):
        result = magic_counting(cyclic_query, strategy, mode)
        assert result.answers == fact2_answer(cyclic_query)

    @pytest.mark.parametrize("strategy,mode", all_method_coordinates())
    def test_correct_on_samegen_fixture(self, samegen_query, strategy, mode):
        result = magic_counting(samegen_query, strategy, mode)
        assert result.answers == fact2_answer(samegen_query)

    def test_details_expose_reduced_sets(self, cyclic_query):
        result = magic_counting(cyclic_query, Strategy.MULTIPLE, Mode.INTEGRATED)
        assert result.details["strategy"] == "multiple"
        assert result.details["rm_size"] >= 1

    def test_step_retrievals_are_per_run_on_a_shared_counter(self, acyclic_query):
        # A caller's counter may already carry charges (two solves on one
        # CostCounter): both steps report differences, not absolutes.
        from repro.datalog.relation import CostCounter

        counter = CostCounter()
        first = magic_counting(acyclic_query, counter=counter).details
        spent = counter.retrievals
        second = magic_counting(acyclic_query, counter=counter).details
        assert first["step1_retrievals"] + first["step2_retrievals"] == spent
        assert second["step1_retrievals"] == first["step1_retrievals"]
        assert second["step2_retrievals"] == first["step2_retrievals"]
        assert counter.retrievals == 2 * spent

    @settings(max_examples=100, deadline=None)
    @given(csl_queries())
    def test_all_methods_equal_oracle(self, query):
        """Fact 1 / Theorems 1-2: every method, every graph shape."""
        oracle = fact2_answer(query)
        for strategy, mode in all_method_coordinates():
            result = magic_counting(query, strategy, mode)
            assert result.answers == oracle, (strategy, mode)
        result = magic_counting(
            query, Strategy.RECURRING, Mode.INTEGRATED, scc_step1=True
        )
        assert result.answers == oracle
        result = magic_counting(
            query, Strategy.RECURRING, Mode.INDEPENDENT, scc_step1=True
        )
        assert result.answers == oracle

    @settings(max_examples=60, deadline=None)
    @given(csl_queries())
    def test_safety_proposition3(self, query):
        """Proposition 3: every magic counting method terminates (the
        hypothesis run itself is the witness — no UnsafeQueryError and
        no hang under the deadline)."""
        for strategy, mode in all_method_coordinates():
            magic_counting(query, strategy, mode)


class TestEmptyAndDegenerate:
    def test_empty_relations(self):
        q = CSLQuery(set(), set(), set(), "a")
        for strategy, mode in all_method_coordinates():
            assert magic_counting(q, strategy, mode).answers == frozenset()

    def test_exit_only_at_source(self):
        q = CSLQuery(set(), {("a", "answer")}, set(), "a")
        oracle = fact2_answer(q)
        assert oracle == {"answer"}
        for strategy, mode in all_method_coordinates():
            assert magic_counting(q, strategy, mode).answers == oracle

    def test_exit_elsewhere_unreachable(self):
        q = CSLQuery(set(), {("zz", "answer")}, set(), "a")
        assert magic_set_method(q).answers == frozenset()

    def test_source_self_loop_all_methods(self):
        q = CSLQuery(
            {("a", "a")}, {("a", "r0")}, {("r1", "r0"), ("r0", "r1")}, "a"
        )
        oracle = fact2_answer(q)
        assert oracle == {"r0", "r1"}
        for strategy, mode in all_method_coordinates():
            assert magic_counting(q, strategy, mode).answers == oracle
