"""Tests for adaptive method selection and the verify_conditions flag."""

import pytest
from hypothesis import given, settings

from repro.analysis.cost import analyze_cost_query
from repro.core.methods import METHODS, magic_counting, plan_candidates
from repro.core.reduced_sets import Mode, ReducedSets, Strategy
from repro.core.solver import adaptive_solve, fact2_answer, solve
from repro.core.step2 import integrated_step2
from repro.errors import MethodConditionError
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)

from .conftest import csl_queries


def assert_the_ranking_ran(query, regime_row):
    """``adaptive`` runs the cost report's pick: the smallest certified
    bound among the ranked rows, measured within that bound and no
    costlier than the regime rule's row for the graph class."""
    result = adaptive_solve(query)
    report = analyze_cost_query(query)
    assert result.method == report.recommendation.method
    assert result.details["plan"]["provenance"] == "certified-bound"
    bounds = [
        report.certificate.bound_for(row.name) for row in plan_candidates()
    ]
    smallest = min(bound for bound in bounds if bound is not None)
    assert result.details["plan"]["bound"] == smallest
    assert result.cost.retrievals <= smallest
    assert result.answers == fact2_answer(query)
    regime = solve(query, regime_row)
    assert result.cost.retrievals <= regime.cost.retrievals
    return result


class TestAdaptiveSelection:
    def test_regular_picks_counting(self):
        result = assert_the_ranking_ran(
            regular_workload(scale=1, seed=0), "counting"
        )
        # On a regular graph nothing is certified below counting.
        assert result.method == "counting"

    def test_acyclic_pick_is_no_costlier_than_multiple_integrated(self):
        assert_the_ranking_ran(
            acyclic_workload(scale=1, seed=0), "mc_multiple_integrated"
        )

    def test_cyclic_pick_is_safe_and_no_costlier_than_recurring_scc(self):
        # (no row name: the cyclic generator follows the hash seed)
        result = assert_the_ranking_ran(
            cyclic_workload(scale=1, seed=0), "mc_recurring_integrated_scc"
        )
        assert not METHODS[result.method].needs_acyclic

    def test_reachable_through_solve(self, samegen_query):
        result = solve(samegen_query, method="adaptive")
        assert result.answers == fact2_answer(samegen_query)

    @settings(max_examples=60, deadline=None)
    @given(csl_queries())
    def test_always_correct(self, query):
        assert adaptive_solve(query).answers == fact2_answer(query)

    def test_adaptive_never_worse_than_magic_set(self):
        from repro.core.magic_method import magic_set_method

        for generator in (regular_workload, acyclic_workload, cyclic_workload):
            query = generator(scale=2, seed=1)
            adaptive = adaptive_solve(query)
            magic = magic_set_method(query)
            assert adaptive.cost.retrievals <= 2.0 * magic.cost.retrievals


class TestVerifyConditions:
    def test_passes_on_correct_reduced_sets(self, cyclic_query):
        for strategy in Strategy:
            for mode in Mode:
                result = magic_counting(
                    cyclic_query, strategy, mode, verify_conditions=True
                )
                assert result.answers == fact2_answer(cyclic_query)

    def test_catches_violated_condition_a(self, samegen_query):
        """A reduced set dropping a magic node must be rejected."""
        instance = samegen_query.instance()
        from repro.core.step1 import multiple_step1

        reduced = multiple_step1(instance)
        victim = next(iter(reduced.rc_values() - {samegen_query.source}))
        broken = ReducedSets(
            rc={(i, v) for (i, v) in reduced.rc if v != victim},
            rm=set(reduced.rm),
            ms=set(reduced.ms),
        )
        from repro.core.classification import classify_nodes
        from repro.core.reduced_sets import check_theorem1

        with pytest.raises(MethodConditionError):
            check_theorem1(
                broken, classify_nodes(samegen_query), samegen_query.source
            )

    def test_catches_missing_index(self):
        """Condition (b): a multiple node in RC must carry ALL indices."""
        from repro.core.classification import classify_nodes
        from repro.core.csl import CSLQuery
        from repro.core.reduced_sets import check_theorem1

        query = CSLQuery(
            {("a", "b"), ("b", "c"), ("a", "c")}, set(), set(), "a"
        )
        broken = ReducedSets(
            rc={(0, "a"), (1, "b"), (1, "c")},  # c is missing index 2
            rm=set(),
            ms={"a", "b", "c"},
        )
        with pytest.raises(MethodConditionError):
            check_theorem1(broken, classify_nodes(query), "a")

    def test_catches_missing_source_pair(self, samegen_query):
        from repro.core.classification import classify_nodes
        from repro.core.reduced_sets import check_theorem2
        from repro.core.step1 import multiple_step1

        reduced = multiple_step1(samegen_query.instance())
        reduced.rc = {
            (i, v) for (i, v) in reduced.rc if (i, v) != (0, samegen_query.source)
        }
        reduced.rm.add(samegen_query.source)
        with pytest.raises(MethodConditionError):
            check_theorem2(
                reduced, classify_nodes(samegen_query), samegen_query.source
            )
