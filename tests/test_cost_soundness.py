"""Property-based soundness of the certified cost bounds.

For every CSL query hypothesis can dream up, every certified bound in
the :func:`repro.analysis.cost.certify_cost` certificate must dominate
the retrievals actually charged by the corresponding evaluation method.
The pins in ``test_cost_bounds.py`` check the formulas are what we
derived; this suite checks the derivations were *sound*.
"""

import pytest
from hypothesis import given, settings

from repro.analysis.cost import certify_cost
from repro.core.counting_method import (
    counting_method,
    extended_counting_method,
)
from repro.core.magic_method import magic_set_method
from repro.core.methods import (
    all_method_coordinates,
    magic_counting,
    method_name,
    plan_candidates,
)
from repro.core.reduced_sets import Mode, Strategy
from repro.core.solver import adaptive_solve
from repro.errors import UnsafeQueryError
from repro.service import SolverService

from .conftest import csl_queries

RUNNERS = {
    "counting": counting_method,
    "extended_counting": extended_counting_method,
    "magic_set": magic_set_method,
}
for _strategy, _mode in all_method_coordinates():
    RUNNERS[method_name(_strategy, _mode)] = (
        lambda query, s=_strategy, m=_mode: magic_counting(query, s, m)
    )
for _mode in (Mode.INDEPENDENT, Mode.INTEGRATED):
    RUNNERS[method_name(Strategy.RECURRING, _mode, scc_step1=True)] = (
        lambda query, m=_mode: magic_counting(
            query, Strategy.RECURRING, m, scc_step1=True
        )
    )


def assert_certificate_sound(query, certificate):
    checked = 0
    for method, entry in certificate.bounds.items():
        runner = RUNNERS.get(method)
        if entry.bound is None or runner is None:
            continue
        result = runner(query)
        assert result.cost.retrievals <= entry.bound, (
            f"{method}: measured {result.cost.retrievals} > certified "
            f"{entry.bound} on {query}"
        )
        checked += 1
    # Magic sets and the hybrids terminate on every CSL query, so a
    # certificate is never allowed to abstain across the board.
    assert checked >= 11


class TestBoundSoundness:
    @settings(max_examples=60, deadline=None)
    @given(csl_queries())
    def test_every_certified_bound_dominates_measured_cost(self, query):
        assert_certificate_sound(query, certify_cost(query))

    @settings(max_examples=30, deadline=None)
    @given(csl_queries())
    def test_bounds_stay_sound_under_forced_widening(self, query):
        for budget in (1, 2, 3):
            assert_certificate_sound(
                query, certify_cost(query, node_budget=budget)
            )

    @settings(max_examples=30, deadline=None)
    @given(csl_queries())
    def test_adaptive_solve_respects_its_own_certificate(self, query):
        result = adaptive_solve(query)
        plan = result.details["plan"]
        if plan["provenance"] == "certified-bound":
            assert result.cost.retrievals <= plan["bound"]

    @settings(max_examples=30, deadline=None)
    @given(csl_queries())
    def test_certified_choice_never_loses_to_the_heuristic(self, query):
        """The ranked pick's *certified* cost is minimal by construction;
        check the guarantee is about real bounds, not stale ones."""
        certificate = certify_cost(query)
        ranked = {row.name for row in plan_candidates()}
        certified = {
            method: entry.bound
            for method, entry in certificate.bounds.items()
            if entry.bound is not None and method in ranked
        }
        if not certified:
            return
        best = min(certified.values())
        chosen = adaptive_solve(query)
        plan = chosen.details["plan"]
        if plan["provenance"] == "certified-bound":
            assert plan["bound"] == best


class TestServiceSoundness:
    @settings(max_examples=25, deadline=None)
    @given(csl_queries())
    def test_shared_magic_batches_respect_predicted_bounds(self, query):
        for sources in ([query.source], [query.source, "x1", "x3"]):
            result = SolverService().solve_batch(query, sources)
            predicted = result.details.get("predicted_bound")
            if predicted is not None:
                assert result.retrievals <= predicted
                assert result.details["bound_violated"] is False

    @settings(max_examples=25, deadline=None)
    @given(csl_queries())
    def test_counting_batches_respect_predicted_bounds(self, query):
        try:
            result = SolverService().solve_batch(
                query, [query.source], method="counting"
            )
        except UnsafeQueryError:
            # Statically refused before any fixpoint — nothing to bound.
            return
        predicted = result.details.get("predicted_bound")
        if predicted is not None:
            assert result.retrievals <= predicted
            assert result.details["bound_violated"] is False

    def test_violation_accounting_reaches_the_service_metrics(
        self, samegen_query
    ):
        service = SolverService()
        service.solve_batch(samegen_query, ["d", "e"])
        snapshot = service.metrics.snapshot()
        assert snapshot["bound_checks"] >= 1
        assert snapshot["bound_violations"] == 0
