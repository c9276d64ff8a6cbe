"""Regression tests: the service's static counting gate.

The acceptance property for the static analyzer is that a certified
counting-unsafe goal never reaches a counting fixpoint: the service
refuses it with :class:`UnsafeQueryError`.  These tests prove the
"never reaches" part by replacing the counting fixpoint with a bomb --
if any divergence path were still reachable, the bomb would go off
instead of the expected refusal.
"""

import sys

import pytest

from repro.analysis.static import Verdict
from repro.core.csl import CSLQuery
from repro.core.methods import METHODS
from repro.core.solver import fact2_answer
from repro.errors import UnsafeQueryError
from repro.service import SolverService


#: the ``cyclic_query`` fixture's certificate text, as the gate has
#: always worded it — refusals are an interface
UNSAFE_FROM_A = (
    "counting is unsafe from source 'a': the magic graph reachable from "
    "the bound source contains a cycle; the counting method would diverge "
    "(witness cycle: 'c' -> 'a' -> 'b')"
)


def oracle(query, sources):
    return {
        source: fact2_answer(
            CSLQuery(query.left, query.exit, query.right, source)
        )
        for source in sources
    }


@pytest.fixture
def no_counting_fixpoint(monkeypatch):
    """Make any counting fixpoint fatal: the bomb sits in the
    ``counting`` row of the method table, which is what the service
    would run."""

    def bomb(*args, **kwargs):
        raise AssertionError(
            "counting fixpoint started on a certified-unsafe goal"
        )

    # (the module, not the function of the same name repro.core exports)
    counting_module = sys.modules["repro.core.counting_method"]
    monkeypatch.setattr(counting_module, "counting_answers", bomb)


class TestRefusal:
    def test_unsafe_counting_refused_before_any_fixpoint(
        self, cyclic_query, no_counting_fixpoint
    ):
        service = SolverService(cyclic_query.database())
        with pytest.raises(UnsafeQueryError) as excinfo:
            service.solve_batch(cyclic_query, method="counting")
        assert str(excinfo.value) == (
            "counting refused by static certification: " + UNSAFE_FROM_A
        )

    def test_mixed_batch_gates_on_any_unsafe_source(
        self, cyclic_query, no_counting_fixpoint
    ):
        # "d" alone is safe (no outgoing L arcs) but "a" reaches the
        # cycle; one unsafe source gates the whole counting batch.
        service = SolverService(cyclic_query.database())
        with pytest.raises(UnsafeQueryError):
            service.solve_batch(
                cyclic_query, sources=["a", "d"], method="counting"
            )


class TestFallback:
    def test_safe_source_still_uses_counting(self, cyclic_query):
        # The gate must not pessimize safe goals: source "d" never
        # reaches the cycle, so counting proceeds normally.
        service = SolverService(cyclic_query.database())
        result = service.solve_batch(
            cyclic_query, sources=["d"], method="counting"
        )
        assert result.method == "counting"
        assert result.answers == oracle(cyclic_query, ["d"])

    def test_safe_query_unaffected_by_gate(
        self, samegen_query, no_counting_fixpoint
    ):
        # A regular (acyclic) query passes the gate; the bomb then
        # proves the gate itself never runs a fixpoint to decide --
        # so we stop before execution by checking the certificate only.
        service = SolverService(samegen_query.database())
        plan, _ = service._plan_for(samegen_query)
        assert plan.counting_certificate(samegen_query.source).is_safe

    def test_adaptive_on_cyclic_never_hits_the_gate(self, cyclic_query):
        # Adaptive serves the recommended row, which on a cyclic source
        # is never one that needs an acyclic graph, so it is never
        # refused.
        service = SolverService(cyclic_query.database())
        result = service.solve_batch(cyclic_query, method="adaptive")
        plan = service.compile(cyclic_query)
        assert result.method == plan.cost_report("a").recommendation.method
        assert not METHODS[result.method].needs_acyclic
        assert result.answers == oracle(cyclic_query, ["a"])


class TestPlanReports:
    def test_describe_includes_counting_safety(self, cyclic_query):
        service = SolverService(cyclic_query.database())
        plan, _ = service._plan_for(cyclic_query)
        assert plan.describe()["counting_safety"] == Verdict.UNKNOWN
        assert plan.counting_certificate("a").verdict == Verdict.UNSAFE
