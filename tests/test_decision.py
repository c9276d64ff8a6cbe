"""The per-source decision is the same decision, made in one region walk.

``GraphIndex.condensation`` is computed once per pair-set version; the
cost analyzer and the counting-safety certificate restrict it to a
source's region instead of running Tarjan there, the certificate names
the graph class so ranking needs no second classification, and the plan
remembers a projection of the report.  Each shortcut is checked here
against the per-region computation it replaced: ``recurring_closure``
and ``classify_nodes`` are the oracles.
"""

import pytest
from hypothesis import given, settings

import repro.core.graph_index as graph_index
import repro.core.step1 as step1
from repro.analysis.cost import analyze_cost_query, certify_cost
from repro.analysis.static.safety import (
    Verdict,
    _witness_cycle,
    certify_relation,
    certify_source,
)
from repro.core.classification import classify_nodes
from repro.core.graph_index import closure, recurring_closure
from repro.core.methods import recommended_plan
from repro.datalog.database import Database
from repro.service import SolverService
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)

from .conftest import csl_queries
from .test_service import sg_program


def _magic_side(query):
    return sorted({query.source} | {v for pair in query.left for v in pair})


def assert_same_decision(query):
    """Every shortcut of the one-walk decision, on every source."""
    index = query.index
    successors = index.l_successors
    condensation = index.condensation
    for source in _magic_side(query):
        sibling = query.with_source(source)
        region = closure([source], successors)

        # The recurring set: the cores the region meets, closed forward.
        recurring = closure(region & condensation.cores, successors)
        assert recurring == recurring_closure(region, successors)[1]
        # Descending rank is a topological order of the finite part.
        for node in region - recurring:
            for successor in successors.get(node, ()):
                if successor not in recurring:
                    assert condensation.rank[node] > condensation.rank[successor]

        classification = classify_nodes(sibling)
        certificate = certify_cost(sibling)
        assert certificate.graph_class is classification.graph_class
        expected = recommended_plan(classification, certificate)
        recommendation = analyze_cost_query(sibling).recommendation
        assert recommendation.method == expected.method
        assert recommendation.provenance == expected.provenance
        assert recommendation.details == expected.details

        # The safety certificate, against an SCC pass over the region.
        safety = certify_source(index, source)
        cycle = _witness_cycle(region, successors)
        assert safety.verdict == (
            Verdict.SAFE if cycle is None else Verdict.UNSAFE
        )
        assert safety.is_safe is classification.counting_safe
        assert safety.cycle == cycle
        assert safety.checked_nodes == len(region)
        assert safety.source == source


@settings(max_examples=60, deadline=None)
@given(csl_queries())
def test_the_decision_is_the_same_decision(query):
    assert_same_decision(query)


@pytest.mark.parametrize(
    "fixture", ["samegen_query", "acyclic_query", "cyclic_query"]
)
def test_the_decision_on_the_fixtures(request, fixture):
    assert_same_decision(request.getfixturevalue(fixture))


@pytest.mark.parametrize(
    "workload", [regular_workload, acyclic_workload, cyclic_workload]
)
def test_the_decision_on_table_1(workload):
    assert_same_decision(workload(scale=8, seed=0))


def test_the_relation_certificate_reads_the_shared_condensation(cyclic_query):
    certificate = certify_relation(cyclic_query.index)
    assert certificate.verdict == Verdict.UNKNOWN
    nodes = cyclic_query.index.l_nodes()
    assert certificate.cycle == _witness_cycle(
        nodes, cyclic_query.index.l_successors
    )
    assert certificate.checked_nodes == len(nodes)


def test_a_source_outside_l_is_a_region_by_itself(acyclic_query):
    certificate = certify_cost(acyclic_query.with_source("nowhere"))
    assert certificate.graph_class.value == "regular"
    assert certificate.statistics["n_l"] == 1


# --- one Tarjan pass per pair-set version ------------------------------------


def _count_scc_passes(monkeypatch):
    """Every caller of Tarjan on an ``L`` graph binds the name at import:
    the index (the decision layer) and the charged SCC Step 1."""
    passes = []
    for module in (graph_index, step1):
        tarjan = module.strongly_connected_components

        def counted(nodes, successors, _tarjan=tarjan, _name=module.__name__):
            passes.append(_name)
            return _tarjan(nodes, successors)

        monkeypatch.setattr(module, "strongly_connected_components", counted)
    return passes


def test_an_acyclic_plan_pays_one_scc_pass_per_version(monkeypatch):
    database = Database()
    database.add_facts("up", [(f"n{i}", f"n{i + 1}") for i in range(50)])
    database.add_facts("flat", [("n50", "f")])
    database.add_facts("down", [(f"g{i + 1}", f"g{i}") for i in range(50)])
    database.add_facts("down", [("g0", "f")])
    service = SolverService(database)
    passes = _count_scc_passes(monkeypatch)
    sources = [f"n{i}" for i in range(50)]
    for source in sources:
        service.solve(sg_program(source))
        service.solve_batch(sg_program(source), [source], method="counting")
    assert passes == [graph_index.__name__]
    assert service.mutate(inserts={"up": [("n50", "n51")]}).plans_maintained
    for source in sources:
        service.solve(sg_program(source))
    assert passes == [graph_index.__name__] * 2


def test_a_cyclic_plan_pays_no_scc_pass_for_a_cycle_free_region(monkeypatch):
    query = cyclic_workload(scale=8, seed=0)
    cores = query.index.condensation.cores
    service = SolverService()
    service.solve(query)
    passes = _count_scc_passes(monkeypatch)
    cycle_free = cyclic = 0
    for source in _magic_side(query):
        before = len(passes)
        result = service.solve(query, source)
        region = closure([source], query.index.l_successors)
        if region.isdisjoint(cores):
            cycle_free += 1
            assert result.method == "service_counting"
            assert len(passes) == before
        else:
            # Deciding is still free; only the charged SCC Step 1 of the
            # recurring row — execution, not decision — runs Tarjan.
            cyclic += 1
            assert set(passes[before:]) <= {step1.__name__}
    assert cycle_free and cyclic


# --- the plan remembers the decision, not the report --------------------------


def test_the_decision_is_a_projection_of_the_report(cyclic_query):
    plan = SolverService().compile(cyclic_query)
    for source in _magic_side(cyclic_query):
        decision = plan.decision(source)
        report = plan.cost_report(source)
        assert decision.method == report.recommendation.method
        assert decision.bounds == {
            name: entry.bound
            for name, entry in report.certificate.bounds.items()
        }
        assert plan.decision(source) is decision
        assert plan.cost_report(source) is not report


def test_the_decision_memo_evicts_its_oldest_entry(monkeypatch):
    import repro.service.plan as plan_module

    monkeypatch.setattr(plan_module, "_SOURCE_MEMO_LIMIT", 2)
    query = acyclic_workload(scale=2, seed=0)
    plan = SolverService().compile(query)
    first, second, third = _magic_side(query)[:3]
    decisions = [plan.decision(source) for source in (first, second, third)]
    assert list(plan._decisions) == [second, third]
    assert plan.decision(second) is decisions[1]
    assert plan.decision(first) == decisions[0]
    assert list(plan._decisions) == [third, first]
