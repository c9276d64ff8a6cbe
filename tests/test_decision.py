"""The per-source decision is the same decision, made in one region walk.

``GraphIndex.condensation`` is computed once per pair-set version (or
carried from the last one, when the delta keeps it); the
cost analyzer and the counting-safety certificate restrict it to a
source's region instead of running Tarjan there, the certificate names
the graph class so ranking needs no second classification, and the plan
remembers a projection of the report.  Each shortcut is checked here
against the per-region computation it replaced: ``recurring_closure``
and ``classify_nodes`` are the oracles.
"""

import pytest
from hypothesis import given, settings

import repro.analysis.cost.stats as cost_stats
import repro.analysis.static.safety as safety_module
import repro.core.graph_index as graph_index
import repro.core.step1 as step1
from repro.analysis.cost import (
    DEFAULT_NODE_BUDGET,
    analyze_cost_query,
    certify_cost,
)
from repro.analysis.static.safety import (
    Verdict,
    _witness_cycle,
    certify_relation,
    certify_source,
)
from repro.core.classification import MagicGraphClass, classify_nodes
from repro.core.csl import CSLQuery
from repro.core.graph_index import closure, recurring_closure
from repro.core.methods import recommended_plan
from repro.datalog.database import Database
from repro.errors import UnsafeQueryError
from repro.service import SolverService
from repro.service.plan import compile_query_plan
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)
from repro.workloads.samegen import random_forest_parent

from .conftest import csl_queries
from .test_service import sg_database, sg_program


def _magic_side(query):
    return sorted({query.source} | {v for pair in query.left for v in pair})


def assert_same_decision(query):
    """Every shortcut of the one-walk decision, on every source."""
    index = query.index
    successors = index.l_successors
    condensation = index.condensation
    plan = compile_query_plan(query)
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
        expected = recommended_plan(certificate, classification)
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

        # The verdict rides on the plan's record: the gate reads the
        # graph class instead of walking the region a second time.
        graph_class = plan.decision(source).graph_class
        assert graph_class is classification.graph_class
        assert (graph_class is MagicGraphClass.CYCLIC) == safety.is_unsafe


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


# --- the answer side is two integers, and they have not moved -----------------


def _widened_chain(r_arcs):
    """A chain longer than the node budget (the magic side widens) over
    an ``R`` chain of ``r_arcs`` arcs, plus one ``R`` arc out of a node
    the widened answer set does not hold."""
    length = DEFAULT_NODE_BUDGET + 100
    left = {(f"n{i}", f"n{i + 1}") for i in range(length)}
    right = {(f"y{i + 1}", f"y{i}") for i in range(r_arcs)}
    right.add(("y0", "stray"))
    return CSLQuery(left, {("n0", "y0"), (f"n{length}", "y0")}, right, "n0")


def _samegen_forest():
    parent = sorted(random_forest_parent(2000, seed=0, extra_parents=200))
    persons = sorted({value for pair in parent for value in pair})
    return CSLQuery.same_generation(parent, persons[-1], persons=persons)


#: ``n_R``, ``m_R`` and every row's bound (rows in name order), captured
#: at 153ce69 — before the answer-side walk kept only the two integers.
ANSWER_SIDE_PINS = {
    "regular": (
        lambda: regular_workload(scale=8, seed=0), 81, 156,
        [5748, 20270247, None, 146079, 5748, 5750, 5748, 5750, 5748, 6354,
         5750, 6356, 5748, 5750],
    ),
    "acyclic": (
        lambda: acyclic_workload(scale=8, seed=0), 82, 156,
        [6257, 20685312, None, 149979, 149979, 202791, 154533, 92351, 6257,
         6872, 6259, 6874, 152597, 137961],
    ),
    "cyclic": (
        lambda: cyclic_workload(scale=8, seed=0), 82, 156,
        [None, 20701794, None, 150300, 150300, 203194, 154929, 114235,
         383642, 154283, 342948, 113589, 152680, 153682],
    ),
    "widened magic side": (
        lambda: _widened_chain(10), 11, 10,
        [None, 582308570, None, 193031, 193031, 285377, 293739, 474180,
         106045526, 17904350, 106225967, 18084791, 285346, 465787],
    ),
    "widened both sides": (
        lambda: _widened_chain(DEFAULT_NODE_BUDGET + 50), 4147, 4146,
        [None, 363502572914, None, 69615791, 69615791, 104429857, 104425811,
         174029012, 244886910, 122036422, 314490111, 191639623, 104417418,
         174020619],
    ),
    "same-generation forest": (
        _samegen_forest, 2000, 2198,
        [37829, 84760020, None, 166020, 166020, 294220, 195413, 147613,
         37829, 37849, 37831, 37851, 187010, 211012],
    ),
}


@pytest.mark.parametrize("case", ANSWER_SIDE_PINS)
def test_the_answer_side_aggregates_have_not_moved(case):
    make_query, n_r, m_r, bounds = ANSWER_SIDE_PINS[case]
    certificate = certify_cost(make_query())
    statistics = certificate.statistics
    assert (statistics["n_r"], statistics["m_r"]) == (n_r, m_r)
    assert [
        certificate.bounds[name].bound for name in sorted(certificate.bounds)
    ] == bounds


# --- at most one Tarjan pass per pair-set version ----------------------------


def _count_scc_passes(monkeypatch):
    """Every Tarjan pass over an ``L`` graph goes through a name bound
    at import: ``condense`` for the decision layer (the index, once per
    pair-set version it cannot carry the last one's condensation to; the
    safety certificate's witness) and
    ``recurring_closure`` for the charged SCC Step 1 (execution)."""
    passes = []
    for module, attribute in (
        (graph_index, "condense"),
        (safety_module, "condense"),
        (step1, "recurring_closure"),
    ):
        tarjan = getattr(module, attribute)

        def counted(nodes, successors, _tarjan=tarjan, _name=module.__name__):
            passes.append(_name)
            return _tarjan(nodes, successors)

        monkeypatch.setattr(module, attribute, counted)
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
    # An arc to a head new to L runs down the ranks: the next version's
    # index carries the condensation, and nobody pays a second pass.
    assert service.mutate(inserts={"up": [("n50", "n51")]}).plans_maintained
    for source in sources:
        service.solve(sg_program(source))
    assert passes == [graph_index.__name__]
    # An arc that climbs them — this one closes a cycle — is not carried:
    # the decision layer pays one more pass, for the whole version.
    assert service.mutate(inserts={"up": [("n51", "n0")]}).plans_maintained
    for source in sources:
        service.solve(sg_program(source))
    assert passes.count(graph_index.__name__) == 2
    assert set(passes) <= {graph_index.__name__, step1.__name__}


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
        assert decision.graph_class is report.certificate.graph_class
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


# --- the gate reads the record: one walk, the widened edge, maintenance -------


def _count_l_walks(monkeypatch, index):
    """Forward walks of ``L`` from a source, by who walked: the cost
    analyzer's (``bfs_depths``, as ``cost.stats`` binds it) and the
    safety certificate's (``closure``, as ``static.safety`` binds it)."""
    walks = []
    bfs_depths, closure_ = cost_stats.bfs_depths, safety_module.closure

    def counted_bfs(source, successors, budget=None):
        if successors is index.l_successors:
            walks.append(("decision", source))
        return bfs_depths(source, successors, budget)

    def counted_closure(seeds, successors, budget=None):
        seeds = list(seeds)
        if successors is index.l_successors:
            walks.append(("certificate", *seeds))
        return closure_(seeds, successors, budget)

    monkeypatch.setattr(cost_stats, "bfs_depths", counted_bfs)
    monkeypatch.setattr(safety_module, "closure", counted_closure)
    return walks


def test_a_cold_counting_request_walks_its_region_once(monkeypatch):
    query = cyclic_workload(scale=8, seed=0)
    cores = query.index.condensation.cores
    walks = _count_l_walks(monkeypatch, query.index)
    served = refused = 0
    for source in _magic_side(query):
        service = SolverService()  # a cold plan per source
        del walks[:]
        if closure([source], query.index.l_successors).isdisjoint(cores):
            served += 1
            batch = service.solve_batch(query, [source], method="counting")
            assert batch.method == "counting"
            assert walks == [("decision", source)]
        else:
            # Only a refusal pays the certificate, for the witness.
            refused += 1
            with pytest.raises(UnsafeQueryError):
                service.solve_batch(query, [source], method="counting")
            assert walks == [("decision", source), ("certificate", source)]
    assert served and refused


def _chain_query(closed):
    """A chain longer than the analyzer's node budget: its region is
    widened, so the decision names no graph class."""
    length = DEFAULT_NODE_BUDGET + 100
    left = {(f"n{i}", f"n{i + 1}") for i in range(length)}
    if closed:
        left.add((f"n{length}", "n0"))
    return CSLQuery(left, {("n0", "y")}, set(), "n0")


def test_a_widened_region_is_decided_by_the_certificate():
    query = _chain_query(closed=False)
    service = SolverService()
    assert service.compile(query).decision("n0").graph_class is None
    batch = service.solve_batch(query, ["n0"], method="counting")
    assert batch.method == "counting"
    assert batch.answers == {"n0": frozenset({"y"})}

    query = _chain_query(closed=True)
    service = SolverService()
    assert service.compile(query).decision("n0").graph_class is None
    with pytest.raises(UnsafeQueryError) as refusal:
        service.solve_batch(query, ["n0"], method="counting")
    assert str(refusal.value) == (
        "counting refused by static certification: "
        + certify_source(query.index, "n0").describe()
    )
    assert "witness cycle: " in str(refusal.value)


def test_a_maintained_cycle_flips_the_gate_on_the_next_batch():
    service = SolverService(sg_database())
    program = sg_program("a")
    plan = service.compile(program)

    def counting():
        return service.solve_batch(program, ["a"], method="counting")

    answers = counting().answers
    safe = plan.decision("a")
    assert safe.graph_class is not MagicGraphClass.CYCLIC
    service.mutate(inserts={"up": [("c", "a")]})  # closes a cycle
    assert service.compile(program) is plan
    with pytest.raises(UnsafeQueryError, match="witness cycle"):
        counting()
    assert plan.decision("a").graph_class is MagicGraphClass.CYCLIC
    service.mutate(deletes={"up": [("c", "a")]})
    assert counting().answers == answers
    assert plan.decision("a") == safe
