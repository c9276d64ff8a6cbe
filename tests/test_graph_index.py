"""One adjacency index per pair-set version, shared by every analysis.

``CSLQuery.index`` is the only place a whole relation is iterated;
``with_source`` and ``CompiledPlan.query_for`` hand the same object to
every per-source question.  These tests pin the three things that could
go wrong with that: an analysis that reads the shared index answers
differently from one that built its own, the index gets rebuilt per
source after all, or a plan keeps an index older than its pair sets.
"""

from hypothesis import given, settings

from repro.analysis.cost import certify_cost, collect_statistics
from repro.analysis.static import certify_counting_safety
from repro.core.classification import classify_nodes
from repro.core.csl import CSLQuery
from repro.core.graph_index import GraphIndex
from repro.core.query_graph import build_query_graph
from repro.datalog.database import Database
from repro.service import SolverService
from repro.service.plan import compile_program_plan

from .conftest import csl_queries
from .test_service import sg_database, sg_program


def _analyses(query):
    return (
        build_query_graph(query),
        collect_statistics(query).summary(),
        certify_cost(query).to_json(),
        certify_counting_safety(query),
        classify_nodes(query),
    )


@settings(max_examples=60, deadline=None)
@given(csl_queries())
def test_shared_index_answers_like_a_fresh_query(query):
    magic_side = {query.source} | {b for b, _c in query.exit}
    magic_side.update(value for pair in query.left for value in pair)
    for source in sorted(magic_side):
        sibling = query.with_source(source)
        assert sibling.index is query.index
        fresh = CSLQuery(query.left, query.exit, query.right, source)
        assert sibling == fresh
        assert _analyses(sibling) == _analyses(fresh)


def _count_index_builds(monkeypatch):
    builds = []
    build = GraphIndex.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(GraphIndex, "__init__", counted)
    return builds


def test_one_index_per_pair_set_version(monkeypatch):
    """50 cold sources, then a mutation, then 50 more: two builds."""
    database = Database()
    database.add_facts("up", [(f"n{i}", f"n{i + 1}") for i in range(50)])
    database.add_facts("flat", [("n50", "f")])
    database.add_facts("down", [(f"g{i + 1}", f"g{i}") for i in range(50)])
    database.add_facts("down", [("g0", "f")])
    service = SolverService(database)
    builds = _count_index_builds(monkeypatch)
    sources = [f"n{i}" for i in range(50)]

    for source in sources:
        result = service.solve(sg_program(source))
        assert result.answers == {f"g{49 - int(source[1:])}"}
    assert len(builds) == 1

    plan = service.compile(sg_program())
    base = plan.query_for("n0")
    assert base.with_source("n7").index is base.index is builds[0]
    assert len(builds) == 1

    assert service.mutate(inserts={"up": [("n50", "n51")]}).plans_maintained
    for source in sources:
        service.solve(sg_program(source))
    assert len(builds) == 2
    assert plan.query_for("n0").index is builds[1]


def test_a_maintained_plan_never_reads_a_stale_index():
    """Close an L-cycle by insertion, then open it again by deletion:
    the plan's certificates track a fresh compile and the adaptive
    choice — the fresh plan's recommendation — flips with them."""
    service = SolverService(sg_database())
    program = sg_program("a")
    plan = service.compile(program)
    served = []

    def check(unsafe):
        fresh = compile_program_plan(program, service.database)
        assert service.compile(program) is plan
        assert plan.counting_certificate("a") == fresh.counting_certificate("a")
        assert plan.counting_certificate("a").is_unsafe is unsafe
        assert (
            plan.cost_certificate("a").to_json()
            == fresh.cost_certificate("a").to_json()
        )
        served.append(service.solve(program).method)
        assert served[-1] == (
            "service_" + fresh.cost_report("a").recommendation.method
        )

    check(unsafe=False)
    service.mutate(inserts={"up": [("c", "a")]})
    check(unsafe=True)
    assert plan.counting_certificate("a").cycle is not None
    service.mutate(deletes={"up": [("c", "a")]})
    check(unsafe=False)
    assert served[0] == served[2] != served[1]
