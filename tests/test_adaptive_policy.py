"""One adaptive policy: the library, the service and both analyzers name
the same method.

``adaptive`` is the certified-bound ranking
(:func:`repro.analysis.cost.analyze_cost_query`) wherever it is asked
for.  For every magic-side source (a value with an ``L``-successor) of
every example program with a CSL query and of the Table-1 workloads,
the four places a method choice surfaces must agree:
``solve(q, "adaptive")``, a one-source ``adaptive`` service batch, the
cost report's recommendation and the static report's
``recommended_method``.
"""

import pathlib

import pytest

from repro.analysis.cost import run_cost_analysis
from repro.analysis.static import run_static_analysis
from repro.cli import _load
from repro.core.csl import CSLQuery
from repro.core.solver import fact2_answer, solve
from repro.errors import NotCSLError
from repro.service import SolverService
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)

PROGRAMS = sorted(
    (pathlib.Path(__file__).parent.parent / "examples" / "programs").glob(
        "*.dl"
    )
)


def _magic_side(query):
    return sorted({x for x, _ in query.left}, key=repr)


def assert_one_policy(program, database, query, target, service):
    for source in _magic_side(query):
        sibling = query.with_source(source)
        library = solve(sibling, "adaptive")
        served = service.solve_batch(target, [source], "adaptive")
        cost = run_cost_analysis(program, database, csl_query=sibling)
        static = run_static_analysis(program, database, csl_query=sibling)
        assert library.method == served.method, source
        assert library.method == cost.recommendation.method, source
        assert library.method == static.recommended_method, source
        assert library.answers == served.answers[source] == fact2_answer(
            sibling
        )
        plan = library.details["plan"]
        assert plan["provenance"] == cost.recommendation.provenance
        assert plan["bound"] == cost.certificate.bound_for(library.method)


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda path: path.name)
def test_every_example_program_has_one_adaptive_policy(path):
    program, database = _load(str(path), None)
    try:
        query = CSLQuery.from_program(program, database=database)
    except NotCSLError:
        # No CSL query: nothing ranks, and the static report keeps its
        # own answer (exercised by tests/test_analyzer_outputs.py).
        assert run_cost_analysis(program, database).recommendation is None
        return
    service = SolverService(database)
    assert_one_policy(program, database, query, program, service)


@pytest.mark.parametrize(
    "generator", [regular_workload, acyclic_workload, cyclic_workload]
)
def test_table_1_has_one_adaptive_policy(generator):
    query = generator(scale=2)
    assert_one_policy(
        query.to_program(), query.database(), query, query, SolverService()
    )


def test_the_examples_include_a_program_without_a_csl_query():
    # The parametrisation above must exercise both branches.
    outcomes = set()
    for path in PROGRAMS:
        program, database = _load(str(path), None)
        try:
            CSLQuery.from_program(program, database=database)
            outcomes.add("csl")
        except NotCSLError:
            outcomes.add("not csl")
    assert outcomes == {"csl", "not csl"}
