"""The method table is the one list of methods: every consumer agrees.

``repro.core.methods.METHODS`` names the fourteen evaluation methods;
``solve``, the cost certificates, the Θ-predictions, the Figure 3 arcs,
the admissibility advisory, the harness columns, the CLI, the REPL and
the batch service must all be keyed by it.  A method added to the table without a runner
that answers, a certified bound or a Θ-prediction fails here.
"""

import pytest

from repro.analysis.cost import certify_cost
from repro.analysis.runner import ALL_METHODS
from repro.analysis.static import certify_counting_safety, method_admissibility
from repro.cli import build_parser
from repro.core.classification import classify_nodes
from repro.core.complexity import all_method_predictions, compute_statistics
from repro.core.counting_method import counting_method
from repro.core.hierarchy import HIERARCHY_RELATIONS, REGULAR_EQUIVALENCE_GROUP
from repro.core.hn_method import hn_method
from repro.core.methods import METHODS, method_name, plan_candidates
from repro.core.solver import SOLVE_METHODS, fact2_answer, solve
from repro.errors import UnsafeQueryError
from repro.repl import Repl
from repro.service import BATCH_METHODS, SolverService
from repro.workloads.generators import acyclic_workload

EXTRA_SPELLINGS = {"auto", "adaptive", "magic_counting", "naive"}


@pytest.fixture(params=["samegen_query", "acyclic_query", "cyclic_query"])
def query(request):
    return request.getfixturevalue(request.param)


def test_the_fixtures_cover_the_three_graph_classes(
    samegen_query, acyclic_query, cyclic_query
):
    classes = [
        classify_nodes(q).graph_class.value
        for q in (samegen_query, acyclic_query, cyclic_query)
    ]
    assert classes == ["regular", "acyclic", "cyclic"]


@pytest.mark.parametrize("name", list(METHODS))
def test_solve_runs_every_table_name(query, name):
    unsafe = METHODS[name].needs_acyclic and classify_nodes(query).is_cyclic
    if unsafe:
        with pytest.raises(UnsafeQueryError):
            solve(query, name)
        return
    result = solve(query, name)
    assert result.answers == fact2_answer(query)
    assert result.method == name


def test_auto_is_an_alias_for_a_table_row(query):
    result = solve(query)
    assert result.method == "mc_recurring_integrated_scc"
    assert result.cost.snapshot() == solve(query, result.method).cost.snapshot()


def test_table_order_and_coordinates():
    names = list(METHODS)
    assert len(names) == 14
    assert names[:4] == [
        "counting", "extended_counting", "magic_set", "henschen_naqvi",
    ]
    hybrids = [row for row in METHODS.values() if row.strategy is not None]
    assert [row.name for row in hybrids] == names[4:]
    for row in hybrids:
        assert method_name(row.strategy, row.mode, row.scc_step1) == row.name
    assert all(name == row.name for name, row in METHODS.items())


def test_certificates_and_predictions_are_keyed_by_the_table(query):
    assert list(certify_cost(query).bounds) == list(METHODS)
    predictions = all_method_predictions(compute_statistics(query))
    assert list(predictions) == list(METHODS)


def test_every_derived_list_is_a_filter_of_the_table():
    arcs = {r.better for r in HIERARCHY_RELATIONS} | {
        r.worse for r in HIERARCHY_RELATIONS
    }
    assert arcs <= set(METHODS)
    ranked = [row.name for row in plan_candidates()]
    assert ranked == [n for n in METHODS if n not in (
        "extended_counting", "magic_set", "henschen_naqvi")]
    assert ALL_METHODS == [n for n in METHODS if n != "henschen_naqvi"]
    assert REGULAR_EQUIVALENCE_GROUP == [
        n for n in ranked if not n.endswith("_scc")
    ]


def test_admissibility_lists_the_table_less_the_scc_variants(cyclic_query):
    verdicts = method_admissibility(certify_counting_safety(cyclic_query))
    assert [v.method for v in verdicts] == [
        n for n in METHODS if not n.endswith("_scc")
    ]
    for verdict in verdicts:
        # the certificate says cyclic: inadmissible exactly when the
        # table says the method needs an acyclic magic graph
        assert verdict.admissible is not METHODS[verdict.method].needs_acyclic


def _subcommand_method_choices(subcommand):
    (subparsers,) = (
        a for a in build_parser()._actions if hasattr(a, "choices") and a.choices
    )
    (option,) = (
        a for a in subparsers.choices[subcommand]._actions if a.dest == "method"
    )
    return list(option.choices)


def test_cli_and_repl_offer_the_table_plus_four_spellings():
    assert set(SOLVE_METHODS) == set(METHODS) | EXTRA_SPELLINGS
    assert len(SOLVE_METHODS) == len(METHODS) + len(EXTRA_SPELLINGS)
    assert _subcommand_method_choices("solve") == list(SOLVE_METHODS)
    repl = Repl()
    (line,) = repl.execute(".method astrology")
    assert line.endswith("choose from: " + ", ".join(SOLVE_METHODS))
    for name in SOLVE_METHODS:
        assert repl.execute(f".method {name}") == [f"method = {name}"]


def test_the_table_imports_neither_the_emitter_nor_the_optimizer():
    import ast
    import inspect

    import repro.core.methods as table

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(table))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [
        name for name in imported
        if "program_rewrite" in name or "analysis" in name
    ]


def test_nothing_that_serves_imports_the_optimizer():
    """The optimizer is a tool the CLI calls (``repro optimize``,
    ``analyze --all``): no module-level or function-level import of
    ``analysis.rewrite`` under the packages an answer passes through."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    offenders = []
    for package in ("core", "service", "server", "cluster"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module or ''}.{alias.name}"
                        for alias in node.names
                    ]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any("analysis.rewrite" in name for name in names):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == []


def test_the_service_offers_its_two_methods_then_the_table():
    assert list(BATCH_METHODS) == ["shared_magic", "adaptive", *METHODS]
    assert isinstance(BATCH_METHODS, tuple)  # wire values are tested with `in`
    assert _subcommand_method_choices("batch") == list(BATCH_METHODS)


@pytest.mark.parametrize("name", list(METHODS))
def test_the_service_runs_every_table_row(query, name):
    row = METHODS[name]
    if row.needs_acyclic and classify_nodes(query).is_cyclic:
        service = SolverService()
        with pytest.raises(UnsafeQueryError) as refusal:
            service.solve_batch(query, [query.source], method=name)
        assert str(refusal.value).startswith(
            f"{name} refused by static certification: "
        )
        assert service.stats()["retrievals"] == 0
        assert service.stats()["batches"] == 0
        return
    batch = SolverService().solve_batch(query, [query.source], method=name)
    assert batch.answers == {query.source: fact2_answer(query)}
    assert batch.method == name
    assert batch.cost.snapshot() == row.run(query).cost.snapshot()
    assert f"phase:{name}" in batch.metrics
    bound = certify_cost(query).bound_for(name)
    if bound is None:
        assert "predicted_bound" not in batch.details
    else:
        assert batch.details["predicted_bound"] == bound
        assert batch.metrics["predicted_method"] == name


def test_a_row_batch_is_one_run_per_source_on_one_counter(cyclic_query):
    sources = ["a", "d", "nowhere"]
    name = "mc_multiple_integrated"
    batch = SolverService().solve_batch(cyclic_query, sources, method=name)
    runs = [METHODS[name].run(cyclic_query.with_source(s)) for s in sources]
    assert batch.answers == {s: r.answers for s, r in zip(sources, runs)}
    assert batch.retrievals == sum(r.cost.retrievals for r in runs)
    assert batch.details["rc_size"] == sum(r.details["rc_size"] for r in runs)


def test_adaptive_serves_the_librarys_recommendation(query):
    service = SolverService()
    batch = service.solve_batch(query, [query.source], method="adaptive")
    report = service.compile(query).cost_report(query.source)
    assert batch.method == report.recommendation.method
    assert batch.answers == {query.source: fact2_answer(query)}
    two = service.solve_batch(query, [query.source, "b"], method="adaptive")
    assert two.method == "shared_magic"


def _count_calls(monkeypatch, calls, module, attribute):
    wrapped = getattr(module, attribute)

    def counted(*args, **kwargs):
        calls.append(attribute)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, attribute, counted)


def test_adaptive_pays_for_one_analysis_per_cold_source(
    cyclic_query, monkeypatch
):
    """The recommendation is read from the decision memo
    ``predicted_bound`` fills: one certification for a cold source — the
    certificate names the regime, so no classification — none for a
    warm one."""
    import repro.analysis.cost.framework as framework
    import repro.core.classification as classification

    calls = []
    _count_calls(monkeypatch, calls, framework, "certify_cost")
    _count_calls(monkeypatch, calls, classification, "classify_nodes")
    service = SolverService()
    service.solve(cyclic_query, "a")
    assert calls == ["certify_cost"]
    service.solve(cyclic_query, "a")
    assert calls == ["certify_cost"]
    service.solve(cyclic_query, "b")
    assert calls == ["certify_cost", "certify_cost"]


def test_a_pool_larger_than_the_old_memo_is_analysed_once(monkeypatch):
    """393 distinct sources thrashed the 256-entry clear-all memo of cost
    reports; the decision memo holds them all, so a second pass over the
    same pool runs no analysis."""
    import repro.analysis.cost as cost

    query = acyclic_workload(scale=12, seed=0)
    pool = sorted({value for pair in query.left for value in pair})
    assert len(pool) == 393
    calls = []
    _count_calls(monkeypatch, calls, cost, "analyze_cost_query")
    service = SolverService()
    for source in pool:
        service.solve(query, source)
    assert len(calls) == len(pool)
    for source in pool:
        service.solve(query, source)
    assert len(calls) == len(pool)


@pytest.mark.parametrize("method", [counting_method, hn_method])
def test_divergence_detection_is_not_a_callers_choice(method, cyclic_query):
    with pytest.raises(TypeError):
        method(cyclic_query, detect_divergence=False)
    with pytest.raises(UnsafeQueryError):
        method(cyclic_query)
