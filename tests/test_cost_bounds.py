"""Per-formula pins for the cost-bound analyzer (repro.analysis.cost).

Every pinned number below is derived *by hand* from the closed-form
bound formulas in ``repro.analysis.cost.bounds`` — the test fails when
a formula changes, deliberately: a bound regression must be re-derived,
not re-recorded.  The companion suite ``test_cost_soundness.py`` checks
the other direction (measured cost never exceeds any certified bound).
"""

import dataclasses
import json

import pytest

from repro.analysis.cost import (
    COST_PASSES,
    INF,
    CostReport,
    Interval,
    analyze_cost_query,
    certify_cost,
    collect_statistics,
    interpret,
    run_cost_analysis,
)
from repro.core.classification import classify_nodes
from repro.core.csl import CSLQuery
from repro.core.counting_method import counting_method
from repro.core.methods import (
    METHODS,
    PlanRecommendation,
    plan_candidates,
    recommended_plan,
)
from repro.core.reduced_sets import Mode, Strategy
from repro.core.solver import adaptive_solve
from repro.datalog.database import Database
from repro.datalog.parser import parse_program

# A regular 2-step chain: a -L-> b -L-> c -E-> z2 <-R- z1 <-R- z0.
# Region statistics: n=3, m=2, n_R=3, m_R=2 (answer sweep 5),
# e_sum(MS) = (1+0)+(1+0)+(1+1) = 4, lin_sum(MS) = 0+1+1 = 2.
CHAIN = CSLQuery(
    frozenset({("a", "b"), ("b", "c")}),
    frozenset({("c", "z2")}),
    frozenset({("z1", "z2"), ("z0", "z1")}),
    "a",
)

# A 2-cycle a <-L-> b with one exit a -E-> z and no R arcs:
# n=2, m=2, n_R=1, m_R=0 (answer sweep 1), e_sum(MS) = 2+1 = 3,
# lin_sum(MS) = 2.  Both nodes are recurring.
CYCLE = CSLQuery(
    frozenset({("a", "b"), ("b", "a")}),
    frozenset({("a", "z")}),
    frozenset(),
    "a",
)


def _bounds(query, **kwargs):
    certificate = certify_cost(query, **kwargs)
    return {m: b.bound for m, b in certificate.bounds.items()}


class TestChainPins:
    """Every method bound on the regular chain, derived per formula."""

    @pytest.fixture(scope="class")
    def bounds(self):
        return _bounds(CHAIN)

    def test_counting(self, bounds):
        # cs = Σ hi·(1+out_L) = 2+2+1 = 5; seed = Σ hi·(1+out_E)
        # = 1+1+2 = 4; descend = max_dmax · (n_R+m_R) = 2·5 = 10.
        assert bounds["counting"] == 5 + 4 + 10 == 19

    def test_extended_counting(self, bounds):
        # cap = n·n_R = 9; cs = 9·(n+m) = 45; seed = 10·e_sum = 40;
        # descend = 9·5 = 45.
        assert bounds["extended_counting"] == 45 + 40 + 45 == 130

    def test_magic_set(self, bounds):
        # reachability = n+m = 5; PM = e_sum(MS) + n_R·(|MS|+lin_sum)
        # + l_cross(MS,MS)·sweep = 4 + 3·5 + 2·5 = 29.
        assert bounds["magic_set"] == 5 + 29 == 34

    def test_henschen_naqvi_abstains(self, bounds):
        assert bounds["henschen_naqvi"] is None

    def test_regular_hybrids(self, bounds):
        # Regular graph: RM is empty for basic/single/multiple and the
        # naive recurring, so the magic part is free.  INDEPENDENT =
        # step1(5) + rc_seed(4) + descend(10) = 19; INTEGRATED adds the
        # forced source pair (1+out_E(a)) = 1.
        for strategy in ("basic", "single", "multiple", "recurring"):
            assert bounds[f"mc_{strategy}_independent"] == 19
            assert bounds[f"mc_{strategy}_integrated"] == 20

    def test_recurring_scc(self, bounds):
        # The SCC Step 1 pays the region traversal (n+m = 5) plus one
        # re-probe per (node, index) pair (Σ hi·(1+out_L) = 5).
        assert bounds["mc_recurring_independent_scc"] == 10 + 4 + 10 == 24
        assert bounds["mc_recurring_integrated_scc"] == 10 + 5 + 10 == 25


class TestCyclePins:
    """Every method bound on the 2-cycle, derived per formula."""

    @pytest.fixture(scope="class")
    def bounds(self):
        return _bounds(CYCLE)

    def test_counting_abstains_on_cycles(self):
        entry = certify_cost(CYCLE).bounds["counting"]
        assert entry.bound is None
        assert "cyclic" in entry.reason

    def test_extended_counting(self, bounds):
        # cap = n·n_R = 2; cs = 2·(n+m) = 8; seed = 3·e_sum(MS) = 9;
        # descend = 2·1 = 2.
        assert bounds["extended_counting"] == 8 + 9 + 2 == 19

    def test_magic_set(self, bounds):
        # reachability = 4; PM = e_sum(MS) + n_R·(|MS|+lin_sum) +
        # l_cross·sweep = 3 + 1·4 + 2·1 = 9.
        assert bounds["magic_set"] == 4 + 9 == 13

    def test_basic_and_single_collapse_to_magic_everything(self, bounds):
        # Irregular: RC is empty, RM is the whole region; INDEPENDENT =
        # step1(4) + PM over MS (9) = 13.  INTEGRATED adds the forced
        # source pair (1+out_E(a) = 2) and the rule-3 transfer
        # (backward n_R·(|RM|+lin_sum) = 4, crossing l_cross({a},RM)·1
        # = 1): 4+2+9+5 = 20.  The single frontier i_x = 0 yields the
        # same shape.
        assert bounds["mc_basic_independent"] == 13
        assert bounds["mc_basic_integrated"] == 20
        assert bounds["mc_single_independent"] == 13
        assert bounds["mc_single_integrated"] == 20

    def test_multiple(self, bounds):
        # Both nodes are non-single: step1 = (n+m) + probe_sum = 8;
        # rc_seed = e_sum(MS) = 3; max_index = max dmin = 1; transfer
        # crossing over RC values = MS gives 4+2 = 6.
        assert bounds["mc_multiple_independent"] == 8 + 3 + 1 + 9 == 21
        assert bounds["mc_multiple_integrated"] == 8 + 5 + 1 + 9 + 6 == 29

    def test_recurring_naive_pays_the_level_cap(self, bounds):
        # cap = 2n-1 = 3: step1 = 3·probe_sum(recurring) = 12; rc_seed
        # = 3·e_sum(recurring) = 9 (truncation can leak recurring nodes
        # into RC); max_index = 2n-2 = 2.
        assert bounds["mc_recurring_independent"] == 12 + 9 + 2 + 9 == 32
        assert (
            bounds["mc_recurring_integrated"] == 12 + 11 + 2 + 9 + 6 == 40
        )

    def test_recurring_scc_is_exact_about_the_split(self, bounds):
        # The SCC variant knows no node is finite: step1 = (n+m) = 4,
        # empty RC, magic over the recurring set only.
        assert bounds["mc_recurring_independent_scc"] == 4 + 9 == 13
        assert bounds["mc_recurring_integrated_scc"] == 4 + 2 + 9 + 5 == 20


class TestWidening:
    def test_tiny_budget_widens_and_records_assumptions(self):
        certificate = certify_cost(CHAIN, node_budget=1)
        assert certificate.widened
        assert any("budget" in a for a in certificate.assumptions)
        # Widened counting cannot certify termination...
        assert certificate.bounds["counting"].bound is None
        assert "widened" in certificate.bounds["counting"].reason
        # ...but the always-terminating methods still get (loose) bounds.
        for method in ("magic_set", "extended_counting",
                       "mc_basic_independent", "mc_recurring_integrated_scc"):
            assert certificate.bounds[method].bound is not None

    def test_widened_bounds_dominate_exact_ones(self):
        exact = _bounds(CHAIN)
        widened = _bounds(CHAIN, node_budget=1)
        for method, bound in exact.items():
            if bound is not None and widened[method] is not None:
                assert widened[method] >= bound


class TestAbstractInterpretation:
    def test_chain_distances_are_exact(self):
        abstract = interpret(collect_statistics(CHAIN))
        assert abstract.recurring == frozenset()
        assert abstract.is_certified_acyclic
        assert abstract.is_certified_regular
        assert abstract.distance["a"] == Interval(0, 0)
        assert abstract.distance["c"] == Interval(2, 2)
        assert abstract.frontier_index == INF

    def test_cycle_is_all_recurring(self):
        abstract = interpret(collect_statistics(CYCLE))
        assert abstract.recurring == frozenset({"a", "b"})
        assert abstract.finite == frozenset()
        assert not abstract.is_certified_acyclic
        assert abstract.frontier_index == 0

    def test_interval_algebra(self):
        assert Interval.exact(3).join(Interval.exact(5)) == Interval(3, 5)
        assert Interval(1, 2).add(Interval(3, INF)) == Interval(4, INF)
        assert Interval(0, INF).cap(7) == Interval(0, 7)
        assert 4 in Interval(3, 5)
        assert not Interval(3, 5).is_exact


class TestPlanSelection:
    def test_certificate_ranks_and_selects(self):
        plan = recommended_plan(certify_cost(CHAIN))
        assert isinstance(plan, PlanRecommendation)
        assert plan.provenance == "certified-bound"
        assert plan.method == "counting"
        ranking = plan.details["ranking"]
        selected = [row for row in ranking if row["selected"]]
        assert [row["method"] for row in selected] == ["counting"]
        certified = [r["bound"] for r in ranking if r["bound"] is not None]
        assert certified == sorted(certified)

    def test_divergence_from_the_heuristic_is_visible(self):
        # On the 2-cycle the heuristic picks the SCC recurring method
        # (20) but basic-independent is certified cheaper (13).
        plan = recommended_plan(certify_cost(CYCLE))
        assert plan.method == "mc_basic_independent"
        assert plan.details["heuristic"] == "mc_recurring_integrated_scc"
        assert "13" in plan.details["reason"]

    def test_names_a_table_entry(self):
        # Every path out of the ranking names a runnable row: a ranked
        # pick, and the regime rule's pick when every candidate abstains
        # (a widened certificate with its bounds withheld).
        certificate = certify_cost(CHAIN)
        plan = recommended_plan(certificate)
        assert METHODS[plan.method].run is counting_method
        assert plan.method == certificate.best().method
        abstaining = dataclasses.replace(
            certificate,
            bounds={
                name: dataclasses.replace(entry, bound=None)
                for name, entry in certificate.bounds.items()
            },
        )
        fallback = recommended_plan(abstaining, classify_nodes(CHAIN))
        assert fallback.provenance == "heuristic-fallback"
        assert METHODS[fallback.method].run is counting_method
        assert fallback.method == fallback.details["heuristic"]

    def test_candidates_cover_every_executable_plan(self):
        names = [c.name for c in plan_candidates()]
        assert names[0] == "counting"
        assert len(names) == 11
        assert "mc_recurring_integrated_scc" in names

    def test_adaptive_solve_attaches_the_plan_table(self):
        result = adaptive_solve(CYCLE)
        plan = result.details["plan"]
        assert plan["provenance"] == "certified-bound"
        assert result.method == "mc_basic_independent"
        assert result.cost.retrievals <= plan["bound"] == 13
        assert "13" in plan["reason"]


class TestReport:
    def test_pipeline_order(self):
        assert [p.name for p in COST_PASSES.passes()] == [
            "cost-applicability",
            "cost-region",
            "cost-bounds",
            "cost-ranking",
        ]

    def test_query_report_on_the_cycle(self):
        report = analyze_cost_query(CYCLE)
        codes = {d.code for d in report.diagnostics}
        # counting + henschen_naqvi abstain, and the ranked choice
        # diverges from the heuristic.
        assert "cost-abstained" in codes
        assert "cost-divergence" in codes
        assert not report.has_errors
        assert not report.exceeds("warning")

    def test_widened_report_warns(self):
        report = analyze_cost_query(CHAIN, node_budget=1)
        assert any(d.code == "cost-widened" for d in report.diagnostics)
        assert report.exceeds("warning")
        assert not report.exceeds("error")
        # The widened certificate proves no regime; the unbounded walk
        # supplies the exact one (regular) for the tie-break rule.
        assert report.certificate.graph_class is None
        assert report.recommendation.details["heuristic"] == "counting"

    def test_non_csl_program_degrades_gracefully(self):
        program = parse_program(
            "p(X, Y) :- e(X, Y).\n"
            "p(X, Y) :- p(X, Z), p(Z, Y).\n"
            "?- p(a, Y)."
        )
        report = run_cost_analysis(program, Database())
        assert report.certificate is None
        (finding,) = report.diagnostics
        assert finding.code == "cost-not-applicable"

    def test_program_report_round_trips_to_json(self):
        program = parse_program(
            "p(X, Y) :- e(X, Y).\n"
            "p(X, Y) :- l(X, Z), p(Z, W), r(Y, W).\n"
            "l(a, b). l(b, c). e(c, z2). r(z1, z2). r(z0, z1).\n"
            "?- p(a, Y)."
        )
        database = Database()
        rules = []
        for rule in program.rules:
            if rule.is_fact:
                database.add_atom(rule.head)
            else:
                rules.append(rule)
        from repro.datalog.program import Program

        report = run_cost_analysis(Program(rules, program.query), database)
        assert isinstance(report, CostReport)
        document = json.loads(json.dumps(report.to_json()))
        assert document["certificate"]["bounds"]["counting"]["bound"] == 19
        assert document["recommendation"]["method"] == "counting"

    def test_sarif_validates_against_vendored_schema(self, validate_sarif):
        validate_sarif(analyze_cost_query(CYCLE).to_sarif(
            artifact_uri="cycle.dl"
        ))

    def test_sarif_carries_the_recommendation(self):
        report = analyze_cost_query(CYCLE)
        log = report.to_sarif(artifact_uri="cycle.dl")
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-cost-analyzer"
        properties = run["properties"]
        assert properties["recommendedMethod"] == "mc_basic_independent"
        assert properties["recommendationProvenance"] == "certified-bound"
        assert all(
            result["locations"][0]["physicalLocation"]["artifactLocation"][
                "uri"
            ]
            == "cycle.dl"
            for result in run["results"]
        )


class TestCli:
    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "chain.dl"
        path.write_text(
            "p(X, Y) :- e(X, Y).\n"
            "p(X, Y) :- l(X, Z), p(Z, W), r(Y, W).\n"
            "l(a, b). l(b, c). e(c, z2). r(z1, z2). r(z0, z1).\n"
            "?- p(a, Y).\n"
        )
        return str(path)

    def test_analyze_cost_text(self, capsys, program_file):
        from repro.cli import main

        assert main(["analyze", program_file, "--cost"]) == 0
        out = capsys.readouterr().out
        assert "certified retrieval bounds" in out
        assert "counting" in out
        assert "recommended plan: counting [certified-bound]" in out

    def test_analyze_cost_sarif(self, capsys, program_file):
        from repro.cli import main

        assert main(
            ["analyze", program_file, "--cost", "--format", "sarif"]
        ) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["tool"]["driver"]["name"] == (
            "repro-cost-analyzer"
        )

    def test_analyze_cost_fail_on_warning_is_clean_here(self, program_file):
        from repro.cli import main

        assert main(
            ["analyze", program_file, "--cost", "--fail-on", "warning"]
        ) == 0
