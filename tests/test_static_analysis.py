"""Tests for the static safety analyzer (repro.analysis.static)."""

import json
import pathlib

import pytest
from hypothesis import given, settings

from repro.analysis.cost import analyze_cost_query, run_cost_analysis
from repro.analysis.static import (
    ProgramFacts,
    STATIC_PASSES,
    Verdict,
    certify_counting_safety,
    certify_relation,
    certify_source,
    expected_reduced_sets,
    method_admissibility,
    run_static_analysis,
    verify_partition_conditions,
)
from repro.core.classification import classify_nodes
from repro.core.csl import CSLQuery
from repro.core.methods import METHODS
from repro.core.reduced_sets import Strategy
from repro.core.step1 import compute_reduced_sets
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.workloads import (
    accidentally_cyclic_family,
    acyclic_workload,
    chorded_cycle,
    cyclic_workload,
    diamond_ladder_into_cycle,
    figure1_acyclic_query,
    figure1_cyclic_query,
    figure1_query,
    figure2_query,
    regular_workload,
)

from tests.conftest import csl_queries

EXAMPLE_PROGRAMS = sorted(
    (pathlib.Path(__file__).parent.parent / "examples" / "programs").glob(
        "*.dl"
    )
)

SG_PROGRAM = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y, Y1).
?- sg(a, Y).
"""


def load_program(path: pathlib.Path):
    """Parse a .dl file, splitting ground facts into a Database."""
    program = parse_program(path.read_text())
    database = Database()
    rules = []
    for rule in program.rules:
        if rule.is_fact:
            database.add_atom(rule.head)
        else:
            rules.append(rule)
    return Program(rules, program.query), database


def sg_setup(up_pairs):
    program = parse_program(SG_PROGRAM)
    database = Database()
    database.add_facts("up", up_pairs)
    database.add_facts("flat", [("a", "x")])
    database.add_facts("down", [("y", "x")])
    return program, database


@pytest.fixture(autouse=True)
def no_fixpoint(monkeypatch):
    """Certification must never execute a counting or magic fixpoint.

    Every fixpoint entry point the engines own is replaced with a bomb;
    any analyzer path that reaches one fails the test.  (Tests that
    *serve* queries opt out by not using the analyzer-only helpers.)
    """

    def bomb(name):
        def explode(*args, **kwargs):
            raise AssertionError(
                f"static analysis executed a fixpoint ({name})"
            )

        return explode

    # importlib: the repro.core package re-exports same-named functions
    # which would shadow the submodules under plain attribute access.
    import importlib

    counting_module = importlib.import_module("repro.core.counting_method")
    magic_module = importlib.import_module("repro.core.magic_method")
    step1_module = importlib.import_module("repro.core.step1")

    monkeypatch.setattr(
        counting_module, "compute_counting_set", bomb("compute_counting_set")
    )
    monkeypatch.setattr(
        magic_module, "magic_fixpoint", bomb("magic_fixpoint")
    )
    monkeypatch.setattr(
        magic_module, "compute_magic_set", bomb("compute_magic_set")
    )
    monkeypatch.setattr(
        step1_module, "compute_reduced_sets", bomb("compute_reduced_sets")
    )
    yield


# The expected-vs-actual Step-1 test genuinely runs Step-1 fixpoints;
# it manages without the autouse bomb by requesting the real functions
# before patching.  Simpler: mark those tests to disable the fixture.
@pytest.fixture
def real_fixpoints(monkeypatch):
    monkeypatch.undo()


class TestCertification:
    def test_acyclic_relation_safe_for_every_source(self):
        left = frozenset({("a", "b"), ("b", "c"), ("a", "c")})
        certificate = certify_relation(left)
        assert certificate.verdict == Verdict.SAFE
        assert certificate.source is None

    def test_cyclic_relation_needs_per_source_check(self):
        left = frozenset({("a", "b"), ("b", "a"), ("c", "d")})
        certificate = certify_relation(left)
        assert certificate.verdict == Verdict.UNKNOWN
        assert certificate.cycle is not None

    def test_source_avoiding_the_cycle_is_safe(self):
        left = frozenset({("a", "b"), ("b", "a"), ("c", "d")})
        assert certify_source(left, "c").verdict == Verdict.SAFE
        assert certify_source(left, "a").verdict == Verdict.UNSAFE

    def test_self_loop_is_a_cycle(self):
        left = frozenset({("a", "a")})
        certificate = certify_source(left, "a")
        assert certificate.verdict == Verdict.UNSAFE
        assert certificate.cycle == ("a",)

    def test_witness_cycle_is_real(self):
        query = cyclic_workload(scale=2, seed=1)
        certificate = certify_counting_safety(query)
        assert certificate.verdict == Verdict.UNSAFE
        cycle = certificate.cycle
        arcs = set(query.left)
        for i, node in enumerate(cycle):
            assert (node, cycle[(i + 1) % len(cycle)]) in arcs

    @pytest.mark.parametrize(
        "make_query",
        [
            lambda: cyclic_workload(scale=1, seed=0),
            lambda: cyclic_workload(scale=3, seed=2),
            lambda: figure1_cyclic_query(),
            lambda: chorded_cycle(6),
            lambda: diamond_ladder_into_cycle(4),
        ],
        ids=["cyclic-s1", "cyclic-s3", "figure1", "chorded", "diamond"],
    )
    def test_every_cyclic_workload_certified_unsafe_without_fixpoint(
        self, make_query
    ):
        # The autouse no_fixpoint fixture turns any fixpoint into an
        # AssertionError; certification must succeed regardless.
        certificate = certify_counting_safety(make_query())
        assert certificate.verdict == Verdict.UNSAFE
        assert certificate.cycle, "unsafe verdict must carry a witness"

    @pytest.mark.parametrize(
        "make_query,expected",
        [
            (lambda: regular_workload(scale=2, seed=0), Verdict.SAFE),
            (lambda: acyclic_workload(scale=2, seed=0), Verdict.SAFE),
            (lambda: figure1_query(), Verdict.SAFE),
            (lambda: figure1_acyclic_query(), Verdict.SAFE),
        ],
        ids=["regular", "acyclic", "figure1", "figure1-acyclic"],
    )
    def test_acyclic_workloads_certified_safe(self, make_query, expected):
        assert certify_counting_safety(make_query()).verdict == expected

    def test_accidental_cycle_matches_ground_truth(self):
        query = accidentally_cyclic_family(people=24, seed=3)
        certificate = certify_counting_safety(query)
        truth = classify_nodes(query)
        expected = Verdict.UNSAFE if truth.is_cyclic else Verdict.SAFE
        assert certificate.verdict == expected

    @settings(max_examples=60, deadline=None)
    @given(query=csl_queries())
    def test_certificate_matches_classification(self, query):
        certificate = certify_source(query.left, query.source)
        truth = classify_nodes(query)
        if truth.is_cyclic:
            assert certificate.verdict == Verdict.UNSAFE
        else:
            assert certificate.verdict == Verdict.SAFE
        assert certificate.is_safe == truth.counting_safe


class TestProgramLevel:
    def test_program_with_database_certified(self):
        program, database = sg_setup([("a", "b"), ("b", "c")])
        report = run_static_analysis(program, database)
        assert report.certificate.verdict == Verdict.SAFE
        assert report.graph_class == "regular"

    def test_cyclic_program_warns(self):
        program, database = sg_setup([("a", "b"), ("b", "a")])
        report = run_static_analysis(program, database)
        assert report.certificate.verdict == Verdict.UNSAFE
        assert "counting-unsafe" in [d.code for d in report.diagnostics]
        assert not report.has_errors  # warning, not error: magic still works

    def test_no_database_is_unknown_with_reason(self):
        program = parse_program(SG_PROGRAM)
        report = run_static_analysis(program)
        assert report.certificate.verdict == Verdict.UNKNOWN
        assert "database" in report.certificate.reason

    def test_free_goal_flagged(self):
        program = parse_program("p(X) :- e(X). ?- p(Y).")
        report = run_static_analysis(program)
        assert "free-goal" in [d.code for d in report.diagnostics]
        assert report.certificate.verdict == Verdict.UNKNOWN

    def test_non_csl_program_reports_info(self):
        program, database = load_program(
            EXAMPLE_PROGRAMS[-1]  # transitive_closure.dl
        )
        report = run_static_analysis(program, database)
        codes = [d.code for d in report.diagnostics]
        assert "not-csl" in codes
        assert "counting-unknown" not in codes  # not-csl already explains

    def test_goalless_program_still_lints(self):
        program = parse_program("p(X, Y) :- q(X).")
        report = run_static_analysis(program)
        assert report.has_errors
        assert report.certificate is None


class TestFramework:
    def test_default_pipeline_order(self):
        names = [p.name for p in STATIC_PASSES.passes()]
        assert names[:6] == [
            "rule-safety",
            "stratification",
            "undefined",
            "unused",
            "unreachable",
            "singletons",
        ]
        assert "counting-safety" in names
        assert "rewrite-verification" in names

    def test_pass_subset_selection(self):
        program = parse_program("p(X) :- e(X, Y). ?- p(a).")
        report = run_static_analysis(program, passes=["singletons"])
        assert report.passes_run == ["singletons"]
        assert {d.code for d in report.diagnostics} == {"singleton"}

    def test_unknown_pass_fails_loudly(self):
        program = parse_program("p(X) :- e(X). ?- p(a).")
        with pytest.raises(KeyError):
            run_static_analysis(program, passes=["no-such-pass"])

    def test_report_counts_and_exceeds(self):
        program, database = sg_setup([("a", "b"), ("b", "a")])
        report = run_static_analysis(program, database)
        counts = report.counts()
        assert counts["error"] == 0
        assert counts["warning"] >= 1
        assert not report.exceeds("error")
        assert report.exceeds("warning")

    def test_to_json_is_serializable(self):
        program, database = sg_setup([("a", "b"), ("b", "a")])
        report = run_static_analysis(program, database)
        document = json.loads(json.dumps(report.to_json()))
        assert document["counting_safety"]["verdict"] == "unsafe"
        assert document["graph_class"] == "cyclic"
        recommendation = run_cost_analysis(program, database).recommendation
        assert document["recommended_method"] == recommendation.method
        assert not METHODS[recommendation.method].needs_acyclic

    def test_preseeded_csl_query_is_not_rematerialized(self):
        program, database = sg_setup([("a", "b")])
        query = CSLQuery.from_program(program, database=database)
        facts = ProgramFacts(program, database, csl=query)
        assert facts.csl_query() is query


class TestRewriteVerification:
    @pytest.mark.parametrize(
        "make_query",
        [
            lambda: regular_workload(scale=2, seed=0),
            lambda: acyclic_workload(scale=2, seed=1),
            lambda: cyclic_workload(scale=2, seed=0),
            lambda: figure2_query(),
        ],
        ids=["regular", "acyclic", "cyclic", "figure2"],
    )
    def test_expected_reduced_sets_match_step1(
        self, make_query, real_fixpoints
    ):
        query = make_query()
        classification = classify_nodes(query)
        for strategy in Strategy:
            expected = expected_reduced_sets(classification, strategy)
            actual = compute_reduced_sets(query.instance(), strategy)
            assert expected.rc == actual.rc, strategy
            assert expected.rm == actual.rm, strategy
            assert expected.ms == actual.ms, strategy

    @pytest.mark.parametrize(
        "make_query",
        [
            lambda: regular_workload(scale=1, seed=0),
            lambda: acyclic_workload(scale=2, seed=0),
            lambda: cyclic_workload(scale=2, seed=1),
        ],
        ids=["regular", "acyclic", "cyclic"],
    )
    def test_partition_conditions_hold(self, make_query):
        query = make_query()
        classification = classify_nodes(query)
        assert verify_partition_conditions(classification, query.source) == []

    def test_rewrite_outputs_lint_clean(self):
        program, database = sg_setup([("a", "b")])
        report = run_static_analysis(program, database)
        codes = {d.code for d in report.diagnostics}
        assert "rewrite-unsafe" not in codes
        assert "rewrite-unstrat" not in codes
        assert "rewrite-partition" not in codes


class TestAdmissibility:
    def test_cyclic_goal_rules_out_counting_and_hn(self, cyclic_query):
        certificate = certify_counting_safety(cyclic_query)
        verdicts = {v.method: v for v in method_admissibility(certificate)}
        assert verdicts["counting"].admissible is False
        assert verdicts["henschen_naqvi"].admissible is False
        assert verdicts["extended_counting"].admissible is True
        assert verdicts["magic_set"].admissible is True
        for strategy in ("basic", "single", "multiple", "recurring"):
            for mode in ("independent", "integrated"):
                assert verdicts[f"mc_{strategy}_{mode}"].admissible is True

    def test_safe_goal_admits_everything(self, samegen_query):
        certificate = certify_counting_safety(samegen_query)
        assert all(
            v.admissible is True
            for v in method_admissibility(certificate)
        )

    def test_unknown_is_three_valued(self):
        program = parse_program(SG_PROGRAM)
        report = run_static_analysis(program)
        verdicts = {v.method: v for v in report.admissibility}
        assert verdicts["counting"].admissible is None
        assert verdicts["magic_set"].admissible is True

    def test_recommendation_matches_adaptive_policy(self, cyclic_query):
        # adaptive_solve runs exactly this recommendation.
        recommendation = analyze_cost_query(cyclic_query).recommendation
        report = run_static_analysis(
            cyclic_query.to_program(), cyclic_query.database()
        )
        assert report.recommended_method == recommendation.method
        assert recommendation.provenance == "certified-bound"
        assert not METHODS[report.recommended_method].needs_acyclic


class TestCallPatterns:
    def test_adorned_call_patterns(self):
        from repro.datalog.adornment import adorn_program

        program = parse_program(SG_PROGRAM)
        patterns = adorn_program(program).call_patterns()
        assert ("sg", "bf") in patterns

    def test_facts_expose_call_patterns(self):
        program = parse_program(SG_PROGRAM)
        facts = ProgramFacts(program)
        assert ("sg", "bf") in facts.call_patterns()
        assert facts.adornment_error is None

    def test_condensation_finds_recursion_cluster(self):
        program = parse_program(SG_PROGRAM)
        facts = ProgramFacts(program)
        assert ["sg"] in facts.recursive_components()


class TestExamplesSelfLint:
    @pytest.mark.parametrize(
        "path", EXAMPLE_PROGRAMS, ids=lambda p: p.stem
    )
    def test_shipped_example_has_zero_errors(self, path):
        program, database = load_program(path)
        report = run_static_analysis(program, database)
        errors = [d for d in report.diagnostics if d.level == "error"]
        assert errors == [], f"{path.name}: {errors}"

    def test_example_set_is_nonempty(self):
        assert len(EXAMPLE_PROGRAMS) >= 4


class TestSarif:
    def make_report(self):
        program, database = sg_setup([("a", "b"), ("b", "a")])
        # An unused predicate and a singleton widen level coverage.
        extra = parse_program(
            "orphan(X) :- up(X, Unused_y)."
        )
        program.add_rule(extra.rules[0])
        return run_static_analysis(program, database)

    def test_sarif_validates_against_schema(self, validate_sarif):
        validate_sarif(self.make_report().to_sarif(artifact_uri="program.dl"))

    def test_sarif_structure_and_level_mapping(self):
        document = self.make_report().to_sarif()
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro-static-analyzer"
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["counting-unsafe"] == "warning"
        assert levels["unused"] == "warning"
        by_rule = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(levels) <= by_rule
        assert run["properties"]["countingSafety"] == "unsafe"

    def test_info_maps_to_note(self):
        program = parse_program("p(X) :- e(X, Y). ?- p(a).")
        document = run_static_analysis(
            program, passes=["singletons"]
        ).to_sarif()
        (run,) = document["runs"]
        assert {r["level"] for r in run["results"]} == {"note"}

    def test_every_emitted_code_has_rule_metadata(self):
        from repro.analysis.static import RULE_METADATA

        report = self.make_report()
        for diagnostic in report.diagnostics:
            assert diagnostic.code in RULE_METADATA
