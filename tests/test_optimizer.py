"""The static program optimizer (:mod:`repro.analysis.rewrite`).

Covers the framework (registry, fixpoint driver, report renderings),
each pass in isolation, the golden before/after regression corpus under
``tests/data/optimizer_corpus``, and the idempotence property: running
the optimizer over its own output changes nothing.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis.rewrite import (
    OPTIMIZER_PASSES,
    RULE_METADATA,
    TRACE_KINDS,
    optimize_program,
)
from repro.datalog.database import Database
from repro.datalog.evaluation import answer_tuples
from repro.datalog.parser import parse_program
from repro.datalog.program import Program

CORPUS = pathlib.Path(__file__).parent / "data" / "optimizer_corpus"

PIPELINE = [
    "constant-folding",
    "subsumption",
    "chain-inlining",
    "dead-rule-elimination",
    "argument-slicing",
    "boundedness",
]


def load_text(source: str):
    """Parse, splitting ground bodiless rules into a Database (the CLI's
    convention, shared by the corpus files)."""
    program = parse_program(source)
    database = Database()
    rules = []
    for rule in program.rules:
        if rule.is_fact:
            database.add_atom(rule.head)
        else:
            rules.append(rule)
    return Program(rules, program.query), database


def rule_lines(program: Program):
    return sorted(str(rule) for rule in program.rules)


# --- framework ----------------------------------------------------------


class TestFramework:
    def test_default_pipeline_order(self):
        assert [p.name for p in OPTIMIZER_PASSES.passes()] == PIPELINE

    def test_unknown_pass_raises(self):
        program, database = load_text("p(X) :- e(X, Y). ?- p(X).")
        with pytest.raises(KeyError):
            optimize_program(program, database, passes=["no-such-pass"])

    def test_pass_subset_preserves_registration_order(self):
        program, database = load_text("p(X) :- e(X, Y). ?- p(X).")
        report = optimize_program(
            program, database,
            passes=["boundedness", "constant-folding"],
        )
        assert report.passes_run == ["constant-folding", "boundedness"]

    def test_input_program_is_never_mutated(self):
        program, database = load_text(
            "p(X) :- e(X, Y), 2 < 1.\n"
            "p(X) :- e(X, Y).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        before = rule_lines(program)
        report = optimize_program(program, database)
        assert report.changed
        assert rule_lines(program) == before
        assert report.original is program

    def test_unchanged_program_reports_no_traces(self):
        program, database = load_text(
            "p(X) :- e(X, Y), f(Y, X). e(a, b). f(b, a). ?- p(X)."
        )
        report = optimize_program(program, database)
        assert not report.changed
        assert report.program is program
        assert report.rules_removed == 0

    def test_traces_use_known_kinds_and_codes(self):
        program, database = load_text(
            "aux(X) :- m(X).\n"
            "p(X, Y) :- aux(X), e(X, Y), e(X, Y), 1 < 2.\n"
            "junk(X) :- e(X, X).\n"
            "m(a). e(a, b).\n"
            "?- p(X, Y).\n"
        )
        report = optimize_program(program, database)
        assert report.changed
        for trace in report.traces:
            assert trace.kind in TRACE_KINDS
            assert trace.code in RULE_METADATA
            assert trace.pass_name in PIPELINE
            assert trace.iteration >= 1

    def test_counts_summary_and_exceeds(self):
        program, database = load_text(
            "p(X) :- e(X, Y), e(X, Y). e(a, b). ?- p(X)."
        )
        report = optimize_program(program, database)
        assert report.literals_removed == 1
        counts = report.counts()
        assert counts["error"] == 0 and counts["warning"] == 0
        assert counts["info"] == len(report.traces) >= 1
        assert not report.exceeds("error")
        assert not report.exceeds("warning")
        assert report.exceeds("info")
        summary = report.summary()
        assert summary["literals_removed"] == 1
        assert summary["iterations"] == report.iterations
        assert summary["optimize_ms"] >= 0

    def test_json_rendering_roundtrips(self):
        program, database = load_text(
            "p(X) :- e(X, Y), e(X, Y). e(a, b). ?- p(X)."
        )
        document = json.loads(
            json.dumps(optimize_program(program, database).to_json())
        )
        assert document["goal"] == "p(X)"
        assert document["changed"] is True
        assert document["counts"]["literals_removed"] == 1
        assert "p(X) :- e(X, Y)." in document["optimized_program"]

    def test_database_free_run_abstains_on_emptiness_passes(self):
        # Without a snapshot the empty-predicate sweep, inlining,
        # slicing and unfolding must all abstain: the result has to be
        # correct for *every* database, including ones where 'ghost'
        # or 'aux' hold facts.
        program, _ = load_text(
            "p(X) :- ghost(X).\n"
            "aux(X) :- m(X).\n"
            "p(X) :- aux(X).\n"
            "?- p(X).\n"
        )
        report = optimize_program(program, database=None)
        assert rule_lines(report.program) == rule_lines(program)


# --- one unit per pass --------------------------------------------------


class TestConstantFolding:
    def run_pass(self, source):
        program, database = load_text(source)
        return optimize_program(
            program, database, passes=["constant-folding"]
        )

    def test_true_builtin_is_deleted(self):
        report = self.run_pass("p(X) :- e(X, Y), 1 < 2. e(a, b). ?- p(X).")
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]

    def test_statically_false_body_deletes_the_rule(self):
        report = self.run_pass("p(X) :- e(X, Y), 2 < 1. e(a, b). ?- p(X).")
        assert list(report.program.rules) == []
        assert report.rules_removed == 1

    def test_ground_arithmetic_binds_the_target(self):
        report = self.run_pass(
            "p(Z) :- e(X, Y), Z is 1 + 2. e(a, b). ?- p(Z)."
        )
        assert rule_lines(report.program) == ["p(3) :- e(X, Y)."]

    def test_reflexive_comparison_folds(self):
        report = self.run_pass("p(X) :- e(X, Y), Y == Y. e(a, b). ?- p(X).")
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]
        report = self.run_pass("p(X) :- e(X, Y), Y != Y. e(a, b). ?- p(X).")
        assert list(report.program.rules) == []


class TestSubsumption:
    def run_pass(self, source):
        program, database = load_text(source)
        return optimize_program(program, database, passes=["subsumption"])

    def test_duplicate_literal_dropped(self):
        report = self.run_pass(
            "p(X) :- e(X, Y), e(X, Y). e(a, b). ?- p(X)."
        )
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]
        assert report.literals_removed == 1

    def test_theta_subsumed_rule_removed(self):
        report = self.run_pass(
            "p(X) :- e(X, Y).\n"
            "p(X) :- e(X, b), f(X).\n"
            "e(a, b). f(a).\n"
            "?- p(X).\n"
        )
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]

    def test_specific_rule_never_subsumes_general(self):
        # A constant in the pattern can't match a variable in the
        # target, so the general rule must survive.
        report = self.run_pass(
            "p(X) :- e(X, b).\n"
            "p(X) :- e(X, Y).\n"
            "e(a, c).\n"
            "?- p(X).\n"
        )
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]

    def test_variant_rules_keep_exactly_one(self):
        report = self.run_pass(
            "p(X) :- e(X, Y).\n"
            "p(A) :- e(A, B).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        assert len(report.program.rules) == 1


class TestChainInlining:
    def run_pass(self, source):
        program, database = load_text(source)
        return optimize_program(
            program, database, passes=["chain-inlining"]
        )

    def test_chain_rule_inlined_through_consumers(self):
        report = self.run_pass(
            "aux(X) :- m(X).\n"
            "p(X, Y) :- aux(X), e(X, Y).\n"
            "m(a). e(a, b).\n"
            "?- p(X, Y).\n"
        )
        assert rule_lines(report.program) == ["p(X, Y) :- m(X), e(X, Y)."]

    def test_aux_with_stored_facts_is_kept(self):
        report = self.run_pass(
            "aux(X) :- m(X).\n"
            "p(X, Y) :- aux(X), e(X, Y).\n"
            "aux(z). m(a). e(a, b).\n"
            "?- p(X, Y).\n"
        )
        assert not report.changed

    def test_multi_rule_aux_is_kept(self):
        report = self.run_pass(
            "aux(X) :- m(X).\n"
            "aux(X) :- n(X).\n"
            "p(X, Y) :- aux(X), e(X, Y).\n"
            "m(a). n(b). e(a, b).\n"
            "?- p(X, Y).\n"
        )
        assert not report.changed

    def test_recursive_chain_is_inlined(self):
        # Single-rule unfolding is sound through recursion (the aux
        # relation equals its body relation stratum by stratum).
        source = (
            "aux(X) :- p(X).\n"
            "p(X) :- seed(X).\n"
            "p(Y) :- aux(X), e(X, Y).\n"
            "seed(a). e(a, b). e(b, c).\n"
            "?- p(X).\n"
        )
        report = self.run_pass(source)
        assert rule_lines(report.program) == [
            "p(X) :- seed(X).",
            "p(Y) :- p(X), e(X, Y).",
        ]
        program, database = load_text(source)
        assert answer_tuples(report.program, database.copy()) == (
            answer_tuples(program, database.copy())
        )


class TestDeadRuleElimination:
    def run_pass(self, source):
        program, database = load_text(source)
        return optimize_program(
            program, database, passes=["dead-rule-elimination"]
        )

    def test_rule_outside_goal_cone_removed(self):
        report = self.run_pass(
            "p(X) :- e(X, Y).\n"
            "junk(X) :- e(X, X).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]

    def test_empty_predicate_cascade(self):
        # ghost is empty, so mid is empty, so the second p rule dies —
        # the sweep has to reach the fixpoint, not just depth one.
        report = self.run_pass(
            "p(X) :- e(X, Y).\n"
            "mid(X) :- ghost(X).\n"
            "p(X) :- mid(X).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]

    def test_negated_empty_literal_is_vacuously_true(self):
        report = self.run_pass(
            "p(X) :- e(X, Y), not ghost(X, Y).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]


class TestArgumentSlicing:
    def run_pass(self, source):
        program, database = load_text(source)
        return optimize_program(
            program, database, passes=["argument-slicing"]
        )

    def test_unread_column_projected_away(self):
        report = self.run_pass(
            "t(X, Y) :- e(X, Y).\n"
            "p(X) :- t(X, Y).\n"
            "e(a, b). e(a, c).\n"
            "?- p(X).\n"
        )
        assert rule_lines(report.program) == [
            "p(X) :- t(X).",
            "t(X) :- e(X, Y).",
        ]
        assert report.arguments_removed == 1

    def test_joined_column_is_read(self):
        report = self.run_pass(
            "t(X, Y) :- e(X, Y).\n"
            "p(X) :- t(X, Y), f(Y).\n"
            "e(a, b). f(b).\n"
            "?- p(X).\n"
        )
        assert not report.changed

    def test_constant_consumer_is_a_read(self):
        report = self.run_pass(
            "t(X, Y) :- e(X, Y).\n"
            "p(X) :- t(X, b).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        assert not report.changed

    def test_negated_occurrence_blocks_slicing(self):
        report = self.run_pass(
            "t(X, Y) :- e(X, Y).\n"
            "p(X) :- f(X), not t(X, Y).\n"
            "e(a, b). f(a). f(c).\n"
            "?- p(X).\n"
        )
        assert not report.changed

    def test_query_predicate_never_sliced(self):
        report = self.run_pass(
            "p(X, Y) :- e(X, Y).\n"
            "e(a, b).\n"
            "?- p(X, Y).\n"
        )
        assert not report.changed


class TestBoundedness:
    def run_pass(self, source):
        program, database = load_text(source)
        return optimize_program(program, database, passes=["boundedness"])

    def test_tautological_rule_removed(self):
        report = self.run_pass(
            "p(X) :- e(X, Y).\n"
            "p(X) :- p(X), e(X, X).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        assert rule_lines(report.program) == ["p(X) :- e(X, Y)."]

    def test_depth_zero_recursion_deleted(self):
        report = self.run_pass(
            "s(5, X) :- seed(X).\n"
            "s(J1, X) :- s(J, X), J1 is J + 1, J1 <= 2.\n"
            "ans(X) :- s(J, X).\n"
            "seed(a).\n"
            "?- ans(X).\n"
        )
        assert report.rules_removed == 1
        assert all(
            "s" not in rule.body_predicates() or True
            for rule in report.program.rules
        )
        assert rule_lines(report.program) == [
            "ans(X) :- s(J, X).",
            "s(5, X) :- seed(X).",
        ]

    def test_bounded_recursion_unfolds_and_preserves_answers(self):
        source = (
            "s(0, X) :- seed(X).\n"
            "s(J1, X) :- s(J, X), J1 is J + 1, J1 <= 2.\n"
            "ans(J, X) :- s(J, X).\n"
            "seed(a).\n"
            "?- ans(J, X).\n"
        )
        report = self.run_pass(source)
        assert report.changed
        optimized = report.program
        assert "s" not in {
            p
            for rule in optimized.rules_for("s")
            for p in rule.body_predicates()
        }
        program, database = load_text(source)
        assert answer_tuples(optimized, database.copy()) == answer_tuples(
            program, database.copy()
        ) == frozenset({(0, "a"), (1, "a"), (2, "a")})

    def test_unbounded_recursion_untouched(self):
        report = self.run_pass(
            "s(0, X) :- seed(X).\n"
            "s(J1, X) :- s(J, X), J1 is J + 1.\n"
            "ans(X) :- s(J, X), J <= 2.\n"
            "seed(a).\n"
            "?- ans(X).\n"
        )
        assert not report.changed

    def test_deep_recursion_left_to_the_fixpoint(self):
        report = self.run_pass(
            "s(0, X) :- seed(X).\n"
            "s(J1, X) :- s(J, X), J1 is J + 1, J1 <= 100.\n"
            "ans(X) :- s(J, X).\n"
            "seed(a).\n"
            "?- ans(X).\n"
        )
        assert not report.changed


# --- the golden corpus --------------------------------------------------


def corpus_cases():
    return sorted(CORPUS.glob("*.before.dl"))


class TestCorpus:
    @pytest.mark.parametrize(
        "before", corpus_cases(), ids=lambda p: p.name.replace(".before.dl", "")
    )
    def test_single_pass_matches_golden(self, before):
        pass_name = before.name.split("__")[0]
        program, database = load_text(before.read_text())
        after_path = before.with_name(
            before.name.replace(".before.dl", ".after.dl")
        )
        golden, _ = load_text(after_path.read_text())
        report = optimize_program(program, database, passes=[pass_name])
        assert rule_lines(report.program) == rule_lines(golden), pass_name
        assert report.changed

    @pytest.mark.parametrize(
        "before", corpus_cases(), ids=lambda p: p.name.replace(".before.dl", "")
    )
    def test_corpus_optimizations_preserve_answers(self, before):
        program, database = load_text(before.read_text())
        report = optimize_program(program, database)
        assert answer_tuples(report.program, database.copy()) == (
            answer_tuples(program, database.copy())
        )

    @pytest.mark.parametrize(
        "before", corpus_cases(), ids=lambda p: p.name.replace(".before.dl", "")
    )
    def test_full_pipeline_is_idempotent_on_corpus(self, before):
        program, database = load_text(before.read_text())
        first = optimize_program(program, database)
        second = optimize_program(first.program, database)
        assert not second.changed
        assert rule_lines(second.program) == rule_lines(first.program)

    def test_corpus_covers_every_pass(self):
        covered = {path.name.split("__")[0] for path in corpus_cases()}
        assert covered == set(PIPELINE)


# --- idempotence on rewrite outputs -------------------------------------


class TestIdempotenceOnRewrites:
    @pytest.mark.parametrize("kind", ["magic", "supplementary", "mc"])
    def test_optimizing_rewrite_output_twice_is_stable(
        self, kind, samegen_query
    ):
        from repro.core.program_rewrite import method_program
        from repro.datalog.magic_rewrite import magic_rewrite
        from repro.datalog.supplementary import supplementary_magic_rewrite

        database = samegen_query.database()
        if kind == "mc":
            program = method_program(samegen_query)
        elif kind == "magic":
            program = magic_rewrite(samegen_query.to_program())
        else:
            program = supplementary_magic_rewrite(samegen_query.to_program())
        first = optimize_program(program, database)
        second = optimize_program(first.program, database)
        assert not second.changed


# --- SARIF --------------------------------------------------------------


class TestSarif:
    def make_report(self):
        program, database = load_text(
            "aux(X) :- m(X).\n"
            "p(X, Y) :- aux(X), e(X, Y), e(X, Y), 1 < 2.\n"
            "junk(X) :- e(X, X).\n"
            "m(a). e(a, b).\n"
            "?- p(X, Y).\n"
        )
        return optimize_program(program, database)

    def test_sarif_validates_against_vendored_schema(self, validate_sarif):
        validate_sarif(self.make_report().to_sarif(artifact_uri="program.dl"))

    def test_structure_and_level_mapping(self):
        document = self.make_report().to_sarif()
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-optimizer"
        # Optimizer traces are applied improvements, not complaints:
        # everything is a note.
        assert {result["level"] for result in run["results"]} == {"note"}
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {result["ruleId"] for result in run["results"]} <= rule_ids
        assert run["properties"]["rulesRemoved"] >= 1

    def test_every_emitted_code_has_rule_metadata(self):
        report = self.make_report()
        for trace in report.traces:
            assert trace.code in RULE_METADATA
