"""Optimizer wiring through the serving stack.

``compile_program_plan`` runs the optimizer over the source program and
keeps the report only as *verified provenance*: the optimized program
must recompile to bit-identical L/E/R pair sets against a shadow copy
of the database, and execution always proceeds from the unoptimized
program's materialization.  ``SolverService`` threads the results into
``BatchMetrics`` and ``ServiceMetrics``.
"""

from __future__ import annotations

import pytest

from repro.core.solver import seminaive_answer
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.service import SolverService
from repro.service.metrics import BatchMetrics
from repro.service.plan import compile_program_plan


def load(text: str):
    program = parse_program(text)
    database = Database()
    rules = []
    for rule in program.rules:
        if rule.is_fact:
            database.add_atom(rule.head)
        else:
            rules.append(rule)
    return Program(rules, program.query), database


OPTIMIZABLE = """
p(X, Y) :- e(X, Y).
p(X, Y) :- l(X, Z), p(Z, W), r(Y, W).
junk(X) :- e(X, X).
l(a, b). l(b, c). e(c, z2). r(z1, z2). r(z0, z1).
?- p(a, Y).
"""

PLAIN = """
p(X, Y) :- e(X, Y).
p(X, Y) :- l(X, Z), p(Z, W), r(Y, W).
l(a, b). l(b, c). e(c, z2). r(z1, z2). r(z0, z1).
?- p(a, Y).
"""


class TestCompileWiring:
    def test_verified_optimization_attached_to_plan(self):
        program, database = load(OPTIMIZABLE)
        plan = compile_program_plan(program, database)
        assert plan.optimization is not None
        assert plan.optimization.changed
        assert plan.optimization.rules_removed == 1
        assert plan.unoptimized_program is program

    def test_describe_exposes_optimizer_fields(self):
        program, database = load(OPTIMIZABLE)
        description = compile_program_plan(program, database).describe()
        assert description["optimized"] is True
        assert description["optimizer_rules_removed"] == 1
        assert description["optimizer_literals_removed"] == 0

    def test_unchanged_program_describes_as_unoptimized(self):
        program, database = load(PLAIN)
        plan = compile_program_plan(program, database)
        description = plan.describe()
        assert description["optimized"] is False
        assert description["optimizer_rules_removed"] == 0

    def test_optimize_false_skips_the_optimizer(self):
        program, database = load(OPTIMIZABLE)
        plan = compile_program_plan(program, database, optimize=False)
        assert plan.optimization is None
        assert plan.describe()["optimized"] is False

    def test_optimized_and_unoptimized_plans_answer_identically(self):
        program, database = load(OPTIMIZABLE)
        on = compile_program_plan(program, database)
        off = compile_program_plan(program, database, optimize=False)
        assert (
            seminaive_answer(on.query_for("a")).answers
            == seminaive_answer(off.query_for("a")).answers
        )


class TestServiceWiring:
    def test_service_metrics_count_optimized_compiles(self):
        program, database = load(OPTIMIZABLE)
        service = SolverService(database)
        service.solve_batch(program, None)
        snapshot = service.metrics.snapshot()
        assert snapshot["optimized_compiles"] == 1
        assert snapshot["optimizer_rules_removed"] == 1
        assert snapshot["optimizer_literals_removed"] == 0

    def test_cache_hit_does_not_double_count(self):
        program, database = load(OPTIMIZABLE)
        service = SolverService(database)
        service.solve_batch(program, None)
        service.solve_batch(program, None)
        assert service.metrics.snapshot()["optimized_compiles"] == 1

    def test_batch_metrics_carry_the_optimization_summary(self):
        program, database = load(OPTIMIZABLE)
        service = SolverService(database)
        result = service.solve_batch(program, None)
        assert result.metrics["rules_removed"] == 1
        assert result.metrics["literals_removed"] == 0
        assert result.metrics["optimize_ms"] >= 0

    def test_unoptimized_service_reports_no_optimizer_keys(self):
        program, database = load(OPTIMIZABLE)
        service = SolverService(database, optimize=False)
        result = service.solve_batch(program, None)
        assert "rules_removed" not in result.metrics
        snapshot = service.metrics.snapshot()
        assert snapshot["optimized_compiles"] == 0

    def test_unchanged_program_emits_no_batch_keys(self):
        program, database = load(PLAIN)
        service = SolverService(database)
        result = service.solve_batch(program, None)
        assert "rules_removed" not in result.metrics

    def test_answers_identical_with_and_without_optimizer(self):
        program, database = load(OPTIMIZABLE)
        on = SolverService(database)
        off = SolverService(database, optimize=False)
        assert (
            on.solve_batch(program, ["a", "b"]).answers
            == off.solve_batch(program, ["a", "b"]).answers
        )


class TestBatchMetricsUnit:
    def test_record_optimization_copies_and_surfaces_keys(self):
        from repro.core.cost import CostCounter

        metrics = BatchMetrics(CostCounter())
        summary = {
            "rules_removed": 3,
            "literals_removed": 2,
            "optimize_ms": 1.5,
        }
        metrics.record_optimization(summary)
        summary["rules_removed"] = 99
        rendered = metrics.summary()
        assert rendered["rules_removed"] == 3
        assert rendered["literals_removed"] == 2
        assert rendered["optimize_ms"] == 1.5

    def test_without_record_no_optimizer_keys(self):
        from repro.core.cost import CostCounter

        rendered = BatchMetrics(CostCounter()).summary()
        assert "rules_removed" not in rendered
        assert "optimize_ms" not in rendered


class TestVerificationGate:
    def test_rejected_optimization_leaves_plan_unoptimized(self, monkeypatch):
        # Force the optimizer to emit a semantically different program;
        # the pair-set cross-check must discard it and compile the plan
        # exactly as if optimize=False.
        import repro.service.plan as plan_module

        program, database = load(OPTIMIZABLE)

        class BogusReport:
            changed = True
            rules_removed = 1
            literals_removed = 0

            def __init__(self, original):
                # Drop the exit rule: recompilation yields different
                # pair sets (or fails), so verification must reject.
                self.program = Program(
                    [r for r in original.rules if not r.body_predicates()
                     or "p" in r.body_predicates()],
                    original.query,
                )

        import repro.analysis.rewrite as rewrite_module

        monkeypatch.setattr(
            rewrite_module,
            "optimize_program",
            lambda prog, db=None, **kw: BogusReport(prog),
        )
        plan = plan_module.compile_program_plan(program, database)
        assert plan.optimization is None
        assert seminaive_answer(plan.query_for("a")).answers
