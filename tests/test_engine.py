"""Unit tests for the compiled join-kernel engine (repro.datalog.engine).

The engine's contract has three parts, each pinned here:

* correctness — compiled semi-naive evaluation derives the same model
  as the interpreter on recursion, stratified negation, builtins, and
  unsafe rules (which must fail identically);
* cost parity — the kernels replay the interpreter's one join order and
  charge the same probes with the same per-relation totals, so
  CostCounter snapshots (per-relation keys and delta relations
  included) are equal — pinned per op kind against the interpreter's
  own charges;
* caching — kernels are compiled once per program object and never
  served stale after in-place mutation.
"""

import pytest

from repro.datalog.atom import Atom, Literal, var
from repro.datalog.builtins import arithmetic, comparison
from repro.datalog.columnar_engine import materialize_kernel_columnar
from repro.datalog.database import Database
from repro.datalog.engine import (
    CompiledProgram,
    compile_program,
    compile_rule,
    materialize_conjunction,
)
from repro.datalog.evaluation import evaluate_rule, seminaive_evaluate
from repro.datalog.program import Program
from repro.datalog.relation import CostCounter
from repro.datalog.rule import Rule
from repro.errors import EvaluationError, UnsafeQueryError

X, Y, Z = var("X"), var("Y"), var("Z")
J, J1 = var("J"), var("J1")


def _path_program():
    return Program(
        [
            Rule(Atom("path", (X, Y)), [Literal(Atom("edge", (X, Y)))]),
            Rule(
                Atom("path", (X, Z)),
                [Literal(Atom("edge", (X, Y))), Literal(Atom("path", (Y, Z)))],
            ),
        ]
    )


def _edge_db(edges):
    database = Database(CostCounter())
    database.add_facts("edge", edges)
    return database


EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("d", "e")]


def _run_both(program_factory, database_factory):
    """Evaluate with both engines on fresh inputs; return both databases."""
    interpreted_db = database_factory()
    compiled_db = database_factory()
    seminaive_evaluate(program_factory(), interpreted_db, engine="interpreted")
    seminaive_evaluate(program_factory(), compiled_db, engine="compiled")
    return interpreted_db, compiled_db


class TestCompiledCorrectness:
    def test_transitive_closure_model_and_costs(self):
        interpreted_db, compiled_db = _run_both(
            _path_program, lambda: _edge_db(EDGES)
        )
        assert compiled_db.facts("path") == interpreted_db.facts("path")
        assert (
            compiled_db.counter.snapshot() == interpreted_db.counter.snapshot()
        )

    def test_cyclic_graph_terminates_identically(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        interpreted_db, compiled_db = _run_both(
            _path_program, lambda: _edge_db(edges)
        )
        assert compiled_db.facts("path") == interpreted_db.facts("path")
        assert (
            compiled_db.counter.snapshot() == interpreted_db.counter.snapshot()
        )

    def test_stratified_negation(self):
        def program():
            return Program(
                [
                    Rule(Atom("path", (X, Y)), [Literal(Atom("edge", (X, Y)))]),
                    Rule(
                        Atom("path", (X, Z)),
                        [
                            Literal(Atom("edge", (X, Y))),
                            Literal(Atom("path", (Y, Z))),
                        ],
                    ),
                    Rule(
                        Atom("unreached", (X, Y)),
                        [
                            Literal(Atom("edge", (X, Y))),
                            Literal(Atom("path", (Y, X)), negated=True),
                        ],
                    ),
                ]
            )

        interpreted_db, compiled_db = _run_both(
            program, lambda: _edge_db(EDGES)
        )
        assert compiled_db.facts("unreached") == interpreted_db.facts(
            "unreached"
        )
        assert (
            compiled_db.counter.snapshot() == interpreted_db.counter.snapshot()
        )

    def test_arithmetic_and_comparison_builtins(self):
        def program():
            return Program(
                [
                    Rule(
                        Atom("dist", (X, Y, Z)),
                        [
                            Literal(Atom("edge", (X, Y))),
                            arithmetic(Z, 0, "+", 1),
                        ],
                    ),
                    Rule(
                        Atom("dist", (X, Z, J1)),
                        [
                            Literal(Atom("dist", (X, Y, J))),
                            Literal(Atom("edge", (Y, Z))),
                            comparison("<", J, 4),
                            arithmetic(J1, J, "+", 1),
                        ],
                    ),
                ]
            )

        interpreted_db, compiled_db = _run_both(
            program, lambda: _edge_db(EDGES)
        )
        assert compiled_db.facts("dist") == interpreted_db.facts("dist")
        assert (
            compiled_db.counter.snapshot() == interpreted_db.counter.snapshot()
        )

    def test_repeated_variable_in_literal(self):
        def program():
            return Program(
                [
                    Rule(
                        Atom("loop", (X,)),
                        [Literal(Atom("edge", (X, X)))],
                    )
                ]
            )

        edges = [("a", "a"), ("a", "b"), ("b", "b")]
        interpreted_db, compiled_db = _run_both(
            program, lambda: _edge_db(edges)
        )
        assert compiled_db.facts("loop") == {("a",), ("b",)}
        assert compiled_db.facts("loop") == interpreted_db.facts("loop")
        assert (
            compiled_db.counter.snapshot() == interpreted_db.counter.snapshot()
        )

    def test_constants_in_body_and_head(self):
        def program():
            return Program(
                [
                    Rule(
                        Atom("from_a", (Y, "tag")),
                        [Literal(Atom("edge", ("a", Y)))],
                    )
                ]
            )

        interpreted_db, compiled_db = _run_both(
            program, lambda: _edge_db(EDGES)
        )
        assert compiled_db.facts("from_a") == {("b", "tag"), ("c", "tag")}
        assert compiled_db.facts("from_a") == interpreted_db.facts("from_a")
        assert (
            compiled_db.counter.snapshot() == interpreted_db.counter.snapshot()
        )

    def test_divergent_program_raises_identically(self):
        def program():
            # Counts upward forever on a cyclic graph: both engines must
            # hit the iteration budget with the same error type.
            return Program(
                [
                    Rule(
                        Atom("count", (X, Z)),
                        [Literal(Atom("edge", (X, Y))), arithmetic(Z, 0, "+", 1)],
                    ),
                    Rule(
                        Atom("count", (X, J1)),
                        [
                            Literal(Atom("count", (X, J))),
                            arithmetic(J1, J, "+", 1),
                        ],
                    ),
                ]
            )

        database = _edge_db([("a", "b")])
        with pytest.raises(UnsafeQueryError):
            seminaive_evaluate(
                program(), database, max_iterations=50, engine="compiled"
            )
        with pytest.raises(UnsafeQueryError):
            seminaive_evaluate(
                program(), _edge_db([("a", "b")]),
                max_iterations=50, engine="interpreted",
            )

    def test_unknown_engine_and_plan_rejected(self):
        database = _edge_db(EDGES)
        with pytest.raises(ValueError):
            seminaive_evaluate(_path_program(), database, engine="vectorized")
        # One join order: no entry point takes a plan mode (or a
        # compile-time database to plan against) any more.
        with pytest.raises(TypeError):
            seminaive_evaluate(_path_program(), database, plan="cost")
        with pytest.raises(TypeError):
            CompiledProgram(_path_program(), database=database)
        with pytest.raises(TypeError):
            compile_program(_path_program(), plan="cost")


class TestKernelCache:
    def test_same_program_object_compiles_once(self):
        program = _path_program()
        first = compile_program(program)
        second = compile_program(program)
        assert first is second

    def test_mutated_program_recompiles(self):
        program = _path_program()
        first = compile_program(program)
        program.add_rule(
            Rule(Atom("path", (X, X)), [Literal(Atom("edge", (X, Y)))])
        )
        second = compile_program(program)
        assert first is not second
        assert second.kernel_count > first.kernel_count

    def test_distinct_programs_get_distinct_kernels(self):
        first = compile_program(_path_program())
        second = compile_program(_path_program())
        assert first is not second

    def test_compile_records_timing_and_counts(self):
        compiled = compile_program(_path_program())
        description = compiled.describe()
        assert description["kernels"] == compiled.kernel_count >= 3
        assert description["compile_ms"] >= 0.0


class TestKernelPrimitives:
    def test_compile_rule_runs_standalone(self):
        kernel = compile_rule(
            Rule(
                Atom("hop2", (X, Z)),
                [Literal(Atom("edge", (X, Y))), Literal(Atom("edge", (Y, Z)))],
            )
        )
        database = _edge_db(EDGES)
        rows = kernel.run(database)
        assert set(rows) == {
            ("a", "c"), ("b", "d"), ("c", "e"), ("a", "d")
        }

    def test_unsafe_rule_raises_on_execution(self):
        # A body of one unevaluable comparison mirrors the interpreter:
        # the error fires at run time, not compile time.
        kernel = compile_rule(
            Rule(Atom("bad", (X,)), [comparison("<", X, 3)])
        )
        with pytest.raises(EvaluationError, match="unsafe"):
            kernel.run(_edge_db(EDGES))

    def test_materialize_conjunction_projects_terms(self):
        rows = materialize_conjunction(
            [Literal(Atom("edge", (X, Y))), Literal(Atom("edge", (Y, Z)))],
            (X, Z),
            _edge_db(EDGES),
        )
        assert set(rows) == {("a", "c"), ("b", "d"), ("c", "e"), ("a", "d")}

    def test_materialize_conjunction_unbound_projection_raises(self):
        with pytest.raises(ValueError, match="unbound variable"):
            materialize_conjunction(
                [Literal(Atom("edge", (X, Y)))], (X, Z), _edge_db(EDGES)
            )


def _op_db():
    database = Database(CostCounter())
    database.add_facts("edge", EDGES)
    database.add_facts("mark", [("x",), ("y",)])
    database.add_facts("back", [("a", "b"), ("c", "d")])
    return database


def _edge(source, target):
    return Literal(Atom("edge", (source, target)))


ENGINES = ("interpreted", "compiled", "columnar")


def _run_rule(rule, engine):
    """One evaluation of one rule body on ``engine``, safety unchecked:
    ``(rows, snapshot)``, or ``(exception, snapshot)`` when it raises."""
    database = _op_db()
    try:
        if engine == "interpreted":
            rows = evaluate_rule(rule, database)
        elif engine == "compiled":
            rows = compile_rule(rule).run(database)
        else:
            rows = materialize_kernel_columnar(
                compile_rule(rule), database.to_columnar()
            )
    except Exception as error:  # noqa: BLE001 - compared across engines
        return error, database.counter.snapshot()
    return set(rows), database.counter.snapshot()


class TestPerOpCharges:
    """One hand-written rule per op kind, charges pinned per relation.

    The literals are what the tuple-at-a-time interpreter charges; the
    frontier kernels (set-backed and columnar) must charge the same for
    each op, not merely the same in total over a fixpoint.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_constant_scan_under_a_wide_frontier(self, engine):
        # edge("a", Z) shares no variable with edge(X, Y): each of the
        # 5 rows probes the one key, and pays both of its matches.
        rows, snapshot = _run_rule(
            Rule(Atom("two", (X, Z)), [_edge(X, Y), _edge("a", Z)]), engine
        )
        assert rows == {(x, z) for x in "abcd" for z in "bc"}
        assert snapshot == {
            "retrievals": 21, "probes": 6, "tuples": 15, "relation:edge": 21,
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negcheck_charges_a_probe_per_row_and_the_found_rows(self, engine):
        rows, snapshot = _run_rule(
            Rule(
                Atom("unpaired", (X, Y)),
                [_edge(X, Y), Literal(Atom("back", (X, Y)), negated=True)],
            ),
            engine,
        )
        assert rows == {("a", "c"), ("b", "c"), ("d", "e")}
        assert snapshot == {
            "retrievals": 13, "probes": 6, "tuples": 7,
            "relation:back": 7, "relation:edge": 6,
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_builtin_filters_the_frontier_before_the_next_probe(self, engine):
        rows, snapshot = _run_rule(
            Rule(
                Atom("far", (X, Z)),
                [_edge(X, Y), comparison("!=", Y, "c"), _edge(Y, Z)],
            ),
            engine,
        )
        assert rows == {("a", "c"), ("c", "e")}
        assert snapshot == {
            "retrievals": 11, "probes": 4, "tuples": 7, "relation:edge": 11,
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_constant_head_emits_one_row_per_binding(self, engine):
        rows, snapshot = _run_rule(
            Rule(Atom("seen", ("yes",)), [_edge(X, Y)]), engine
        )
        assert rows == {("yes",)}
        assert snapshot == {
            "retrievals": 6, "probes": 1, "tuples": 5, "relation:edge": 6,
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_join_that_empties_charges_nothing_after_it(self, engine):
        rows, snapshot = _run_rule(
            Rule(
                Atom("none", (X, J)),
                [_edge(X, Y), _edge(Y, "zz"), Literal(Atom("mark", (J,)))],
            ),
            engine,
        )
        assert rows == set()
        # No probe of ``mark``: the frontier was empty before it.
        assert snapshot == {
            "retrievals": 11, "probes": 6, "tuples": 5, "relation:edge": 11,
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unsafe_tail_behind_an_empty_join_does_not_raise(self, engine):
        rows, snapshot = _run_rule(
            Rule(
                Atom("bad", (X,)),
                [_edge(X, Y), _edge(Y, "zz"), comparison("<", J, 3)],
            ),
            engine,
        )
        assert rows == set()
        assert snapshot == {
            "retrievals": 11, "probes": 6, "tuples": 5, "relation:edge": 11,
        }

    @pytest.mark.parametrize(
        "rule, kind, text",
        [
            (
                Rule(Atom("bad", (X,)), [_edge(X, Y), comparison("<", J, 3)]),
                EvaluationError,
                "no evaluable body element; rule is unsafe: J < 3",
            ),
            (
                Rule(Atom("bad", (X, Z)), [_edge(X, Y)]),
                ValueError,
                "unbound variable Z instantiating bad(X, Z)",
            ),
        ],
        ids=["unsafe_tail", "unbound_head"],
    )
    def test_a_reached_dead_end_raises_alike(self, rule, kind, text):
        for engine in ENGINES:
            error, _snapshot = _run_rule(rule, engine)
            assert type(error) is kind, engine
            assert str(error) == text, engine


class TestServicePlanKernels:
    def test_plan_caches_kernels_and_oracle_agrees(self):
        from repro.core.csl import CSLQuery
        from repro.core.solver import seminaive_answer
        from repro.service.plan import compile_query_plan

        query = CSLQuery.same_generation(
            [("b", "a"), ("c", "a"), ("d", "b"), ("e", "b")], "d"
        )
        plan = compile_query_plan(query)
        assert plan.compile_seconds > 0.0
        oracle = seminaive_answer(plan.query_for("d"))
        assert oracle.answers == seminaive_answer(query).answers

    def test_batch_metrics_record_engine(self):
        from repro.core.csl import CSLQuery
        from repro.service.service import SolverService

        query = CSLQuery.same_generation(
            [("b", "a"), ("c", "a"), ("d", "b"), ("e", "b")], "d"
        )
        service = SolverService()
        result = service.solve_batch(query, sources=["d", "e"])
        assert result.metrics["compile_ms"] >= 0.0
        assert result.metrics["backend"] == result.plan.describe()["backend"]
