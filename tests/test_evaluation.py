"""Tests for naive and semi-naive bottom-up evaluation."""

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import answer_tuples, naive_evaluate, seminaive_evaluate
from repro.datalog.parser import parse_program
from repro.errors import EvaluationError, SafetyError, UnsafeQueryError


def db_with(**relations):
    db = Database()
    for name, tuples in relations.items():
        db.add_facts(name, tuples)
    return db


def run_both(source, db):
    """Evaluate with both engines on fresh copies; assert they agree on
    every IDB relation; return the naive database."""
    program = parse_program(source)
    naive_db = db.copy()
    semi_db = db.copy()
    naive_evaluate(program, naive_db)
    seminaive_evaluate(program, semi_db)
    for predicate in program.idb_predicates():
        assert naive_db.facts(predicate) == semi_db.facts(predicate), predicate
    return naive_db


EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")]


class TestNonRecursive:
    def test_projection_and_join(self):
        db = run_both(
            "two(X, Z) :- e(X, Y), e(Y, Z).",
            db_with(e=EDGES),
        )
        assert db.facts("two") == {("a", "c"), ("a", "e"), ("b", "d")}

    def test_constant_selection(self):
        db = run_both("from_b(Y) :- e(b, Y).", db_with(e=EDGES))
        assert db.facts("from_b") == {("c",), ("e",)}

    def test_missing_edb_is_empty(self):
        db = run_both("p(X) :- ghost(X).", db_with(e=EDGES))
        assert db.facts("p") == set()

    def test_cartesian_free_rule(self):
        db = run_both("pair(X, Y) :- u(X), v(Y).", db_with(u=[(1,), (2,)], v=[(9,)]))
        assert db.facts("pair") == {(1, 9), (2, 9)}

    def test_idb_facts_as_rules(self):
        db = run_both("p(a). p(b). q(X) :- p(X).", db_with())
        assert db.facts("q") == {("a",), ("b",)}


class TestRecursive:
    def test_transitive_closure(self):
        db = run_both(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).",
            db_with(e=EDGES),
        )
        assert db.facts("t") == {
            ("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"),
            ("b", "c"), ("b", "d"), ("b", "e"), ("c", "d"),
        }

    def test_closure_on_cycle_terminates(self):
        db = run_both(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).",
            db_with(e=[("a", "b"), ("b", "a")]),
        )
        assert db.facts("t") == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_nonlinear_rule(self):
        db = run_both(
            "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).",
            db_with(e=EDGES),
        )
        assert ("a", "d") in db.facts("t")

    def test_mutual_recursion(self):
        db = run_both(
            """
            even(z).
            odd(Y) :- succ(X, Y), even(X).
            even(Y) :- succ(X, Y), odd(X).
            """,
            db_with(succ=[("z", "one"), ("one", "two"), ("two", "three")]),
        )
        assert db.facts("even") == {("z",), ("two",)}
        assert db.facts("odd") == {("one",), ("three",)}

    def test_same_generation(self):
        db = run_both(
            """
            sg(X, Y) :- person(X), person(Y), X == Y.
            sg(X, Y) :- par(X, X1), sg(X1, Y1), par(Y, Y1).
            """,
            db_with(
                par=[("c1", "p"), ("c2", "p"), ("g1", "c1"), ("g2", "c2")],
                person=[(x,) for x in ("p", "c1", "c2", "g1", "g2")],
            ),
        )
        assert ("g1", "g2") in db.facts("sg")
        assert ("c1", "c2") in db.facts("sg")
        assert ("g1", "c2") not in db.facts("sg")


class TestNegationAndBuiltins:
    def test_stratified_negation(self):
        db = run_both(
            """
            reach(Y) :- e(a, Y).
            reach(Y) :- reach(X), e(X, Y).
            node(X) :- e(X, Y).
            node(Y) :- e(X, Y).
            unreachable(X) :- node(X), not reach(X).
            """,
            db_with(e=EDGES + [("z1", "z2")]),
        )
        assert db.facts("unreachable") == {("a",), ("z1",), ("z2",)}

    def test_comparison_filter(self):
        db = run_both("small(X) :- n(X), X < 3.", db_with(n=[(1,), (2,), (5,)]))
        assert db.facts("small") == {(1,), (2,)}

    def test_arithmetic_chain(self):
        db = run_both(
            "count(0, a). count(J1, Y) :- count(J, X), e(X, Y), J1 is J + 1.",
            db_with(e=EDGES),
        )
        assert (2, "c") in db.facts("count")
        assert (3, "d") in db.facts("count")

    def test_bounded_arithmetic_recursion(self):
        db = run_both(
            "n(0). n(J1) :- n(J), J < 5, J1 is J + 1.",
            db_with(),
        )
        assert db.facts("n") == {(j,) for j in range(6)}


class TestSafetyAndDivergence:
    def test_unsafe_program_rejected(self):
        program = parse_program("p(X, Y) :- q(X).")
        with pytest.raises(SafetyError):
            naive_evaluate(program, Database())

    def test_divergent_counting_raises(self):
        program = parse_program(
            "c(0, a). c(J1, Y) :- c(J, X), e(X, Y), J1 is J + 1."
        )
        db = db_with(e=[("a", "b"), ("b", "a")])
        with pytest.raises(UnsafeQueryError):
            seminaive_evaluate(program, db, max_iterations=200)

    def test_divergent_naive_raises(self):
        program = parse_program(
            "c(0, a). c(J1, Y) :- c(J, X), e(X, Y), J1 is J + 1."
        )
        db = db_with(e=[("a", "a")])
        with pytest.raises(UnsafeQueryError):
            naive_evaluate(program, db, max_iterations=200)


class TestAnswerTuples:
    def test_projection_of_goal_variables(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y). ?- t(a, Y)."
        )
        answers = answer_tuples(program, db_with(e=EDGES))
        assert answers == {("b",), ("c",), ("d",), ("e",)}

    def test_ground_goal(self):
        program = parse_program("p(a). ?- p(a).")
        assert answer_tuples(program, Database()) == {()}

    def test_ground_goal_false(self):
        program = parse_program("p(a). ?- p(b).")
        assert answer_tuples(program, Database()) == set()

    def test_no_goal_raises(self):
        program = parse_program("p(a).")
        with pytest.raises(EvaluationError):
            answer_tuples(program, Database())

    def test_unknown_engine_rejected(self):
        program = parse_program("p(a). ?- p(X).")
        with pytest.raises(ValueError):
            answer_tuples(program, Database(), engine="quantum")

    def test_naive_engine_selectable(self):
        program = parse_program("p(a). ?- p(X).")
        assert answer_tuples(program, Database(), engine="naive") == {("a",)}


class TestSeminaiveSpecifics:
    def test_seminaive_cheaper_than_naive_on_chain(self):
        source = "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y)."
        chain = [(i, i + 1) for i in range(25)]
        program = parse_program(source)
        naive_db = db_with(e=chain)
        semi_db = db_with(e=chain)
        naive_evaluate(program, naive_db)
        seminaive_evaluate(program, semi_db)
        assert semi_db.total_cost() < naive_db.total_cost()

    def test_two_recursive_occurrences(self):
        # Both occurrences must be differentiated or derivations are lost.
        db = run_both(
            "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).",
            db_with(e=[(i, i + 1) for i in range(8)]),
        )
        assert (0, 8) in db.facts("t")


class TestOneJoinOrderAcrossEngines:
    """The three semi-naive engines share one scheduler, one delta
    differentiation and (interpreted/compiled) one delta-round loop, so
    models *and* CostCounter snapshots agree key for key — the ``Δp``
    entries included: the delta is read at the differentiated
    occurrence only, every other occurrence reads the full relation."""

    CHAIN = [(i, i + 1) for i in range(8)]
    ENGINES = ("interpreted", "compiled", "columnar")

    def _run(self, source):
        program = parse_program(source)
        databases = {}
        for engine in self.ENGINES:
            databases[engine] = db_with(e=self.CHAIN)
            seminaive_evaluate(program, databases[engine], engine=engine)
        reference = databases["interpreted"]
        snapshot = reference.counter.snapshot()
        for engine in self.ENGINES[1:]:
            assert databases[engine].facts("p") == reference.facts("p"), engine
            assert databases[engine].counter.snapshot() == snapshot, engine
        naive_db = db_with(e=self.CHAIN)
        naive_evaluate(program, naive_db)
        assert reference.facts("p") == naive_db.facts("p")
        return reference.facts("p"), snapshot

    def test_nonlinear_rule(self):
        facts, snapshot = self._run(
            "p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), p(Y, Z)."
        )
        assert len(facts) == 36
        # Round 0 runs both rules (path lengths 1-2), then lengths
        # double per round (3-4 | 5-8): 3 deltas, each scanned whole
        # once per differentiated occurrence — two variants, so
        # 2 * (3 probes + 36 tuples) — and never probed by key, which a
        # delta served to the sibling occurrence would do.
        assert snapshot["relation:Δp"] == 2 * (3 + 36)
        assert snapshot["relation:p"] > 0

    def test_ground_builtin_ahead_of_recursive_literal(self):
        # The scheduler runs the ready builtin first; the delta still
        # binds to the recursive literal, not to whatever runs first.
        facts, snapshot = self._run(
            "p(X, Y) :- e(X, Y). p(X, Z) :- 1 < 2, p(X, Y), e(Y, Z)."
        )
        assert len(facts) == 36
        # One variant; after round 0 (lengths 1-2) the path length
        # grows by one per round up to 8: 7 deltas.
        assert snapshot["relation:Δp"] == 7 + 36
