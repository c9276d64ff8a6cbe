"""Tests for insertion-only incremental view maintenance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atom import Literal
from repro.datalog.database import Database
from repro.datalog.evaluation import seminaive_evaluate
from repro.datalog.maintenance import MaintenanceState, insert_and_maintain
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.rule import Rule
from repro.errors import EvaluationError, UnsafeQueryError

from .test_engine_fuzz import (
    _CONSTANTS,
    _EDB,
    build_db,
    random_databases,
    random_programs,
)


def snapshot(db):
    return {name: set(db.facts(name)) for name in db.names()}

TC = parse_program("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).")
LEFT_TC = parse_program("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), e(Z, Y).")


def evaluated_db(facts):
    db = Database()
    db.add_facts("e", facts)
    seminaive_evaluate(TC, db)
    return db


class TestBasics:
    def test_single_insertion_extends_closure(self):
        db = evaluated_db([("a", "b"), ("c", "d")])
        derived = insert_and_maintain(TC, db, {"e": [("b", "c")]})
        assert ("a", "d") in db.facts("t")
        assert derived["t"] >= {("b", "c"), ("a", "c"), ("b", "d"), ("a", "d")}

    def test_matches_from_scratch(self):
        base = [("a", "b"), ("b", "c")]
        extra = [("c", "d"), ("d", "a")]
        incremental = evaluated_db(base)
        insert_and_maintain(TC, incremental, {"e": extra})
        scratch = evaluated_db(base + extra)
        assert incremental.facts("t") == scratch.facts("t")

    def test_duplicate_insertion_is_noop(self):
        db = evaluated_db([("a", "b")])
        derived = insert_and_maintain(TC, db, {"e": [("a", "b")]})
        assert derived == {}

    def test_empty_insertion(self):
        db = evaluated_db([("a", "b")])
        assert insert_and_maintain(TC, db, {"e": []}) == {}
        assert insert_and_maintain(TC, db, {}) == {}

    def test_new_relation_created(self):
        program = parse_program("p(X) :- brand_new(X).")
        db = Database()
        seminaive_evaluate(program, db)
        derived = insert_and_maintain(program, db, {"brand_new": [(1,)]})
        assert derived["p"] == {(1,)}

    def test_cycle_insertion_terminates(self):
        db = evaluated_db([("a", "b"), ("b", "c")])
        insert_and_maintain(TC, db, {"e": [("c", "a")]})
        assert ("a", "a") in db.facts("t")
        assert ("c", "b") in db.facts("t")

    def test_returns_only_new_idb_facts(self):
        db = evaluated_db([("a", "b"), ("b", "c")])
        before = set(db.facts("t"))
        derived = insert_and_maintain(TC, db, {"e": [("c", "d")]})
        assert not (derived["t"] & before)


class TestRestrictions:
    def test_negation_in_affected_stratum_rejected(self):
        program = parse_program(
            "p(X) :- node(X), not bad(X)."
        )
        db = Database()
        db.add_facts("node", [("a",)])
        db.add_facts("bad", [("z",)])
        seminaive_evaluate(program, db)
        with pytest.raises(EvaluationError):
            insert_and_maintain(program, db, {"node": [("b",)]})

    def test_negation_in_unaffected_stratum_allowed(self):
        program = parse_program(
            """
            good(X) :- node(X), not bad(X).
            t(X, Y) :- e(X, Y).
            t(X, Y) :- e(X, Z), t(Z, Y).
            """
        )
        db = Database()
        db.add_facts("node", [("a",)])
        db.add_facts("bad", [("z",)])
        db.add_facts("e", [("a", "b")])
        seminaive_evaluate(program, db)
        derived = insert_and_maintain(program, db, {"e": [("b", "c")]})
        assert ("a", "c") in db.facts("t")
        assert "good" not in derived


class TestValidationAndRollback:
    def test_idb_insert_rejected(self):
        db = evaluated_db([("a", "b")])
        before = snapshot(db)
        with pytest.raises(EvaluationError, match="IDB predicate"):
            insert_and_maintain(TC, db, {"t": [("x", "y")]})
        assert snapshot(db) == before

    def test_mixed_arity_batch_rejected(self):
        db = evaluated_db([("a", "b")])
        before = snapshot(db)
        with pytest.raises(EvaluationError, match="arity"):
            insert_and_maintain(TC, db, {"e": [("x", "y"), ("z",)]})
        assert snapshot(db) == before

    def test_arity_checked_against_program(self):
        db = evaluated_db([("a", "b")])
        with pytest.raises(EvaluationError, match="arity"):
            insert_and_maintain(TC, db, {"e": [("x", "y", "z")]})

    def test_arity_checked_against_existing_relation(self):
        program = parse_program("p(X) :- q(X).")
        db = Database()
        db.add_facts("extra", [(1, 2)])
        db.add_facts("q", [(1,)])
        seminaive_evaluate(program, db)
        # ``extra`` is not mentioned by the program; its stored arity
        # still constrains new tuples.
        with pytest.raises(EvaluationError, match="arity"):
            insert_and_maintain(program, db, {"extra": [(3,)]})

    def test_nothing_stored_when_validation_fails_late(self):
        # The first predicate in the batch is fine, the second is bad:
        # validation must reject the whole batch before storing anything.
        db = evaluated_db([("a", "b")])
        before = snapshot(db)
        with pytest.raises(EvaluationError):
            insert_and_maintain(
                TC, db, {"fresh": [(1,)], "t": [("x", "y")]}
            )
        assert snapshot(db) == before
        assert not db.has_relation("fresh") or not db.facts("fresh")

    def test_failure_mid_propagation_restores_state(self):
        db = evaluated_db([("a", "b"), ("b", "c")])
        before = snapshot(db)
        with pytest.raises(UnsafeQueryError):
            insert_and_maintain(
                TC, db, {"e": [("c", "d")]}, max_iterations=0
            )
        # Both the seed insert and any partial derivations are rolled
        # back: the database equals its pre-call state.
        assert snapshot(db) == before


    def test_failed_bulk_flush_restores_state(self):
        # One head predicate at two arities: the round's bucket mixes
        # them, the bulk flush refuses it, and nothing — not the seeds,
        # not the part of the bucket that fitted — may stay behind.
        program = parse_program("p(X) :- e(X, Y). p(X, Y) :- e(X, Y), q(X).")
        db = Database()
        db.add_facts("e", [("a", "b")])
        db.create("q", 1)
        seminaive_evaluate(program, db)
        before = snapshot(db)
        with pytest.raises(ValueError, match="arity"):
            insert_and_maintain(
                program, db, {"e": [("c", "d")], "q": [("c",)]}
            )
        assert snapshot(db) == before


class TestIncrementalCheaperThanRescratch:
    def test_cost_advantage_on_long_chain(self):
        base = [(i, i + 1) for i in range(120)]
        db = evaluated_db(base)
        db.reset_cost()
        insert_and_maintain(TC, db, {"e": [(120, 121)]})
        incremental_cost = db.total_cost()

        scratch = Database()
        scratch.add_facts("e", base + [(120, 121)])
        seminaive_evaluate(TC, scratch)
        assert incremental_cost < scratch.total_cost()

    def test_persistent_state_matches_stateless_insertion(self):
        """Why both modules exist: a *persistent* ``MaintenanceState``
        inserts as cheaply as the stateless ``insert_and_maintain`` (and
        also handles deletion and negation), but building that state
        costs about a from-scratch evaluation — so the one-shot
        insertion stays stateless."""
        base = [(i, i + 1) for i in range(120)]
        db = evaluated_db(base)
        db.reset_cost()
        insert_and_maintain(TC, db, {"e": [(120, 121)]})
        stateless_cost = db.total_cost()

        db = evaluated_db(base)
        state = MaintenanceState(TC, db)
        db.reset_cost()
        report = state.insert({"e": [(120, 121)]})
        persistent_cost = db.total_cost()
        assert report.summary()["retrievals"] == persistent_cost

        scratch = Database()
        scratch.add_facts("e", base + [(120, 121)])
        seminaive_evaluate(TC, scratch)
        assert persistent_cost <= stateless_cost * 1.05
        assert stateless_cost < scratch.total_cost()
        assert persistent_cost < scratch.total_cost()


class TestAgainstScratchProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")),
                max_size=8),
        st.sets(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")),
                max_size=4),
    )
    def test_equivalent_to_recomputation(self, base, extra):
        incremental = evaluated_db(sorted(base))
        insert_and_maintain(TC, incremental, {"e": sorted(extra)})
        scratch = evaluated_db(sorted(base | extra))
        assert incremental.facts("t") == scratch.facts("t")
        assert incremental.facts("e") == scratch.facts("e")


def one_recursive_stratum(program):
    """``program`` without its negated literals, with ``p`` and ``q``
    made mutually recursive: one recursive stratum, which both
    maintenance entry points propagate through the same delta loop."""
    rules = [
        Rule(
            rule.head,
            [e for e in rule.body if not (isinstance(e, Literal) and e.negated)],
        )
        for rule in program.rules
    ]
    bridge = parse_program("p(X, Y) :- q(X, Y). q(X, Y) :- p(X, Y).")
    return Program(rules + bridge.rules)


class TestPersistentChargesLikeStateless:
    """On a recursive stratum, ``MaintenanceState.insert`` and
    ``insert_and_maintain`` run the evaluator's one delta loop over the
    same rule variants: same facts, same ``CostCounter.snapshot()``."""

    @staticmethod
    def assert_same_insert(program, stateless, stateful, delta):
        seminaive_evaluate(program, stateless)
        seminaive_evaluate(program, stateful)
        state = MaintenanceState(program, stateful)
        stateless.reset_cost()
        stateful.reset_cost()
        insert_and_maintain(program, stateless, delta)
        state.insert(delta)
        assert snapshot(stateful) == snapshot(stateless)
        assert stateful.counter.snapshot() == stateless.counter.snapshot()

    @pytest.mark.parametrize("program", [TC, LEFT_TC], ids=["right", "left"])
    def test_transitive_closure_chain(self, program):
        base = [(i, i + 1) for i in range(120)]
        databases = []
        for _ in range(2):
            db = Database()
            db.add_facts("e", base)
            databases.append(db)
        self.assert_same_insert(program, *databases, {"e": [(120, 121)]})

    @settings(max_examples=80, deadline=None)
    @given(
        random_programs(),
        random_databases(),
        st.sampled_from(_EDB),
        st.sets(
            st.tuples(st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_random_recursive_programs(self, program, spec, name, extra):
        self.assert_same_insert(
            one_recursive_stratum(program),
            build_db(spec),
            build_db(spec),
            {name: sorted(extra)},
        )
