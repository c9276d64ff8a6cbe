"""Unit tests for deletion-capable maintenance (counting + DRed).

:class:`repro.datalog.maintenance.MaintenanceState` keeps the IDB of an
evaluated database exact under EDB insertions *and* deletions: exact
derivation counts in non-recursive strata, delete-and-rederive in
recursive ones.  These tests pin down the per-regime behavior — count
arithmetic, negation polarity, over-deletion/re-derivation — plus the
fragment boundaries (seeded IDB, direct IDB mutation) and the rollback
guarantee on mid-update failure.
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.evaluation import seminaive_evaluate
from repro.datalog.maintenance import (
    MaintenanceState,
    delete_and_maintain,
)
from repro.datalog.parser import parse_program
from repro.errors import EvaluationError, MaintenanceError, UnsafeQueryError

JOIN = parse_program("p(X, Y) :- a(X, Z), b(Z, Y).")
NEG = parse_program("good(X) :- node(X), not bad(X).")
TC = parse_program("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y).")
LAYERED = parse_program(
    """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    far(X, Y) :- t(X, Y), not e(X, Y).
    """
)


def fixpoint_db(facts, program):
    db = Database()
    for name, tuples in facts.items():
        db.add_facts(name, tuples)
    seminaive_evaluate(program, db)
    return db


def idb_facts(db, program):
    return {
        p: (set(db.facts(p)) if db.has_relation(p) else set())
        for p in program.idb_predicates()
    }


def scratch_idb(facts, program):
    return idb_facts(fixpoint_db(facts, program), program)


def snapshot(db):
    return {name: set(db.facts(name)) for name in db.names()}


class TestCounting:
    def test_insert_derives_join_fact(self):
        db = fixpoint_db({"a": [("x", "z")]}, JOIN)
        state = MaintenanceState(JOIN, db)
        report = state.apply(inserts={"b": [("z", "y")]})
        assert db.facts("p") == {("x", "y")}
        assert report.added["p"] == {("x", "y")}
        assert report.changed

    def test_delete_retracts_join_fact(self):
        db = fixpoint_db({"a": [("x", "z")], "b": [("z", "y")]}, JOIN)
        state = MaintenanceState(JOIN, db)
        report = state.apply(deletes={"a": [("x", "z")]})
        assert db.facts("p") == frozenset()
        assert report.removed["p"] == {("x", "y")}

    def test_fact_with_two_derivations_survives_losing_one(self):
        facts = {
            "a": [("x", "z1"), ("x", "z2")],
            "b": [("z1", "y"), ("z2", "y")],
        }
        db = fixpoint_db(facts, JOIN)
        state = MaintenanceState(JOIN, db)

        report = state.apply(deletes={"a": [("x", "z1")]})
        # One derivation of p(x, y) died but the other supports it.
        assert ("x", "y") in db.facts("p")
        assert "p" not in report.removed

        report = state.apply(deletes={"a": [("x", "z2")]})
        assert db.facts("p") == frozenset()
        assert report.removed["p"] == {("x", "y")}

    def test_mixed_insert_delete_in_one_update(self):
        facts = {"a": [("x", "z")], "b": [("z", "y")]}
        db = fixpoint_db(facts, JOIN)
        state = MaintenanceState(JOIN, db)
        state.apply(
            inserts={"a": [("w", "z")]}, deletes={"a": [("x", "z")]}
        )
        expected = scratch_idb(
            {"a": [("w", "z")], "b": [("z", "y")]}, JOIN
        )
        assert idb_facts(db, JOIN) == expected

    def test_noop_update_reports_unchanged(self):
        db = fixpoint_db({"a": [("x", "z")]}, JOIN)
        state = MaintenanceState(JOIN, db)
        report = state.apply(
            inserts={"a": [("x", "z")]},  # duplicate
            deletes={"b": [("nope", "nope")]},  # absent
        )
        assert not report.changed
        assert report.facts_touched == 0

    def test_summary_keys(self):
        db = fixpoint_db({"a": [("x", "z")]}, JOIN)
        state = MaintenanceState(JOIN, db)
        summary = state.apply(inserts={"b": [("z", "y")]}).summary()
        assert set(summary) == {
            "facts_touched", "overdeleted", "rederived", "rounds",
            "retrievals",
        }
        assert summary["facts_touched"] == 2  # b(z,y) and p(x,y)
        assert summary["retrievals"] > 0


class TestNegationPolarity:
    def test_inserting_blocker_retracts(self):
        db = fixpoint_db({"node": [("n",)], "bad": []}, NEG)
        state = MaintenanceState(NEG, db)
        assert db.facts("good") == {("n",)}
        report = state.apply(inserts={"bad": [("n",)]})
        assert db.facts("good") == frozenset()
        assert report.removed["good"] == {("n",)}

    def test_deleting_blocker_derives(self):
        db = fixpoint_db({"node": [("n",)], "bad": [("n",)]}, NEG)
        state = MaintenanceState(NEG, db)
        assert db.facts("good") == frozenset()
        report = state.apply(deletes={"bad": [("n",)]})
        assert db.facts("good") == {("n",)}
        assert report.added["good"] == {("n",)}


class TestDRed:
    def test_edge_deletion_prunes_closure(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        db = fixpoint_db({"e": edges}, TC)
        state = MaintenanceState(TC, db)
        report = state.apply(deletes={"e": [("b", "c")]})
        assert idb_facts(db, TC) == scratch_idb(
            {"e": [("a", "b"), ("c", "d")]}, TC
        )
        # t(b,c), t(b,d), t(a,c), t(a,d) all lose their only support.
        assert report.overdeleted == 4
        assert report.rederived == 0

    def test_alternative_path_is_rederived(self):
        # Diamond a→b→d and a→c→d: deleting a→b keeps t(a, d) alive.
        edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
        db = fixpoint_db({"e": edges}, TC)
        state = MaintenanceState(TC, db)
        report = state.apply(deletes={"e": [("a", "b")]})
        assert ("a", "d") in db.facts("t")
        assert ("a", "b") not in db.facts("t")
        assert report.rederived >= 1
        assert idb_facts(db, TC) == scratch_idb(
            {"e": edges[1:]}, TC
        )

    def test_insert_into_recursive_stratum(self):
        db = fixpoint_db({"e": [("a", "b"), ("c", "d")]}, TC)
        state = MaintenanceState(TC, db)
        state.apply(inserts={"e": [("b", "c")]})
        assert idb_facts(db, TC) == scratch_idb(
            {"e": [("a", "b"), ("b", "c"), ("c", "d")]}, TC
        )

    def test_cycle_deletion(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        db = fixpoint_db({"e": edges}, TC)
        state = MaintenanceState(TC, db)
        state.apply(deletes={"e": [("c", "a")]})
        assert idb_facts(db, TC) == scratch_idb({"e": edges[:2]}, TC)

    def test_stratified_layers_maintained_together(self):
        edges = [("a", "b"), ("b", "c")]
        db = fixpoint_db({"e": edges}, LAYERED)
        state = MaintenanceState(LAYERED, db)
        assert db.facts("far") == {("a", "c")}

        state.apply(inserts={"e": [("c", "d")]})
        assert idb_facts(db, LAYERED) == scratch_idb(
            {"e": edges + [("c", "d")]}, LAYERED
        )

        state.apply(deletes={"e": [("b", "c")]})
        assert idb_facts(db, LAYERED) == scratch_idb(
            {"e": [("a", "b"), ("c", "d")]}, LAYERED
        )


class TestFragmentBoundaries:
    def test_seeded_idb_rejected_at_construction(self):
        db = fixpoint_db({"e": [("a", "b")]}, TC)
        db.relation("t").add(("ghost", "ghost"))
        with pytest.raises(MaintenanceError, match="seeded"):
            MaintenanceState(TC, db)

    def test_direct_idb_mutation_rejected(self):
        db = fixpoint_db({"e": [("a", "b")]}, TC)
        state = MaintenanceState(TC, db)
        before = snapshot(db)
        with pytest.raises(EvaluationError, match="IDB predicate"):
            state.apply(inserts={"t": [("x", "y")]})
        with pytest.raises(EvaluationError, match="IDB predicate"):
            state.apply(deletes={"t": [("a", "b")]})
        assert snapshot(db) == before

    def test_arity_mismatch_rejected(self):
        db = fixpoint_db({"e": [("a", "b")]}, TC)
        state = MaintenanceState(TC, db)
        with pytest.raises(EvaluationError, match="arity"):
            state.apply(inserts={"e": [("a", "b", "c")]})

    def test_construction_materializes_missing_idb(self):
        # An un-evaluated database is simply materialized, not rejected.
        db = Database()
        db.add_facts("e", [("a", "b"), ("b", "c")])
        MaintenanceState(TC, db)
        assert idb_facts(db, TC) == scratch_idb(
            {"e": [("a", "b"), ("b", "c")]}, TC
        )


class TestRollback:
    def test_failed_update_restores_database_and_counts(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        db = fixpoint_db({"e": edges}, TC)
        state = MaintenanceState(TC, db)
        before = snapshot(db)

        state.max_iterations = 0  # force the over-deletion loop to trip
        with pytest.raises(UnsafeQueryError):
            state.apply(deletes={"e": [("a", "b")]})
        assert snapshot(db) == before

        # The state survived the rollback: the same update now succeeds
        # and lands on the from-scratch model.
        state.max_iterations = 100
        state.apply(deletes={"e": [("a", "b")]})
        assert idb_facts(db, TC) == scratch_idb({"e": edges[1:]}, TC)

    def test_failed_counting_update_restores_counts(self):
        db = fixpoint_db({"a": [("x", "z")], "b": [("z", "y")]}, JOIN)
        state = MaintenanceState(JOIN, db)
        before = snapshot(db)
        counts_before = {p: dict(c) for p, c in state.counts.items()}

        state.counts["p"][("x", "y")] = 0  # corrupt: next delete goes negative
        with pytest.raises(MaintenanceError, match="negative"):
            state.apply(deletes={"a": [("x", "z")]})
        assert snapshot(db) == before

        state.counts["p"][("x", "y")] = 1  # heal and retry
        state.apply(deletes={"a": [("x", "z")]})
        assert db.facts("p") == frozenset()
        del counts_before  # the corrupted entry made the old dict moot


class TestOneShots:
    def test_insert_and_maintain_handles_negation(self):
        db = fixpoint_db({"node": [("n",), ("m",)], "bad": []}, NEG)
        report = MaintenanceState(NEG, db).insert({"bad": [("n",)]})
        assert db.facts("good") == {("m",)}
        assert report.removed["good"] == {("n",)}

    def test_delete_and_maintain_on_closure(self):
        edges = [("a", "b"), ("b", "c")]
        db = fixpoint_db({"e": edges}, TC)
        report = delete_and_maintain(TC, db, {"e": [("a", "b")]})
        assert idb_facts(db, TC) == scratch_idb({"e": edges[1:]}, TC)
        assert report.overdeleted == 2  # t(a,b) and t(a,c)
