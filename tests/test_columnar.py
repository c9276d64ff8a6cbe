"""Unit tests for the columnar interned storage backend.

The differential fuzz suites (:mod:`tests.test_engine_fuzz`,
:mod:`tests.test_maintenance_fuzz`) already check the columnar engine
end to end; this module pins the storage layer itself — the interner,
the packed-code dedupe, swap-with-last deletion, incremental index
extension, the ``array``-module fallback — plus the batch-charging
regression and the memory-observability surface.
"""

import json

import pytest

from repro.datalog.columnar import ColumnarBackend, SymbolTable
from repro.datalog.database import Database
from repro.datalog.evaluation import seminaive_evaluate
from repro.datalog.relation import CostCounter
from repro.service import SolverService, export_snapshot, import_snapshot

from .test_service import FACTS, sg_database, sg_program


def columnar_db():
    return sg_database().to_columnar()


class TestSymbolTable:
    def test_interning_is_idempotent_and_dense(self):
        table = SymbolTable()
        ids = [table.intern(v) for v in ("a", "b", "a", "c", "b")]
        assert ids == [0, 1, 0, 2, 1]
        assert len(table) == 3
        assert table.values_snapshot()[:3] == ["a", "b", "c"]
        assert table.value(1) == "b"

    def test_get_never_assigns(self):
        table = SymbolTable(["a"])
        assert table.get("a") == 0
        assert table.get("missing") is None
        assert table.get_many(["missing", "a"]) == [None, 0]
        assert len(table) == 1

    def test_intern_many_matches_singles(self):
        table = SymbolTable()
        assert table.intern_many(["x", "y", "x"]) == [0, 1, 0]

    def test_overflow_guard(self, monkeypatch):
        monkeypatch.setattr(SymbolTable, "MAX_SYMBOLS", 2)
        table = SymbolTable(["a", "b"])
        with pytest.raises(OverflowError):
            table.intern("c")

    def test_memory_estimate_grows(self):
        table = SymbolTable()
        empty = table.memory_bytes()
        table.intern_many(range(10))
        assert table.memory_bytes() > empty


def backend(arity=2, vector=None, facts=()):
    storage = ColumnarBackend("r", arity, SymbolTable(), vector=vector)
    for tup in facts:
        storage.add(tup)
    return storage


@pytest.mark.parametrize("vector", [None, False])
class TestColumnarBackend:
    def test_add_contains_iterate(self, vector):
        storage = backend(vector=vector)
        assert storage.add(("a", "b")) is True
        assert storage.add(("a", "b")) is False
        assert storage.contains(("a", "b"))
        assert not storage.contains(("b", "a"))
        assert set(storage) == {("a", "b")}
        assert len(storage) == 1

    def test_discard_swaps_with_last(self, vector):
        rows = [("a", "b"), ("c", "d"), ("e", "f")]
        storage = backend(vector=vector, facts=rows)
        assert storage.discard(("a", "b")) is True
        assert storage.discard(("a", "b")) is False
        assert storage.discard(("nope", "nope")) is False
        assert set(storage) == {("c", "d"), ("e", "f")}
        # The surviving rows stay probe-able after the swap.
        assert list(storage.matches((0,), ("e",))) == [("e", "f")]
        assert list(storage.matches((0,), ("a",))) == []

    def test_arity_zero(self, vector):
        storage = backend(arity=0, vector=vector)
        assert storage.add(()) is True
        assert storage.add(()) is False
        assert set(storage) == {()}
        assert storage.discard(()) is True
        assert set(storage) == set()

    def test_arity_three_uses_dict_paths(self, vector):
        storage = backend(arity=3, vector=vector)
        storage.add(("a", "b", "c"))
        storage.add(("a", "x", "y"))
        assert list(storage.matches((0,), ("a",))) == [
            ("a", "b", "c"),
            ("a", "x", "y"),
        ]
        assert list(storage.matches((0, 1, 2), ("a", "b", "c"))) == [
            ("a", "b", "c")
        ]
        assert storage.column_values(1) == frozenset({"b", "x"})

    def test_load_tuples_equals_per_tuple_adds(self, vector):
        rows = [("a", "b"), ("a", "b"), ("c", "d"), ("e", "f")]
        bulk = backend(vector=vector)
        assert bulk.load_tuples(rows) == 3
        slow = backend(vector=vector, facts=rows)
        assert set(bulk) == set(slow) == set(rows)

    def test_append_unique_skips_redundant_dedupe(self, vector):
        storage = backend(vector=vector, facts=[("a", "b")])
        # The staged rows must be interned through the *same* table.
        fresh = ColumnarBackend("tmp", 2, storage.symbols, vector=vector)
        fresh.load_tuples([("c", "d"), ("e", "f")])
        cols = [fresh.column_ids(0), fresh.column_ids(1)]
        # Caller guarantees freshness; the rows land without re-checking.
        storage.append_unique(cols, 2)
        assert set(storage) == {("a", "b"), ("c", "d"), ("e", "f")}

    def test_clone_is_independent(self, vector):
        storage = backend(vector=vector, facts=[("a", "b")])
        twin = storage.clone()
        twin.add(("c", "d"))
        storage.discard(("a", "b"))
        assert set(storage) == set()
        assert set(twin) == {("a", "b"), ("c", "d")}

    def test_index_extends_across_appends(self, vector):
        storage = backend(vector=vector, facts=[("a", "b"), ("a", "c")])
        # Build the index, then append and re-probe: the stale index is
        # merge-extended (vector mode) or rebuilt, never wrong.
        assert len(list(storage.matches((0,), ("a",)))) == 2
        storage.add(("a", "d"))
        storage.load_tuples([("z", "z"), ("a", "e")])
        assert set(storage.matches((0,), ("a",))) == {
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("a", "e"),
        }
        assert set(storage.matches((0, 1), ("a", "d"))) == {("a", "d")}

    def test_index_rebuilds_after_discard(self, vector):
        storage = backend(
            vector=vector, facts=[("a", "b"), ("c", "d"), ("a", "e")]
        )
        assert len(list(storage.matches((0,), ("a",)))) == 2
        storage.discard(("a", "b"))  # bumps the discard epoch
        assert set(storage.matches((0,), ("a",))) == {("a", "e")}
        storage.add(("a", "f"))
        assert set(storage.matches((0,), ("a",))) == {("a", "e"), ("a", "f")}

    def test_memory_estimate_grows_with_rows(self, vector):
        storage = backend(vector=vector)
        empty = storage.memory_bytes()
        storage.load_tuples([(f"x{i}", f"y{i}") for i in range(100)])
        list(storage.matches((0,), ("x0",)))  # force an index
        assert storage.memory_bytes() > empty


class TestDatabaseConversion:
    def test_to_columnar_preserves_facts_and_is_idempotent(self):
        database = columnar_db()
        assert database.backend == "columnar"
        relations = {n: database.relation(n) for n in database.names()}
        assert database.to_columnar() is database
        for name, tuples in FACTS.items():
            assert database.facts(name) == set(tuples)
            # Relation objects keep their identity across conversion.
            assert database.relation(name) is relations[name]

    def test_copy_shares_the_interner(self):
        database = columnar_db()
        clone = database.copy()
        assert clone.symbols is database.symbols
        clone.add_facts("up", [("new", "pair")])
        assert ("new", "pair") not in database.facts("up")
        # Shared interner: the same constant has the same dense id.
        assert database.symbols.get("new") is not None

    def test_fallback_mode_matches_numpy_mode(self, monkeypatch):
        program = sg_program()
        vector_db = columnar_db()
        seminaive_evaluate(program, vector_db, engine="columnar")

        monkeypatch.setenv("REPRO_COLUMNAR_FALLBACK", "1")
        fallback_db = sg_database().to_columnar()
        for name in fallback_db.names():
            assert fallback_db.relation(name).backend.vector is False
        seminaive_evaluate(program, fallback_db, engine="columnar")

        for predicate in program.idb_predicates():
            assert vector_db.facts(predicate) == fallback_db.facts(predicate)
        assert (
            vector_db.counter.snapshot() == fallback_db.counter.snapshot()
        )


class TestBatchCharging:
    def test_probe_batch_equals_loop_of_singles(self):
        singles = CostCounter()
        bulk = CostCounter()
        for _ in range(7):
            singles.charge_probe("r")
        singles.charge_tuples("r", 3)
        singles.charge_tuples("s", 2)
        bulk.charge_probe_batch("r", 7)
        bulk.charge_tuples("r", 3)
        bulk.charge_tuples("s", 2)
        assert singles.snapshot() == bulk.snapshot()

    def test_non_positive_batches_are_free(self):
        counter = CostCounter()
        counter.charge_probe_batch("r", 0)
        counter.charge_probe_batch("r", -4)
        assert counter.snapshot() == {
            "retrievals": 0,
            "probes": 0,
            "tuples": 0,
        }


class TestMemoryObservability:
    def test_plan_describe_reports_backend_and_bytes(self):
        service = SolverService(columnar_db())
        service.solve_batch(sg_program())
        ((_key, plan),) = service.plan_cache.entries()
        description = plan.describe()
        assert description["backend"] == "columnar"
        assert description["memory_bytes"] == plan.memory_bytes() > 0

    def test_batch_metrics_report_backend_and_plan_bytes(self):
        result = SolverService(columnar_db()).solve_batch(sg_program())
        assert result.metrics["backend"] == "columnar"
        assert result.metrics["plan_bytes"] > 0
        set_result = SolverService(sg_database()).solve_batch(sg_program())
        assert set_result.metrics["backend"] == "set"

    def test_service_stats_expose_resident_plan_bytes(self):
        service = SolverService(columnar_db())
        assert service.stats()["cache:resident_bytes"] == 0
        service.solve_batch(sg_program())
        assert service.stats()["cache:resident_bytes"] > 0

    def test_plan_bytes_report_only_what_was_built(self):
        service = SolverService(sg_database())
        plan = service.compile(sg_program())
        query = plan.query_for(plan.default_source)
        assert plan.memory_bytes() == 0
        assert plan.describe()["memory_bytes"] == 0
        assert query._shared.index is None  # reporting built nothing
        index = query.index
        adjacency = plan.memory_bytes()
        assert adjacency > 0 and index._bits is None
        # A run builds the answer side's bit index, its rows and chunk
        # entries: the estimate grows by them.
        service.solve_batch(sg_program(), method="magic_set")
        assert query.index is index and index._bits is not None
        assert plan.memory_bytes() > adjacency


class TestSnapshotInterning:
    def test_round_trip_preserves_backend_and_symbol_ids(self, tmp_path):
        service = SolverService(columnar_db())
        path = str(tmp_path / "snap.json")
        export_snapshot(service, path)
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["backend"] == "columnar"
        assert payload["symbols"]  # the interner travels with the facts

        imported = import_snapshot(path)
        database = imported.service.database
        assert database.backend == "columnar"
        for name in service.database.names():
            assert database.facts(name) == service.database.facts(name)
        # Identical dense ids on both sides of the replication boundary.
        for value in service.database.symbols.values_snapshot():
            assert database.symbols.get(value) == (
                service.database.symbols.get(value)
            ), value

    def test_set_backend_snapshots_stay_plain(self, tmp_path):
        service = SolverService(sg_database())
        path = str(tmp_path / "snap.json")
        export_snapshot(service, path)
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["backend"] == "set"
        assert "symbols" not in payload
        assert import_snapshot(path).service.database.backend == "set"

    def test_answers_match_across_the_boundary(self, tmp_path):
        service = SolverService(columnar_db())
        expected = service.solve_batch(sg_program()).answers
        path = str(tmp_path / "snap.json")
        export_snapshot(service, path)
        imported = import_snapshot(path)
        assert imported.service.solve_batch(sg_program()).answers == expected
