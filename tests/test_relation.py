"""Unit tests for the cost-instrumented relation storage."""

import pytest

from repro.datalog.relation import CostCounter, Relation


EDGES = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]


@pytest.fixture
def counter():
    return CostCounter()


@pytest.fixture
def edges(counter):
    return Relation("edge", 2, EDGES, counter)


class TestBasics:
    def test_len_and_contains(self, edges):
        assert len(edges) == 4
        assert ("a", "b") in edges
        assert ("b", "a") not in edges

    def test_add_deduplicates(self, edges):
        assert not edges.add(("a", "b"))
        assert edges.add(("a", "z"))
        assert len(edges) == 5

    def test_arity_enforced(self, edges):
        with pytest.raises(ValueError):
            edges.add(("a",))
        with pytest.raises(ValueError):
            list(edges.lookup(("a",)))

    def test_negative_arity_rejected(self, counter):
        with pytest.raises(ValueError):
            Relation("bad", -1, counter=counter)

    def test_column_values(self, edges):
        assert edges.column_values(0) == {"a", "b", "c"}
        assert edges.column_values(1) == {"a", "b", "c"}

    def test_copy_is_independent(self, edges, counter):
        clone = edges.copy(CostCounter())
        clone.add(("z", "z"))
        assert ("z", "z") not in edges


class TestLookup:
    def test_by_first_column(self, edges):
        assert set(edges.lookup(("a", None))) == {("a", "b"), ("a", "c")}

    def test_by_second_column(self, edges):
        assert set(edges.lookup((None, "c"))) == {("a", "c"), ("b", "c")}

    def test_full_scan(self, edges):
        assert len(list(edges.lookup((None, None)))) == 4

    def test_membership_pattern(self, edges):
        assert list(edges.lookup(("a", "b"))) == [("a", "b")]
        assert list(edges.lookup(("b", "b"))) == []

    def test_index_maintained_after_add(self, edges):
        list(edges.lookup(("a", None)))  # build the index
        edges.add(("a", "q"))
        assert set(edges.lookup(("a", None))) == {("a", "b"), ("a", "c"), ("a", "q")}

    def test_missing_key(self, edges):
        assert list(edges.lookup(("zzz", None))) == []


class TestCostAccounting:
    def test_probe_plus_tuples(self, edges, counter):
        list(edges.lookup(("a", None)))
        assert counter.probes == 1
        assert counter.tuples == 2
        assert counter.retrievals == 3

    def test_empty_probe_still_charged(self, edges, counter):
        list(edges.lookup(("zzz", None)))
        assert counter.retrievals == 1

    def test_contains_charges(self, edges, counter):
        edges.contains(("a", "b"))
        assert counter.retrievals == 2  # probe + hit
        edges.contains(("zz", "zz"))
        assert counter.retrievals == 3  # probe only

    def test_per_relation_breakdown(self, counter):
        r1 = Relation("one", 1, [(1,), (2,)], counter)
        r2 = Relation("two", 1, [(3,)], counter)
        list(r1.lookup((None,)))
        list(r2.lookup((None,)))
        assert counter.per_relation["one"] == 3
        assert counter.per_relation["two"] == 2

    def test_reset(self, edges, counter):
        list(edges.lookup((None, None)))
        counter.reset()
        assert counter.retrievals == 0 and counter.per_relation == {}

    def test_uncharged_structural_access(self, edges, counter):
        _ = len(edges)
        _ = ("a", "b") in edges
        _ = list(edges)
        _ = edges.as_set()
        assert counter.retrievals == 0

    def test_snapshot(self, edges, counter):
        list(edges.lookup(("a", None)))
        snap = counter.snapshot()
        assert snap["retrievals"] == 3
        assert snap["relation:edge"] == 3


class TestStandaloneCounters:
    """Regression: counterless relations used to share one module-level
    counter, leaking retrieval charges across unrelated relations (and
    across tests / concurrent service requests)."""

    def test_counterless_relations_have_private_counters(self):
        first = Relation("first", 2, [("a", "b")])
        second = Relation("second", 2, [("c", "d")])
        assert first.counter is not second.counter
        list(first.lookup(("a", None)))
        assert first.counter.retrievals > 0
        assert second.counter.retrievals == 0

    def test_fresh_counterless_relation_starts_at_zero(self):
        noisy = Relation("noisy", 1, [("x",)])
        for _ in range(5):
            list(noisy.lookup((None,)))
        assert Relation("fresh", 1).counter.retrievals == 0

    def test_counterless_charges_stay_observable(self):
        relation = Relation("solo", 2, [("a", "b"), ("a", "c")])
        list(relation.lookup(("a", None)))
        snap = relation.counter.snapshot()
        assert snap["retrievals"] == 3
        assert snap["relation:solo"] == 3


class TestPartialConsumptionCharging:
    """Regression: lookup used to charge tuples only at generator
    exhaustion, so an early-exiting consumer retrieved tuples for free."""

    def test_partially_consumed_lookup_charges_yielded_tuples(self, counter):
        relation = Relation(
            "edge", 2, [("a", "b"), ("a", "c"), ("a", "d")], counter
        )
        generator = relation.lookup(("a", None))
        next(generator)
        generator.close()
        snap = counter.snapshot()
        assert snap["probes"] == 1
        assert snap["tuples"] == 1
        assert snap["retrievals"] == 2
        assert snap["relation:edge"] == 2

    def test_existence_check_pays_for_the_hit(self, counter):
        relation = Relation(
            "edge", 2, [("a", "b"), ("a", "c"), ("a", "d")], counter
        )
        assert any(True for _ in relation.lookup(("a", None)))
        # any() stops at the first tuple: one probe + one tuple charged,
        # not one probe + zero (the old exhaustion-only accounting).
        assert counter.retrievals == 2

    def test_full_consumption_total_unchanged(self, edges, counter):
        assert len(list(edges.lookup(("a", None)))) == 2
        assert counter.retrievals == 3  # 1 probe + 2 tuples, as before


class TestProbeRepeated:
    """``probe_repeated``: one read standing for ``times`` probes."""

    @pytest.mark.parametrize("key", ["a", "c", "zzz"])
    @pytest.mark.parametrize("times", [1, 2, 7])
    def test_charges_like_that_many_exhausted_lookups(self, key, times):
        bulk = Relation("edge", 2, EDGES)
        loop = Relation("edge", 2, EDGES)
        rows = bulk.probe_repeated((0,), (key,), times)
        for _ in range(times):
            assert sorted(loop.lookup((key, None))) == sorted(rows)
        assert bulk.counter.snapshot() == loop.counter.snapshot()

    def test_zero_times_reads_without_charging(self, edges, counter):
        rows = edges.probe_repeated((0,), ("a",), 0)
        assert set(rows) == {("a", "b"), ("a", "c")}
        assert counter.snapshot() == CostCounter().snapshot()

    def test_no_match_charges_probes_only(self, edges, counter):
        assert edges.probe_repeated((1,), ("zzz",), 5) == ()
        assert counter.snapshot() == {
            "retrievals": 5, "probes": 5, "tuples": 0, "relation:edge": 5,
        }

    def test_negative_times_rejected(self, edges, counter):
        with pytest.raises(ValueError):
            edges.probe_repeated((0,), ("a",), -1)
        assert counter.retrievals == 0

    def test_rows_are_a_snapshot_not_the_index_bucket(self, edges):
        rows = edges.probe_repeated((0,), ("a",), 1)
        edges.add(("a", "q"))
        assert len(rows) == 2
        assert len(edges.probe_repeated((0,), ("a",), 1)) == 3

    def test_charges_the_current_counter(self, edges, counter):
        # CompiledPlan.attached swaps ``relation.counter`` per batch: the
        # primitive must read the attribute at call time, not bind it.
        edges.probe_repeated((0,), ("a",), 1)
        swapped = CostCounter()
        edges.counter = swapped
        edges.probe_repeated((0,), ("a",), 2)
        assert counter.retrievals == 3
        assert swapped.retrievals == 6

    def test_back_to_back_batches_report_independent_costs(self, cyclic_query):
        # Regression guard for the served path: two batches on one
        # cached plan each see only their own fixpoint's retrievals.
        from repro.core.multi_source import multi_source_magic
        from repro.service import SolverService

        expected = CostCounter()
        multi_source_magic(cyclic_query, ["a", "b"], expected)
        service = SolverService()
        first = service.solve_batch(cyclic_query, ["a", "b"])
        second = service.solve_batch(cyclic_query, ["a", "b"])
        assert second.cache_hit is True
        assert first.cost is not second.cost
        assert first.cost.snapshot() == expected.snapshot()
        assert second.cost.snapshot() == expected.snapshot()


class TestProbeMany:
    """``probe_many``: one read standing for one probe per key."""

    @staticmethod
    def relation(backend):
        from repro.datalog.database import Database

        relation = Database(backend=backend).create("edge", 2)
        relation.add_all(EDGES)
        return relation

    @pytest.mark.parametrize("backend", ["set", "columnar"])
    @pytest.mark.parametrize(
        "positions, values",
        [
            ((0,), ["a", "c"]),
            ((0,), ["zzz"]),  # an absent key still costs its probe
            ((1,), ["c", "zzz", "c", "a"]),  # a repeated key is charged each time
        ],
    )
    def test_charges_like_one_exhausted_lookup_per_key(
        self, backend, positions, values
    ):
        bulk, loop = self.relation(backend), self.relation(backend)
        rows = bulk.probe_many(positions, [(value,) for value in values])
        assert len(rows) == len(values)
        for value, matched in zip(values, rows):
            pattern = (value, None) if positions == (0,) else (None, value)
            assert sorted(loop.lookup(pattern)) == sorted(matched)
        assert bulk.counter.snapshot() == loop.counter.snapshot()

    @pytest.mark.parametrize("backend", ["set", "columnar"])
    def test_no_keys_no_rows_no_charge(self, backend):
        relation = self.relation(backend)
        assert relation.probe_many((0,), []) == []
        assert relation.counter.snapshot() == CostCounter().snapshot()

    def test_rows_are_snapshots_not_index_buckets(self, edges):
        (rows,) = edges.probe_many((0,), [("a",)])
        edges.add(("a", "q"))
        assert len(rows) == 2
        assert len(edges.probe_many((0,), [("a",)])[0]) == 3

    def test_charges_the_current_counter(self, edges, counter):
        # CompiledPlan.attached swaps ``relation.counter`` per batch: the
        # primitive must read the attribute at call time, not bind it.
        edges.probe_many((0,), [("a",)])
        swapped = CostCounter()
        edges.counter = swapped
        edges.probe_many((0,), [("a",), ("b",)])
        assert counter.retrievals == 3
        assert swapped.retrievals == 5


class TestKeyReader:
    """Lazy indexes are built and kept exact through one key reader each."""

    def test_index_on_two_of_three_columns_follows_mutations(self):
        triples = Relation(
            "t", 3, [("a", 1, "x"), ("a", 2, "x"), ("a", 3, "y"), ("b", 1, "x")]
        )

        def a_x():
            return set(triples.probe((0, 2), ("a", "x")))

        assert a_x() == {("a", 1, "x"), ("a", 2, "x")}  # builds the index
        triples.add(("a", 4, "x"))
        triples.add(("c", 4, "x"))
        assert a_x() == {("a", 1, "x"), ("a", 2, "x"), ("a", 4, "x")}
        assert triples.add_new([("a", 5, "x"), ("a", 1, "x"), ("a", 5, "z")]) == [
            ("a", 5, "x"), ("a", 5, "z"),
        ]
        assert len(a_x()) == 4
        assert triples.discard(("a", 1, "x")) and not triples.discard(("a", 9, "x"))
        assert a_x() == {("a", 2, "x"), ("a", 4, "x"), ("a", 5, "x")}
        for tup in list(a_x()):
            triples.discard(tup)
        assert a_x() == set()
        assert triples.probe_many((0, 2), [("a", "z"), ("c", "x"), ("a", "x")]) == [
            (("a", 5, "z"),), (("c", 4, "x"),), (),
        ]


    def test_indexed_relation_pickles(self, edges):
        # The key readers are stored with the indexes: no lambdas there.
        import pickle

        assert len(edges.probe_many((0,), [("a",)])[0]) == 2  # builds the index
        twin = pickle.loads(pickle.dumps(edges))
        twin.add(("a", "q"))
        assert len(twin.probe_many((0,), [("a",)])[0]) == 3
        assert len(edges.probe_many((0,), [("a",)])[0]) == 2


class TestBulkInsert:
    """Relation.add_all / add_new: the one-pass bulk path."""

    def test_add_all_counts_only_new(self, edges):
        added = edges.add_all([("a", "b"), ("x", "y"), ("x", "y"), ("y", "z")])
        assert added == 2
        assert ("x", "y") in edges and ("y", "z") in edges

    def test_add_new_returns_fresh_tuples(self, edges):
        fresh = edges.add_new([("a", "b"), ("n", "m"), ("n", "m")])
        assert fresh == [("n", "m")]

    def test_add_new_extends_existing_indexes(self, edges, counter):
        # Build the column-0 index first, then bulk insert: the index
        # must serve the new tuples without a rebuild.
        assert len(list(edges.lookup(("a", None)))) == 2
        edges.add_new([("a", "z"), ("q", "r")])
        assert set(edges.lookup(("a", None))) == {
            ("a", "b"), ("a", "c"), ("a", "z")
        }
        assert set(edges.lookup(("q", None))) == {("q", "r")}

    def test_add_new_enforces_arity(self, edges):
        with pytest.raises(ValueError):
            edges.add_new([("a", "b", "c")])

    @pytest.mark.parametrize("backend", ["set", "columnar"])
    def test_add_new_refused_batch_leaves_nothing_behind(self, backend):
        # Callers journal what add_new returns (insert_and_maintain's
        # rollback), so an arity error mid-batch must not strand the
        # tuples stored before it — in the set or in a lazy index.
        from repro.datalog.database import Database

        relation = Database(backend=backend).create("r", 2)
        relation.add(("a", "b"))
        assert len(list(relation.lookup(("n", None)))) == 0  # build index
        with pytest.raises(ValueError):
            relation.add_new([("n", "m"), ("a", "b"), ("x", "y", "z")])
        assert relation.as_set() == {("a", "b")}
        assert list(relation.lookup(("n", None))) == []

    def test_add_new_accepts_generators(self, edges):
        fresh = edges.add_new((pair for pair in [("g", "h")]))
        assert fresh == [("g", "h")]
        assert ("g", "h") in edges
