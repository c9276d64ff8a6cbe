"""Tests for the batch solver service and its compiled-plan cache."""

import pytest

from repro.core.csl import CSLQuery
from repro.core.solver import fact2_answer, solve
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.relation import CostCounter
from repro.errors import EvaluationError, UnsafeQueryError
from repro.service import (
    PlanCache,
    SolverService,
    database_fingerprint,
    program_fingerprint,
    target_fingerprint,
)
from repro.workloads.generators import cyclic_workload

PROGRAM = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y, Y1).
?- sg(a, Y).
"""

FACTS = {
    "up": [("a", "b"), ("b", "c"), ("d", "b")],
    "flat": [("c", "c1"), ("a", "a1")],
    "down": [("y", "c1"), ("y2", "y")],
}


def sg_program(source: str = "a") -> Program:
    program = parse_program(PROGRAM.replace("sg(a, Y)", f"sg({source}, Y)"))
    return Program([r for r in program.rules if not r.is_fact], program.query)


def sg_database() -> Database:
    database = Database()
    for name, tuples in FACTS.items():
        database.add_facts(name, tuples)
    return database


def per_source_oracle(query: CSLQuery, sources):
    return {
        source: fact2_answer(
            CSLQuery(query.left, query.exit, query.right, source)
        )
        for source in sources
    }


class TestBatchCorrectness:
    def test_shared_magic_matches_oracle(self, samegen_query):
        sources = ["d", "e", "b"]
        result = SolverService().solve_batch(samegen_query, sources)
        assert result.answers == per_source_oracle(samegen_query, sources)
        assert result.method == "shared_magic"

    def test_counting_matches_oracle(self, samegen_query):
        sources = ["d", "e", "b"]
        result = SolverService().solve_batch(
            samegen_query, sources, method="counting"
        )
        assert result.answers == per_source_oracle(samegen_query, sources)

    def test_shared_magic_safe_on_cycle(self, cyclic_query):
        sources = ["a", "b"]
        result = SolverService().solve_batch(cyclic_query, sources)
        assert result.answers == per_source_oracle(cyclic_query, sources)

    def test_counting_unsafe_on_cycle(self, cyclic_query):
        with pytest.raises(UnsafeQueryError):
            SolverService().solve_batch(
                cyclic_query, ["a"], method="counting"
            )

    def test_adaptive_picks_counting_for_single_acyclic_goal(
        self, samegen_query
    ):
        result = SolverService().solve_batch(
            samegen_query, ["d"], method="adaptive"
        )
        assert result.method == "counting"
        assert result.answers == per_source_oracle(samegen_query, ["d"])

    def test_adaptive_picks_shared_magic_for_batches_and_cycles(
        self, samegen_query, cyclic_query
    ):
        batch = SolverService().solve_batch(
            samegen_query, ["d", "e"], method="adaptive"
        )
        assert batch.method == "shared_magic"
        # A single source is served the library's recommendation: on a
        # cyclic source a magic counting row, never the plain magic set.
        service = SolverService()
        single_cyclic = service.solve_batch(
            cyclic_query, ["a"], method="adaptive"
        )
        recommended = service.compile(cyclic_query).cost_report("a")
        assert single_cyclic.method == recommended.recommendation.method
        assert single_cyclic.method.startswith("mc_")
        assert single_cyclic.answers == per_source_oracle(cyclic_query, ["a"])

    def test_empty_batch(self, samegen_query):
        result = SolverService().solve_batch(samegen_query, [])
        assert result.answers == {}

    @pytest.mark.parametrize(
        "method", ["mc_multiple_integrated", "shared_magic", "adaptive"]
    )
    def test_a_repeated_source_is_one_goal(self, method):
        # A source given twice used to be executed, charged and bounded
        # twice (the coalescer dedupes its windows; explicit batches and
        # in-process callers came through as given).
        query = cyclic_workload(scale=2, seed=0)
        source = query.source
        once = SolverService().solve_batch(query, [source], method=method)
        twice = SolverService().solve_batch(
            query, [source, source], method=method
        )
        assert twice.method == once.method
        assert twice.answers == once.answers
        assert twice.cost.snapshot() == once.cost.snapshot()
        assert twice.details == once.details
        assert twice.details["predicted_bound"] is not None
        assert twice.metrics["goals"] == once.metrics["goals"] == 1

    def test_repeated_sources_keep_first_seen_order(self, samegen_query):
        result = SolverService().solve_batch(samegen_query, ["d", "a", "d"])
        assert list(result.answers) == ["d", "a"]
        assert result.metrics["goals"] == 2

    def test_unknown_method_rejected(self, samegen_query):
        with pytest.raises(EvaluationError):
            SolverService().solve_batch(samegen_query, ["d"], method="bogus")

    def test_program_target_defaults_to_goal_source(self):
        service = SolverService(sg_database())
        result = service.solve_batch(sg_program())
        assert set(result.answers) == {"a"}
        assert result.answers["a"] == frozenset({"a1", "y2"})

    def test_cached_plan_uses_each_goals_own_constant(self):
        # Regression: a cache hit must answer for *this* target's bound
        # constant, not the constant of the goal that compiled the plan.
        service = SolverService(sg_database())
        first = service.solve_batch(sg_program("a"))
        assert first.answers == {"a": frozenset({"a1", "y2"})}
        hit = service.solve(sg_program("d"))
        assert hit.details["cache_hit"] is True
        assert hit.answers == frozenset({"y2"})
        batch_hit = service.solve_batch(sg_program("d"))
        assert batch_hit.cache_hit is True
        assert batch_hit.answers == {"d": frozenset({"y2"})}

    def test_query_target_defaults_to_its_own_source(self, samegen_query):
        service = SolverService()
        service.solve_batch(samegen_query, ["d"])
        rebound = CSLQuery(
            samegen_query.left,
            samegen_query.exit,
            samegen_query.right,
            "e",
        )
        result = service.solve_batch(rebound)
        assert result.cache_hit is True
        assert result.answers == per_source_oracle(samegen_query, ["e"])

    def test_solve_wrapper_matches_core_solver(self, samegen_query):
        service = SolverService()
        got = service.solve(samegen_query, source="d")
        assert got.answers == solve(samegen_query).answers
        assert got.method.startswith("service_")
        assert got.details["cache_hit"] is False

    def test_batch_metrics_expose_phases(self, samegen_query):
        result = SolverService().solve_batch(samegen_query, ["d", "e"])
        assert result.metrics["phase:reachability"] >= 1
        assert result.metrics["phase:fixpoint"] >= 1
        assert result.metrics["goals"] == 2
        assert result.metrics["retrievals"] == result.cost.retrievals

    def test_batch_metrics_expose_wall_clock(self, samegen_query):
        result = SolverService().solve_batch(samegen_query, ["d", "e"])
        assert result.metrics["duration_ms:reachability"] >= 0.0
        assert result.metrics["duration_ms:fixpoint"] >= 0.0
        assert result.metrics["duration_ms"] == pytest.approx(
            result.metrics["duration_ms:reachability"]
            + result.metrics["duration_ms:fixpoint"]
        )

    def test_service_snapshot_reports_latency_percentiles(self, samegen_query):
        service = SolverService()
        for sources in (["d"], ["e", "b"], ["d", "e", "b"]):
            service.solve_batch(samegen_query, sources)
        snapshot = service.metrics.snapshot()
        assert snapshot["batch_count"] == 3
        assert snapshot["batch_p50_ms"] > 0
        assert snapshot["batch_p99_ms"] >= snapshot["batch_p50_ms"]
        assert snapshot["batch_max_ms"] >= snapshot["batch_p99_ms"]
        assert snapshot["batch_mean_ms"] > 0


class TestPlanCache:
    def test_hit_after_miss_reuses_plan(self, samegen_query):
        service = SolverService()
        first = service.solve_batch(samegen_query, ["d"])
        second = service.solve_batch(samegen_query, ["e", "b"])
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert second.plan is first.plan
        stats = service.stats()
        assert stats["cache:hits"] == 1
        assert stats["cache:misses"] == 1
        assert stats["compiles"] == 1

    def test_mutation_maintains_plan_in_place(self):
        service = SolverService(sg_database())
        program = sg_program()
        before = service.solve_batch(program, ["d"])
        assert before.answers["d"] == frozenset({"y2"})
        # A new exit fact at d adds a direct answer; the cached plan is
        # maintained in place — the next batch hits the same plan object
        # and still serves the updated answers.
        assert service.add_fact("flat", "d", "d1") is True
        assert service.db_version == 1
        assert len(service.plan_cache) == 1
        after = service.solve_batch(program, ["d"])
        assert after.cache_hit is True
        assert after.plan is before.plan
        oracle = CSLQuery.from_program(
            program, database=service.database
        )
        assert after.answers["d"] == fact2_answer(
            CSLQuery(oracle.left, oracle.exit, oracle.right, "d")
        )
        assert after.answers["d"] == frozenset({"y2", "d1"})
        stats = service.stats()
        assert stats["plans_maintained"] == 1
        assert stats["compiles"] == 1

    def test_mutation_invalidates_and_recompiles_when_disabled(self):
        """An out-of-band database edit bypasses plan maintenance; the
        explicit invalidation drops the plan and the next batch
        recompiles against the edited database."""
        service = SolverService(sg_database())
        program = sg_program()
        before = service.solve_batch(program, ["d"])
        assert before.answers["d"] == frozenset({"y2"})
        assert service.database.add_fact("flat", "d", "d1") is True
        assert service.invalidate_plans() == 1
        assert service.db_version == 1
        assert len(service.plan_cache) == 0
        after = service.solve_batch(program, ["d"])
        assert after.cache_hit is False
        assert after.plan is not before.plan
        assert after.answers["d"] == frozenset({"y2", "d1"})
        assert service.stats()["invalidations"] == 1

    def test_remove_fact_maintains_deletions(self):
        service = SolverService(sg_database())
        program = sg_program()
        before = service.solve_batch(program, ["a"])
        assert before.answers["a"] == frozenset({"a1", "y2"})
        assert service.remove_fact("flat", "c", "c1") is True
        assert service.remove_fact("flat", "c", "c1") is False  # gone
        after = service.solve_batch(program, ["a"])
        assert after.cache_hit is True
        assert after.plan is before.plan
        fresh = SolverService(service.database.copy())
        assert after.answers == fresh.solve_batch(program, ["a"]).answers
        assert after.answers["a"] == frozenset({"a1"})

    def test_invalidate_plans_records_metric(self):
        service = SolverService(sg_database())
        program = sg_program()
        service.solve_batch(program, ["a"])
        assert len(service.plan_cache) == 1
        dropped = service.invalidate_plans()
        assert dropped == 1
        assert service.db_version == 1
        # The explicit path and the mutation path share one helper, so
        # the metric can no longer drift between them.
        assert service.stats()["invalidations"] == 1
        assert service.metrics.snapshot()["invalidations"] == 1

    def test_duplicate_fact_does_not_invalidate(self):
        service = SolverService(sg_database())
        program = sg_program()
        service.solve_batch(program, ["a"])
        assert service.add_fact("up", "a", "b") is False
        assert service.db_version == 0
        assert service.solve_batch(program, ["a"]).cache_hit is True

    def test_lru_eviction(self, samegen_query, cyclic_query):
        service = SolverService(plan_cache_size=1)
        service.solve_batch(samegen_query, ["d"])
        service.solve_batch(cyclic_query, ["a"])
        # The samegen plan was evicted; a third solve must recompile.
        third = service.solve_batch(samegen_query, ["d"])
        assert third.cache_hit is False
        assert service.plan_cache.stats()["evictions"] >= 1

    def test_plan_cache_direct_api(self):
        cache = PlanCache(max_size=2)
        assert cache.get(("fp1", 0)) is None
        cache.put(("fp1", 0), "plan1")
        cache.put(("fp2", 0), "plan2")
        assert cache.get(("fp1", 0)) == "plan1"
        cache.put(("fp3", 0), "plan3")  # evicts fp2 (least recent)
        assert ("fp2", 0) not in cache
        assert cache.invalidate("fp1") == 1
        assert ("fp1", 0) not in cache
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["invalidations"] == 1

    def test_verify_database_catches_out_of_band_mutation(self):
        database = sg_database()
        service = SolverService(database, verify_database=True)
        program = sg_program("d")
        before = service.solve_batch(program, ["d"])
        assert before.answers["d"] == frozenset({"y2"})
        # Mutate behind the service's back: no version bump happens,
        # but verification re-digests the EDB on the next lookup.
        database.add_fact("flat", "d", "d1")
        after = service.solve_batch(program, ["d"])
        assert after.cache_hit is False
        assert after.plan is not before.plan
        assert after.answers["d"] == frozenset({"y2", "d1"})
        # No false positives: an untouched database still hits.
        assert service.solve_batch(program, ["d"]).cache_hit is True

    def test_database_fp_is_current_or_empty_never_stale(self):
        program = sg_program("d")
        verifying = SolverService(sg_database(), verify_database=True)
        plan = verifying.compile(program)
        assert plan.describe()["database_fp"] == database_fingerprint(
            verifying.database
        )
        assert verifying.add_fact("flat", "d", "d1")
        assert verifying.compile(program) is plan  # maintained in place
        assert plan.describe()["database_fp"] == database_fingerprint(
            verifying.database
        )
        # Without the flag nothing reads the digest, so none is taken.
        service = SolverService(sg_database())
        plan = service.compile(program)
        assert plan.describe()["database_fp"] == ""
        assert service.add_fact("flat", "d", "d1")
        assert service.compile(program) is plan
        assert plan.describe()["database_fp"] == ""

    def test_verify_database_guards_a_query_target_too(self, samegen_query):
        database = sg_database()
        service = SolverService(database, verify_database=True)
        before = service.solve_batch(samegen_query, ["d"])
        assert before.plan.database_fp == database_fingerprint(database)
        assert service.solve_batch(samegen_query, ["d"]).cache_hit is True
        database.add_fact("flat", "d", "d1")  # out of band
        after = service.solve_batch(samegen_query, ["d"])
        assert after.cache_hit is False
        assert after.plan is not before.plan
        assert after.plan.database_fp == database_fingerprint(database)
        assert after.answers == before.answers  # pair sets came in explicitly

    def test_the_optimizer_is_not_a_knob_and_reports_no_keys(self):
        import inspect

        from repro.core.program_rewrite import (
            evaluate_with_program_rewrite,
            method_program,
        )
        from repro.service.plan import compile_program_plan

        for function in (
            SolverService.__init__,
            compile_program_plan,
            method_program,
            evaluate_with_program_rewrite,
        ):
            assert "optimize" not in inspect.signature(function).parameters
        service = SolverService(sg_database())
        batch = service.solve_batch(sg_program("d"), ["d"])
        removed = {
            "optimized", "optimizer_rules_removed", "optimizer_literals_removed",
            "rules_removed", "literals_removed", "optimize_ms",
            "optimized_compiles",
        }
        assert not removed & set(batch.plan.describe())
        assert not removed & set(batch.metrics)
        assert not removed & set(service.stats())

    def test_target_fingerprint_memoizes_and_revalidates(self):
        program = sg_program()
        fingerprint = target_fingerprint(program)
        assert fingerprint == program_fingerprint(program)
        assert target_fingerprint(program) == fingerprint
        # In-place mutation must not serve the stale digest.
        extra = parse_program("sg(X, Y) :- extra(X, Y).")
        program.add_rule(extra.rules[0])
        assert target_fingerprint(program) != fingerprint
        assert target_fingerprint(program) == program_fingerprint(program)

    def test_program_fingerprint_masks_goal_constant(self):
        base = parse_program(PROGRAM)
        other = parse_program(PROGRAM.replace("sg(a, Y)", "sg(d, Y)"))
        assert program_fingerprint(base) == program_fingerprint(other)
        different_rules = parse_program(
            PROGRAM.replace("up(X, X1)", "down(X, X1)")
        )
        assert program_fingerprint(base) != program_fingerprint(
            different_rules
        )


class TestInterleavedBatches:
    def test_two_databases_stay_independent(self):
        program = sg_program()
        service_one = SolverService(sg_database())
        other_db = sg_database()
        other_db.add_fact("flat", "d", "d1")
        service_two = SolverService(other_db)

        first_one = service_one.solve_batch(program, ["d", "a"])
        first_two = service_two.solve_batch(program, ["d", "a"])
        second_one = service_one.solve_batch(program, ["d"])

        # Interleaving must not bleed plans or answers across services.
        assert first_two.plan is not first_one.plan
        assert second_one.cache_hit is True
        assert second_one.plan is first_one.plan
        assert first_one.answers["d"] == frozenset({"y2"})
        assert first_two.answers["d"] == frozenset({"d1", "y2"})
        assert first_one.answers["a"] == first_two.answers["a"]

        # Costs are per-service: service one saw two batches, two three
        # goals; service two exactly one batch of two goals.
        assert service_one.metrics.batches == 2
        assert service_one.metrics.goals == 3
        assert service_two.metrics.batches == 1
        assert service_two.metrics.goals == 2

    def test_batch_counter_is_isolated_per_batch(self, samegen_query):
        service = SolverService()
        first = service.solve_batch(samegen_query, ["d"])
        second = service.solve_batch(samegen_query, ["e"])
        assert first.cost is not second.cost
        total = first.cost.retrievals + second.cost.retrievals
        assert service.metrics.retrievals == total


class TestAmortisation:
    def test_batched_beats_one_shot_over_100_sources(self):
        query = cyclic_workload(scale=6, seed=0)
        sources = sorted({value for pair in query.left for value in pair})[
            :100
        ]
        assert len(sources) == 100
        result = SolverService().solve_batch(query, sources)
        independent = 0
        for source in sources:
            counter = CostCounter()
            one_shot = solve(
                CSLQuery(query.left, query.exit, query.right, source),
                counter=counter,
            )
            independent += counter.retrievals
            assert one_shot.answers == result.answers[source]
        assert result.retrievals < independent


def test_a_wave_after_an_r_mutation_answers_like_the_oracle():
    # The plan's bit index numbers the answer side; a mutation of R must
    # not leave a wave reading the old one.
    query = cyclic_workload(scale=1, seed=0)
    database = Database()
    for name, pairs in (("up", query.left), ("flat", query.exit), ("down", query.right)):
        database.add_facts(name, sorted(pairs, key=repr))
    service = SolverService(database)
    program = sg_program(query.source)
    wave = sorted(query.magic_set(), key=repr)

    def oracle():
        current = CSLQuery.from_program(program, database=service.database)
        return per_source_oracle(current, wave)

    def answers_fresh(pair):
        right = (query.right - {pair}) | {("fresh", pair[1])}
        changed = CSLQuery(query.left, query.exit, right, query.source)
        return any("fresh" in ys for ys in per_source_oracle(changed, wave).values())

    assert service.solve_batch(program, wave).answers == oracle()
    removed = next(p for p in sorted(query.right, key=repr) if answers_fresh(p))
    service.remove_facts("down", [removed])
    service.add_fact("down", "fresh", removed[1])
    after = service.solve_batch(program, wave)
    assert after.method == "shared_magic" and after.cache_hit
    assert after.answers == oracle()
    assert any("fresh" in answers for answers in after.answers.values())
