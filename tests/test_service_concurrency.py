"""Concurrency regression tests for the service layer.

The serving subsystem executes overlapping batches from a worker pool
while mutations arrive from other connections, so the service and its
plan cache must tolerate: a mutation landing *between* the cache lookup
and the start of execution (the stale-plan window), writers racing
readers, and raw cache traffic from many threads.
"""

import sys
import threading

import pytest

from repro.core.csl import CSLQuery
from repro.core.solver import fact2_answer
from repro.service import PlanCache, SolverService

from .test_service import FACTS, sg_database, sg_program


def oracle(service, source):
    query = CSLQuery.from_program(
        sg_program(source), database=service.database
    )
    return fact2_answer(
        CSLQuery(query.left, query.exit, query.right, source)
    )


class TestStalePlanRegression:
    def test_mutation_between_lookup_and_execute_is_maintained(self):
        """A write landing between the cache lookup and execution must
        not be lost.  With maintenance on, the writer repairs the very
        plan object the reader already holds, so the version re-check at
        execute time passes and the batch runs on up-to-date pair sets.
        """
        service = SolverService(sg_database())
        program = sg_program("d")
        warm = service.solve_batch(program, ["d"])
        assert warm.answers["d"] == frozenset({"y2"})

        real_get = service.plan_cache.get
        mutated = threading.Event()

        def racing_get(key):
            plan = real_get(key)
            if plan is not None and not mutated.is_set():
                mutated.set()
                # Reentrant on the service lock: same thread, so this
                # mirrors a writer that won the race for the window.
                assert service.add_fact("flat", "d", "d1") is True
            return plan

        service.plan_cache.get = racing_get
        try:
            result = service.solve_batch(program, ["d"])
        finally:
            service.plan_cache.get = real_get

        assert mutated.is_set()
        # The hit plan was repaired in place: still a cache hit, and the
        # answer reflects the post-mutation database.
        assert result.cache_hit is True
        assert result.plan.db_version == service.db_version
        assert result.answers["d"] == frozenset({"y2", "d1"})
        assert result.answers["d"] == oracle(service, "d")

    def test_mutation_between_lookup_and_execute_forces_recompile(self):
        """A batch must never be answered from a plan invalidated
        (the path unmaintainable plans take) after the cache lookup but
        before execution started.

        The drop is injected deterministically: the first cache hit
        triggers an out-of-band write plus ``invalidate_plans()``
        (version bump + drop) *after* the plan is handed back, exactly
        the window a concurrent writer hits.  ``solve_batch`` re-checks
        the plan version at execute time and must retry on the fresh
        plan.
        """
        service = SolverService(sg_database())
        program = sg_program("d")
        warm = service.solve_batch(program, ["d"])
        assert warm.answers["d"] == frozenset({"y2"})

        real_get = service.plan_cache.get
        mutated = threading.Event()

        def racing_get(key):
            plan = real_get(key)
            if plan is not None and not mutated.is_set():
                mutated.set()
                assert service.database.add_fact("flat", "d", "d1") is True
                service.invalidate_plans()
            return plan

        service.plan_cache.get = racing_get
        try:
            result = service.solve_batch(program, ["d"])
        finally:
            service.plan_cache.get = real_get

        assert mutated.is_set()
        # The hit plan was stale; the retry recompiled (a miss) and the
        # answer reflects the post-mutation database.
        assert result.cache_hit is False
        assert result.plan.db_version == service.db_version
        assert result.answers["d"] == frozenset({"y2", "d1"})
        assert result.answers["d"] == oracle(service, "d")

    def test_every_attempt_maintained_succeeds(self):
        """With maintenance on, a writer landing in the stale window on
        every attempt cannot starve the batch: each write repairs the
        held plan, so the batch executes once and its answer matches a
        from-scratch solve over the final database."""
        service = SolverService(sg_database())
        program = sg_program("d")
        service.solve_batch(program, ["d"])

        real_plan_for = service._plan_for
        extra = iter(range(10_000))

        def always_racing_plan_for(target):
            plan, hit = real_plan_for(target)
            service.add_fact("flat", "starver", f"s{next(extra)}")
            return plan, hit

        service._plan_for = always_racing_plan_for
        try:
            result = service.solve_batch(program, ["d"])
        finally:
            del service._plan_for
        assert result.plan.db_version == service.db_version
        assert result.answers["d"] == oracle(service, "d")

    def test_every_attempt_starved_raises(self):
        """If a writer invalidates the plan on *every* attempt the
        batch fails loudly instead of looping forever or serving stale
        data."""
        service = SolverService(sg_database())
        program = sg_program("d")
        service.solve_batch(program, ["d"])

        real_plan_for = service._plan_for
        extra = iter(range(10_000))

        def always_racing_plan_for(target):
            plan, hit = real_plan_for(target)
            # Land the drop after compilation, inside the stale window,
            # on every single attempt.
            service.database.add_fact("flat", "starver", f"s{next(extra)}")
            service.invalidate_plans()
            return plan, hit

        service._plan_for = always_racing_plan_for
        try:
            with pytest.raises(Exception) as excinfo:
                service.solve_batch(program, ["d"])
        finally:
            del service._plan_for
        assert "starved" in str(excinfo.value)


#: one per reader thread: the shared fixpoint, the recommended row, a
class TestMemoFillsOutsideTheLock:
    """``_memo_lock`` guards read, publish and evict, never an analysis:
    with two executor workers one worker's cold source must not delay
    the other's warm read of the same memo."""

    def _parked_fill(self, monkeypatch, module, attribute, cold_call):
        """Start ``cold_call`` on a thread and park it inside
        ``module.attribute``; returns ``(thread, release)``."""
        entered, release = threading.Event(), threading.Event()
        analysis = getattr(module, attribute)

        def parked(*args, **kwargs):
            entered.set()
            assert release.wait(timeout=60)
            return analysis(*args, **kwargs)

        monkeypatch.setattr(module, attribute, parked)
        thread = threading.Thread(target=cold_call)
        thread.start()
        assert entered.wait(timeout=60)
        monkeypatch.setattr(module, attribute, analysis)
        return thread, release

    def _warm_read(self, read):
        done = []
        reader = threading.Thread(target=lambda: done.append(read()))
        reader.start()
        reader.join(timeout=10)
        return done

    def test_a_cold_decision_does_not_delay_a_warm_one(self, monkeypatch):
        import repro.analysis.cost as cost

        service = SolverService(sg_database())
        plan = service.compile(sg_program("a"))
        warm = plan.decision("a")
        cold = []
        thread, release = self._parked_fill(
            monkeypatch, cost, "analyze_cost_query",
            lambda: cold.append(plan.decision("b")),
        )
        try:
            assert self._warm_read(lambda: plan.decision("a")) == [warm]
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert cold == [plan.decision("b")]

    def test_a_cold_relation_certificate_does_not_delay_a_decision(
        self, monkeypatch
    ):
        import repro.service.plan as plan_module

        service = SolverService(sg_database())
        plan = service.compile(sg_program("a"))
        warm = plan.decision("a")
        thread, release = self._parked_fill(
            monkeypatch, plan_module, "certify_relation",
            lambda: plan.relation_certificate,
        )
        try:
            assert self._warm_read(lambda: plan.decision("a")) == [warm]
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert plan.relation_certificate.is_safe

    def test_a_fill_overtaken_by_a_mutation_is_not_published(
        self, monkeypatch
    ):
        """A decision computed on pair sets ``maintain`` has since
        replaced is handed to its caller and dropped: the memo only ever
        describes the pair sets a batch will execute against."""
        import repro.analysis.cost as cost

        service = SolverService(sg_database())
        program = sg_program("a")
        plan = service.compile(program)
        stale = []
        thread, release = self._parked_fill(
            monkeypatch, cost, "analyze_cost_query",
            lambda: stale.append(plan.decision("a")),
        )
        service.mutate(inserts={"up": [("c", "a")]})  # closes a cycle
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert stale[0].bounds["counting"] is not None
        assert plan.decision("a").bounds["counting"] is None

    def test_a_fill_parked_in_its_walk_finishes_on_the_index_it_started_on(
        self, monkeypatch
    ):
        """``maintain`` succeeds the plan's index instead of patching it
        in place: an analysis that is already inside the old index when
        the delta lands walks the old graph to the end."""
        import repro.analysis.cost.bounds as bounds

        service = SolverService(sg_database())
        program = sg_program("a")
        plan = service.compile(program)
        plan.decision("b")  # builds the index the delta will succeed
        old = plan.query_for("a").index
        entries = {b: set(cs) for b, cs in old.l_successors.items()}
        stale = []
        thread, release = self._parked_fill(
            monkeypatch, bounds, "collect_statistics",
            lambda: stale.append(plan.decision("a")),
        )
        service.mutate(inserts={"up": [("c", "a")]})  # closes a cycle
        new = plan.query_for("a").index
        assert new is not old and "a" in new.l_successors["c"]
        release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert old.l_successors == entries and old.condensation.cores == set()
        assert stale[0].bounds["counting"] is not None
        assert "a" not in plan._decisions
        assert plan.decision("a").bounds["counting"] is None


#: row asked for by name — all on the one plan, all at once
STRESS_METHODS = [
    "shared_magic", "adaptive", "mc_multiple_integrated", "shared_magic",
]


@pytest.fixture
def eager_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("eager_thread_switches")
class TestThreadedStress:
    def test_readers_see_monotonic_answers_under_writes(self):
        """Four reader threads solve while a writer inserts facts.

        Inserts only grow the exit set, so every served answer set must
        sit between the initial oracle and the final oracle — anything
        outside that sandwich means a batch read stores the writer was
        patching, mixed relation states or ran on an invalidated plan.
        """
        service = SolverService(sg_database(), plan_cache_size=4)
        program = sg_program("d")
        initial = oracle(service, "d")
        new_facts = [("d", f"w{i}") for i in range(20)]
        final = initial | {value for _, value in new_facts}

        errors = []
        observed = []
        start = threading.Barrier(5)

        def writer():
            start.wait()
            for name_value in new_facts:
                service.add_fact("flat", *name_value)

        def reader(method):
            start.wait()
            try:
                for _ in range(15):
                    result = service.solve_batch(program, ["d"], method)
                    observed.append(result.answers["d"])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(method,))
            for method in STRESS_METHODS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        assert not errors, errors
        assert len(observed) == 60
        for answers in observed:
            assert initial <= answers <= final, answers
        # After the dust settles a fresh batch sees every write.
        assert service.solve_batch(program, ["d"]).answers["d"] == final
        assert service.db_version == len(new_facts)

    def test_concurrent_batches_have_isolated_counters(self):
        """Overlapping batches on the same cached plan must not bleed
        retrieval charges into each other (they share the plan's stores
        but each reads through views and a counter of its own)."""
        service = SolverService(sg_database())
        program = sg_program("a")
        baseline = {
            method: service.solve_batch(program, ["a"], method).retrievals
            for method in STRESS_METHODS
        }
        results = []
        start = threading.Barrier(4)

        def worker(method):
            start.wait()
            for _ in range(10):
                results.append(
                    (method, service.solve_batch(program, ["a"], method))
                )

        threads = [
            threading.Thread(target=worker, args=(method,))
            for method in STRESS_METHODS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        assert len(results) == 40
        for method, result in results:
            assert result.answers["a"] == frozenset({"a1", "y2"})
            assert result.retrievals == baseline[method]


class TestPlanCacheThreadSafety:
    def test_hammered_cache_stays_consistent(self):
        cache = PlanCache(max_size=8)
        errors = []
        start = threading.Barrier(6)

        def worker(seed):
            start.wait()
            try:
                for i in range(300):
                    key = (f"fp{(seed * 7 + i) % 12}", i % 3)
                    if i % 11 == 0:
                        cache.invalidate()
                    elif cache.get(key) is None:
                        cache.put(key, f"plan-{seed}-{i}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert not errors, errors
        assert len(cache) <= 8
        stats = cache.stats()
        # Every iteration either invalidated (i % 11 == 0: 28 of 300)
        # or issued exactly one get — counters must not tear.
        assert stats["hits"] + stats["misses"] == 6 * 272
        assert stats["plans"] == len(cache)
