"""Per-batch and per-service cost aggregation.

Built on :meth:`CostCounter.snapshot`: a :class:`BatchMetrics` takes a
snapshot at each phase boundary (``compile``, ``reachability``,
``fixpoint``, ...) and stores the *delta*, so a batch report decomposes
the paper's single cost unit — tuple retrievals — into the stages of
the compile/execute split.  Each phase also records its wall-clock
duration, because the network serving layer pays for time, not only
for retrievals.  :class:`ServiceMetrics` accumulates batch totals over
the lifetime of a :class:`SolverService`, including a batch-latency
histogram (:class:`LatencyHistogram`) surfaced on the server's
``/metrics`` endpoint.

Thread-safety: :class:`ServiceMetrics` and :class:`LatencyHistogram`
are shared across the server's worker threads, so each guards its
mutable state with a private lock (the ``guarded-by`` annotations are
checked by ``repro lint-py``).  :class:`BatchMetrics` is per-batch and
single-threaded by construction, so it carries no lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.relation import CostCounter


def _diff(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    keys = set(before) | set(after)
    delta = {}
    for key in keys:
        value = after.get(key, 0) - before.get(key, 0)
        if value:
            delta[key] = value
    return delta


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an already-sorted sample, 0.0 when empty."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


class LatencyHistogram:
    """Streaming latency percentiles over a bounded sample reservoir.

    Observations are kept in a ring buffer of the most recent
    ``capacity`` samples (the serving steady state is what matters for
    p50/p95/p99 — ancient latencies only dilute the signal), while
    ``count``/``total``/``max`` run over the full lifetime.  Percentiles
    use the nearest-rank method on a sorted copy of the reservoir;
    ``observe`` is O(1) so the hot path never sorts.
    """

    __slots__ = ("_lock", "_samples", "count", "total", "max")

    def __init__(self, capacity: int = 2048):
        self._lock = threading.Lock()
        self._samples: deque = deque(maxlen=capacity)  # guarded-by: _lock
        self.count = 0  # guarded-by: _lock
        self.total = 0.0  # guarded-by: _lock
        self.max = 0.0  # guarded-by: _lock

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 < q <= 100) in seconds, 0.0 when empty."""
        with self._lock:
            ordered = sorted(self._samples)
        return _nearest_rank(ordered, q)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat ``{count, mean_ms, p50_ms, p95_ms, p99_ms, max_ms}``.

        One consistent snapshot is taken under the lock; the percentile
        sorting happens outside it (the lock is not reentrant, so this
        must not call :meth:`percentile` while holding it).
        """
        with self._lock:
            count = self.count
            total = self.total
            maximum = self.max
            ordered = sorted(self._samples)
        return {
            "count": count,
            "mean_ms": (total / count if count else 0.0) * 1000.0,
            "p50_ms": _nearest_rank(ordered, 50) * 1000.0,
            "p95_ms": _nearest_rank(ordered, 95) * 1000.0,
            "p99_ms": _nearest_rank(ordered, 99) * 1000.0,
            "max_ms": maximum * 1000.0,
        }

    def __repr__(self):
        stats = self.summary()
        return (
            f"LatencyHistogram(count={stats['count']}, "
            f"p50={stats['p50_ms']:.2f}ms, "
            f"p99={stats['p99_ms']:.2f}ms)"
        )


class BatchMetrics:
    """Phase-by-phase retrieval and wall-clock accounting for one batch."""

    def __init__(self, counter: CostCounter):
        self.counter = counter
        self.phases: List[Tuple[str, Dict[str, int], float]] = []
        self._last = counter.snapshot()
        self._last_time = time.perf_counter()
        self._compile_ms: float = 0.0
        self._backend: str = ""
        self._plan_bytes: int = 0
        self._predicted_method: str = ""
        self._predicted_bound: Optional[int] = None

    def record_plan(
        self, compile_seconds: float, backend: str, plan_bytes: int
    ) -> None:
        """Record the serving plan's (amortized) compilation cost in
        wall-clock seconds, the storage backend it was compiled against,
        and its estimated resident bytes (pair tuples plus indexes)."""
        self._compile_ms = compile_seconds * 1000.0
        self._backend = backend
        self._plan_bytes = plan_bytes

    def record_predicted(self, method: str, bound: Optional[int]) -> None:
        """Record the statically certified retrieval bound for the batch
        (the summed per-source certificate bound of the bound-relevant
        method), or ``None`` when the analyzer abstained on any goal."""
        self._predicted_method = method
        self._predicted_bound = bound

    def mark(self, phase: str) -> Dict[str, int]:
        """Close the current phase under ``phase``; returns its delta."""
        current = self.counter.snapshot()
        now = time.perf_counter()
        delta = _diff(self._last, current)
        self.phases.append((phase, delta, now - self._last_time))
        self._last = current
        self._last_time = now
        return delta

    def phase_retrievals(self) -> Dict[str, int]:
        """``{phase: retrievals}`` for every recorded phase."""
        return {
            phase: delta.get("retrievals", 0)
            for phase, delta, _duration in self.phases
        }

    def phase_durations_ms(self) -> Dict[str, float]:
        """``{phase: wall-clock milliseconds}`` for every recorded phase."""
        return {
            phase: duration * 1000.0
            for phase, _delta, duration in self.phases
        }

    def summary(self, goals: int = 0) -> Dict[str, object]:
        """A flat report: totals, per-phase retrievals and durations,
        per-goal average.  The retrieval-only keys (``phase:<name>``)
        are unchanged from before durations existed; wall-clock numbers
        ride alongside as ``duration_ms:<name>`` plus a ``duration_ms``
        total."""
        report: Dict[str, object] = dict(self.counter.snapshot())
        for phase, retrievals in self.phase_retrievals().items():
            report[f"phase:{phase}"] = retrievals
        total_ms = 0.0
        for phase, duration_ms in self.phase_durations_ms().items():
            report[f"duration_ms:{phase}"] = duration_ms
            total_ms += duration_ms
        report["duration_ms"] = total_ms
        if self._backend:
            report["compile_ms"] = self._compile_ms
            report["backend"] = self._backend
            report["plan_bytes"] = self._plan_bytes
        if self._predicted_method:
            report["predicted_method"] = self._predicted_method
            report["predicted_bound"] = self._predicted_bound
            if self._predicted_bound is not None:
                report["bound_violated"] = (
                    self.counter.retrievals > self._predicted_bound
                )
        if goals:
            report["goals"] = goals
            report["retrievals_per_goal"] = self.counter.retrievals / goals
        return report


class ServiceMetrics:
    """Lifetime totals for one :class:`SolverService`.

    Counter mutations go through the ``record_*`` methods so every
    update happens under ``_lock``; ``batch_latency`` has its own lock
    and is observed *outside* this one, keeping the lock-acquisition
    graph free of a ServiceMetrics -> LatencyHistogram edge.
    """

    __slots__ = (
        "_lock",
        "batches",
        "goals",
        "retrievals",
        "compiles",
        "invalidations",
        "plans_maintained",
        "maintenance_fallbacks",
        "maintenance_facts_touched",
        "maintenance_overdeleted",
        "maintenance_rederived",
        "maintenance_retrievals",
        "bound_checks",
        "bound_violations",
        "batch_latency",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self.batches = 0  # guarded-by: _lock
        self.goals = 0  # guarded-by: _lock
        self.retrievals = 0  # guarded-by: _lock
        self.compiles = 0  # guarded-by: _lock
        self.invalidations = 0  # guarded-by: _lock
        # Incremental plan maintenance: how many cached plans were
        # updated in place, how many had to be dropped instead, and the
        # aggregated MaintenanceReport phase counters.
        self.plans_maintained = 0  # guarded-by: _lock
        self.maintenance_fallbacks = 0  # guarded-by: _lock
        self.maintenance_facts_touched = 0  # guarded-by: _lock
        self.maintenance_overdeleted = 0  # guarded-by: _lock
        self.maintenance_rederived = 0  # guarded-by: _lock
        self.maintenance_retrievals = 0  # guarded-by: _lock
        # Predicted-vs-actual: batches served with a certified retrieval
        # bound attached, and how many measured above it (a violation
        # indicts the cost analyzer's soundness, never the answers).
        self.bound_checks = 0  # guarded-by: _lock
        self.bound_violations = 0  # guarded-by: _lock
        self.batch_latency = LatencyHistogram()

    def record_batch(
        self, goals: int, retrievals: int, duration_s: float = 0.0
    ) -> None:
        with self._lock:
            self.batches += 1
            self.goals += goals
            self.retrievals += retrievals
        if duration_s:
            self.batch_latency.observe(duration_s)

    def record_compile(self, count: int = 1) -> None:
        with self._lock:
            self.compiles += count

    def record_invalidation(self, count: int = 1) -> None:
        with self._lock:
            self.invalidations += count

    def record_maintenance(
        self, plans: int, totals: Dict[str, int]
    ) -> None:
        """One mutation's in-place maintenance: ``plans`` updated with
        the summed per-plan summary ``totals``."""
        with self._lock:
            self.plans_maintained += plans
            self.maintenance_facts_touched += totals.get("facts_touched", 0)
            self.maintenance_overdeleted += totals.get("overdeleted", 0)
            self.maintenance_rederived += totals.get("rederived", 0)
            self.maintenance_retrievals += totals.get("retrievals", 0)

    def record_maintenance_fallback(self, count: int = 1) -> None:
        with self._lock:
            self.maintenance_fallbacks += count

    def record_bound_check(self, violated: bool) -> None:
        """One batch served with a certified bound attached."""
        with self._lock:
            self.bound_checks += 1
            if violated:
                self.bound_violations += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            report: Dict[str, object] = {
                "batches": self.batches,
                "goals": self.goals,
                "retrievals": self.retrievals,
                "compiles": self.compiles,
                "invalidations": self.invalidations,
                "plans_maintained": self.plans_maintained,
                "maintenance_fallbacks": self.maintenance_fallbacks,
                "maintenance_facts_touched": self.maintenance_facts_touched,
                "maintenance_overdeleted": self.maintenance_overdeleted,
                "maintenance_rederived": self.maintenance_rederived,
                "maintenance_retrievals": self.maintenance_retrievals,
                "bound_checks": self.bound_checks,
                "bound_violations": self.bound_violations,
            }
        for key, value in self.batch_latency.summary().items():
            report[f"batch_{key}"] = value
        return report

    def __repr__(self):
        with self._lock:
            batches, goals, retrievals = self.batches, self.goals, self.retrievals
        return (
            f"ServiceMetrics(batches={batches}, goals={goals}, "
            f"retrievals={retrievals})"
        )
