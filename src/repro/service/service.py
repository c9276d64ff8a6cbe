"""The batch solver service: compile once, execute per batch.

A :class:`SolverService` owns one :class:`~repro.datalog.database.Database`
and serves batches of bound goals ``?- P(a_i, Y)`` against it.  The
serving loop is a strict compile/execute split:

* **compile** — recognize the CSL shape, materialize ``L``/``E``/``R``
  into one base query (:mod:`repro.service.plan`).  Compiled plans
  are cached in an LRU (:mod:`repro.service.cache`) keyed by
  ``(program fingerprint, database version)``;
* **execute** — answer the whole batch on the cached plan: either
  sharing the reachability sweep and the ``P_M`` fixpoint across sources
  (:func:`~repro.core.magic_method.union_magic_set` +
  :func:`~repro.core.magic_method.magic_fixpoint`), so a value
  reachable from many sources is expanded once per *batch*, not once
  per *goal* — or running any row of the method table
  (:data:`repro.core.methods.METHODS`) once per source.

Every database mutation goes through the service (``add_fact`` /
``add_facts`` / ``add_atom`` / ``remove_fact`` / ``remove_facts`` /
:meth:`SolverService.mutate`): it bumps the database version and then
*maintains* every cached plan in place — the incremental counting/DRed
engine (:mod:`repro.datalog.maintenance`) translates the fact delta
into pair-set deltas on each plan's materialized ``L``/``E``/``R``
relations, so single-fact churn costs a handful of retrievals instead
of a recompile.  A plan whose program is outside the supported
maintenance fragment is dropped instead (recorded in the
``maintenance_fallbacks`` metric) — either way a served answer can
never be computed from stale compiled artifacts.

The service is safe to share between threads — the network serving
layer executes overlapping batches from a worker pool while mutations
arrive from other connections.  A service-wide lock makes the
version-bump + invalidate sequence and the cache lookup/compile path
atomic, and :meth:`solve_batch` re-checks the plan's version at
execute time (after acquiring the plan's execution lock): a mutation
that lands between the cache lookup and the start of execution forces
a recompile instead of answering from the invalidated plan.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from ..core.classification import MagicGraphClass
from ..core.cost import AnswerResult
from ..core.csl import CSLQuery
from ..core.magic_method import magic_fixpoint, union_magic_set
from ..core.methods import METHODS, Method
from ..datalog.database import Database
from ..datalog.program import Program
from ..datalog.relation import CostCounter
from ..errors import EvaluationError, ReproError, UnsafeQueryError
from .cache import PlanCache
from .fingerprint import database_fingerprint, target_fingerprint
from .metrics import BatchMetrics, ServiceMetrics
from .plan import CompiledPlan, compile_program_plan, compile_query_plan

#: The two methods that are the service's own.  ``shared_magic`` is one
#: union sweep plus one ``P_M`` fixpoint for the whole batch: the magic
#: set method started from every source at once, which is why the
#: certified bound that predicts it is that row's, summed over the
#: sources.  ``adaptive`` chooses between it and a table row.
SHARED_MAGIC, ADAPTIVE = "shared_magic", "adaptive"
_SHARED_MAGIC_BOUND = METHODS["magic_set"].name

#: Every ``method`` a batch accepts: the two above, then the method
#: table's rows, each run once per source.  A tuple, so that membership
#: of an unhashable wire value is False instead of a ``TypeError``.
BATCH_METHODS = (SHARED_MAGIC, ADAPTIVE, *METHODS)

PlanTarget = Union[Program, CSLQuery]


@dataclass
class MutationResult:
    """What one :meth:`SolverService.mutate` call did.

    ``changed`` counts the EDB facts that actually changed (inserting a
    present tuple or deleting an absent one is a no-op and does not bump
    the version).  ``plans_maintained``/``plans_invalidated`` split the
    cached plans into those updated in place and those dropped because
    maintenance could not (or must not) proceed; ``maintenance`` is the
    summed per-plan phase summary (``facts_touched``, ``overdeleted``,
    ``rederived``, ``rounds``, ``retrievals``, ``pairs_added``,
    ``pairs_removed``).
    """

    changed: int
    db_version: int
    plans_maintained: int = 0
    plans_invalidated: int = 0
    maintenance: Dict[str, int] = field(default_factory=dict)

    def __repr__(self):
        return (
            f"MutationResult(changed={self.changed}, "
            f"db_version={self.db_version}, "
            f"maintained={self.plans_maintained}, "
            f"invalidated={self.plans_invalidated})"
        )


@dataclass
class BatchResult:
    """The outcome of serving one batch of bound goals.

    ``answers`` maps each requested source to its answer set; ``cost``
    observed the whole batch (compile charges excluded — compilation is
    amortized across batches and reported separately); ``metrics`` is
    the :meth:`BatchMetrics.summary` phase breakdown.
    """

    answers: Dict[object, FrozenSet]
    method: str
    plan: CompiledPlan
    cache_hit: bool
    cost: CostCounter
    metrics: Dict[str, object] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def retrievals(self) -> int:
        return self.cost.retrievals

    def __repr__(self):
        return (
            f"BatchResult(method={self.method!r}, goals={len(self.answers)}, "
            f"retrievals={self.cost.retrievals}, cache_hit={self.cache_hit})"
        )


class SolverService:
    """A long-lived solver over one database with a compiled-plan cache."""

    def __init__(
        self,
        database: Optional[Database] = None,
        plan_cache_size: int = 8,
        verify_database: bool = False,
        unsafe_fallback: bool = False,
    ):
        """``verify_database`` re-digests the EDB on every cache hit and
        recompiles on mismatch — a paranoia mode for callers that keep a
        handle on the database and may mutate it behind the service's
        back (the version counter only sees mutations routed through
        the service).

        ``unsafe_fallback`` governs what happens when a batch requests
        the counting method on a goal whose compiled plan is statically
        certified counting-unsafe (cyclic magic graph): ``False``
        (default) refuses with :class:`UnsafeQueryError` *before any
        fixpoint starts*; ``True`` silently serves the batch with the
        always-safe shared magic-sets plan instead, recording the
        substitution in ``BatchResult.details['fallback']`` and the
        ``fallbacks`` service metric."""
        self.database = database if database is not None else Database()
        self.plan_cache = PlanCache(plan_cache_size)
        self.metrics = ServiceMetrics()
        self.verify_database = verify_database
        self.unsafe_fallback = unsafe_fallback
        # Reentrant: a verify_database mismatch inside _plan_for calls
        # _mutated while already holding the lock.
        self._lock = threading.RLock()
        self._db_version = 0  # guarded-by: _lock

    # --- database mutation (every write invalidates cached plans) ------

    @property
    def db_version(self) -> int:
        with self._lock:
            return self._db_version

    def add_fact(self, name: str, *values) -> bool:
        """Insert one fact; maintains cached plans when it is new."""
        return bool(self.mutate(inserts={name: [tuple(values)]}).changed)

    def add_facts(self, name: str, tuples: Iterable[Tuple]) -> int:
        """Bulk insert; maintains cached plans when anything was new."""
        return self.mutate(inserts={name: list(tuples)}).changed

    def add_atom(self, atom) -> bool:
        if not atom.is_ground():
            raise EvaluationError(f"cannot store non-ground atom {atom}")
        return self.add_fact(atom.predicate, *(t.value for t in atom.terms))

    def remove_fact(self, name: str, *values) -> bool:
        """Delete one fact; maintains cached plans when it was present."""
        return bool(self.mutate(deletes={name: [tuple(values)]}).changed)

    def remove_facts(self, name: str, tuples: Iterable[Tuple]) -> int:
        """Bulk delete; maintains cached plans for the present ones."""
        return self.mutate(deletes={name: list(tuples)}).changed

    def mutate(
        self,
        inserts: Optional[Dict[str, Iterable[Tuple]]] = None,
        deletes: Optional[Dict[str, Iterable[Tuple]]] = None,
    ) -> MutationResult:
        """Apply one EDB delta and bring every cached plan up to date.

        The database is mutated first (no-op tuples filtered out), the
        version bumped once, then each cached plan is either maintained
        in place (:meth:`CompiledPlan.maintain`) and re-keyed to the new
        version — so the very next batch is a cache *hit* — or dropped
        when its program is outside the supported maintenance fragment
        (a :class:`~repro.errors.MaintenanceError`, or any other library
        error, from the maintainer).
        """
        with self._lock:
            applied_ins: Dict[str, List[Tuple]] = {}
            applied_dels: Dict[str, List[Tuple]] = {}
            try:
                for name, rows in (inserts or {}).items():
                    for row in rows:
                        if self.database.add_fact(name, *row):
                            applied_ins.setdefault(name, []).append(
                                tuple(row)
                            )
                for name, rows in (deletes or {}).items():
                    for row in rows:
                        if self.database.remove_fact(name, *row):
                            applied_dels.setdefault(name, []).append(
                                tuple(row)
                            )
            except Exception:
                # Mid-bulk failure (arity mismatch, ...): restore the
                # facts already applied so the delta is all-or-nothing.
                for name, rows in applied_ins.items():
                    for row in rows:
                        self.database.remove_fact(name, *row)
                for name, rows in applied_dels.items():
                    for row in rows:
                        self.database.add_fact(name, *row)
                raise
            changed = sum(len(r) for r in applied_ins.values()) + sum(
                len(r) for r in applied_dels.values()
            )
            if not changed:
                return MutationResult(changed=0, db_version=self._db_version)
            self._db_version += 1
            new_fp = (
                database_fingerprint(self.database)
                if self.verify_database
                else None
            )
            maintained = 0
            invalidated = 0
            totals: Dict[str, int] = {}
            for key, plan in self.plan_cache.entries():
                try:
                    summary = plan.maintain(
                        applied_ins,
                        applied_dels,
                        self._db_version,
                        new_database_fp=new_fp,
                    )
                except ReproError:
                    # Unsupported fragment (no maintainer, IDB predicate
                    # mutated, inconsistent counts, ...): never serve a
                    # possibly-wrong plan — drop it and recompile later.
                    self.plan_cache.discard(key)
                    invalidated += 1
                    continue
                self.plan_cache.replace(
                    key, (key[0], self._db_version), plan
                )
                maintained += 1
                for field_name, value in summary.items():
                    totals[field_name] = totals.get(field_name, 0) + value
            if maintained:
                self.metrics.record_maintenance(maintained, totals)
            if invalidated:
                self.metrics.record_maintenance_fallback(invalidated)
                self.metrics.record_invalidation(invalidated)
            return MutationResult(
                changed=changed,
                db_version=self._db_version,
                plans_maintained=maintained,
                plans_invalidated=invalidated,
                maintenance=totals,
            )

    def invalidate_plans(self) -> int:
        """Explicitly drop every cached plan (e.g. after out-of-band
        database edits the service could not observe)."""
        with self._lock:
            return self._invalidate_locked()

    def _mutated(self) -> None:
        with self._lock:
            self._invalidate_locked()

    def _invalidate_locked(self) -> int:
        """Version bump + full cache drop + metrics, the one shared
        invalidation path (explicit and verify-mismatch both land
        here)."""
        self._db_version += 1
        dropped = self.plan_cache.invalidate()
        self.metrics.record_invalidation()
        return dropped

    # --- compilation ----------------------------------------------------

    def _plan_key_locked(self, target: PlanTarget):
        return (target_fingerprint(target), self._db_version)

    def compile(self, target: PlanTarget) -> CompiledPlan:
        """The cached plan for ``target``, compiling on a miss."""
        plan, _hit = self._plan_for(target)
        return plan

    def _plan_for(self, target: PlanTarget) -> Tuple[CompiledPlan, bool]:
        # The whole lookup/compile/insert sequence is atomic: two
        # threads racing a miss would otherwise compile the same plan
        # twice and interleave with a concurrent version bump.
        with self._lock:
            key = self._plan_key_locked(target)
            plan = self.plan_cache.get(key)
            if plan is not None and self.verify_database:
                if database_fingerprint(self.database) != plan.database_fp:
                    # Out-of-band edit: the content digest moved without
                    # a version bump.  Drop every plan and recompile.
                    self._mutated()
                    key = (key[0], self._db_version)
                    plan = None
            if plan is not None:
                return plan, True
            if isinstance(target, CSLQuery):
                plan = compile_query_plan(target, db_version=self._db_version)
            else:
                plan = compile_program_plan(
                    target, self.database, db_version=self._db_version
                )
            if self.verify_database:
                # The digest exists only where the check above reads it
                # (mutate() refreshes it under the same flag).
                plan.database_fp = database_fingerprint(self.database)
            self.plan_cache.put(key, plan)
            self.metrics.record_compile()
            return plan, False

    # --- serving --------------------------------------------------------

    def solve_batch(
        self,
        target: PlanTarget,
        sources: Optional[Iterable] = None,
        method: str = SHARED_MAGIC,
    ) -> BatchResult:
        """Answer one batch of bound goals on the compiled plan.

        When ``sources`` is omitted the batch is the single source bound
        in *this* target's goal — never the goal that happened to
        compile the cached plan (plans are shared across every bound
        constant of the same query shape).

        ``method`` is one of :data:`BATCH_METHODS`:

        * ``"shared_magic"`` (default) — one union reachability sweep
          plus one shared ``P_M`` fixpoint for the whole batch; safe on
          every input and the amortized winner for large batches;
        * any name of :data:`repro.core.methods.METHODS` — that row, run
          once per source on the batch's counter.  A row that terminates
          only on an acyclic magic graph (``needs_acyclic``:
          ``"counting"``, ``"henschen_naqvi"``) is refused with
          :class:`UnsafeQueryError` before any fixpoint starts when a
          goal's plan is statically certified counting-unsafe — or
          served via shared magic instead when the service was built
          with ``unsafe_fallback=True``;
        * ``"adaptive"`` — shared magic for more than one source; for a
          single source the row :func:`~repro.core.methods.
          recommended_plan` ranks first on the source's cost
          certificate (the library's policy, read from the plan's
          memoized decision that ``predicted_bound`` reads anyway).
        """
        if method not in BATCH_METHODS:
            raise EvaluationError(
                f"unknown batch method {method!r}; expected one of "
                f"{', '.join(BATCH_METHODS)}"
            )
        started = time.perf_counter()
        for _attempt in range(8):
            plan, cache_hit = self._plan_for(target)
            if sources is None:
                source = _target_source(target)
                # plan.default_source is only a last resort for
                # anchor-less targets; a cached plan may have been
                # compiled from a goal with a different bound constant.
                source_list: List = [
                    source if source is not None else plan.default_source
                ]
            else:
                # One goal per distinct source, in the order given.
                source_list = list(dict.fromkeys(sources))
            chosen = method
            if method == ADAPTIVE:
                # The one rule that is the service's own: a batch shares
                # one P_M fixpoint; a row runs per source (counting's
                # indices are per source, though its retrievals could be
                # shared).  Crossover: benchmarks/test_multi_source.py.
                chosen = SHARED_MAGIC
                if len(source_list) == 1:
                    chosen = plan.decision(source_list[0]).method
            fallback_details: Dict[str, object] = {}
            row = METHODS.get(chosen)
            if row is not None and row.needs_acyclic:
                # Static gate: the graph class on the plan's memoized
                # decisions decides termination before any fixpoint
                # starts; the certificate is computed to word a refusal.
                # The runtime repeated-frontier check in level_frontiers
                # stays as defense in depth, but a certified-unsafe goal
                # never reaches it.
                unsafe = [
                    source
                    for source in source_list
                    if _counting_unsafe(plan, source)
                ]
                if unsafe:
                    certificate = plan.counting_certificate(unsafe[0])
                    if not self.unsafe_fallback:
                        raise UnsafeQueryError(
                            f"{chosen} refused by static certification: "
                            + certificate.describe()
                        )
                    self.metrics.record_fallback()
                    fallback_details["fallback"] = {
                        "from": chosen,
                        "to": SHARED_MAGIC,
                        "reason": certificate.describe(),
                        "unsafe_sources": unsafe,
                    }
                    chosen, row = SHARED_MAGIC, None
            bound_method = _SHARED_MAGIC_BOUND if row is None else chosen
            predicted = self._predicted_bound(plan, bound_method, source_list)
            counter = CostCounter()
            metrics = BatchMetrics(counter)
            metrics.record_plan(
                plan.compile_seconds, plan.backend, plan.memory_bytes()
            )
            metrics.record_predicted(bound_method, predicted)
            with plan.exec_lock:
                # Execute-time version check: a concurrent mutation may
                # have invalidated this plan between the cache lookup
                # and here (the plan's execution lock was possibly held
                # by another batch while the write landed).  A stale
                # plan is never executed — recompile and retry.
                # Deliberately unlocked peek: a stale read costs one
                # extra retry, and _plan_for re-checks under the lock.
                if plan.db_version != self._db_version:  # race-ok: benign stale read
                    continue
                if row is None:
                    answers, details = _execute_shared_magic(
                        plan, source_list, counter, metrics
                    )
                else:
                    answers, details = _execute_row(
                        row, plan, source_list, counter, metrics
                    )
            break
        else:
            raise EvaluationError(
                "batch starved: the database was mutated concurrently on "
                "every execution attempt"
            )
        details.update(fallback_details)
        if predicted is not None:
            details["predicted_bound"] = predicted
            details["bound_violated"] = counter.retrievals > predicted
            self.metrics.record_bound_check(counter.retrievals > predicted)
        self.metrics.record_batch(
            len(source_list),
            counter.retrievals,
            time.perf_counter() - started,
        )
        return BatchResult(
            answers=answers,
            method=chosen,
            plan=plan,
            cache_hit=cache_hit,
            cost=counter,
            metrics=metrics.summary(goals=len(source_list)),
            details=details,
        )

    def solve(
        self,
        target: PlanTarget,
        source=None,
        method: str = ADAPTIVE,
    ) -> AnswerResult:
        """Single-goal convenience wrapper over :meth:`solve_batch`."""
        sources = None if source is None else [source]
        batch = self.solve_batch(target, sources, method=method)
        (answer_source,) = batch.answers
        return AnswerResult(
            answers=batch.answers[answer_source],
            method=f"service_{batch.method}",
            cost=batch.cost,
            details={
                "cache_hit": batch.cache_hit,
                "plan": batch.plan.fingerprint,
                **batch.details,
            },
        )

    def _predicted_bound(
        self, plan: CompiledPlan, bound_method: str, sources: List
    ) -> Optional[int]:
        """The summed certified retrieval bound of table row
        ``bound_method`` for the batch, or None.

        Per-goal bounds come from the plan's memoized decisions; the
        sum over sources is sound for the shared fixpoint
        because every charge in the union run is accounted to at least
        one source whose magic region contains the charged node (the
        regions are L-forward-closed).  Any abstaining goal abstains
        the whole batch.
        """
        total = 0
        for source in sources:
            bound = plan.decision(source).bounds.get(bound_method)
            if bound is None:
                return None
            total += bound
        return total

    def stats(self) -> Dict[str, object]:
        """Service totals plus plan-cache counters, as one flat dict."""
        with self._lock:
            report: Dict[str, object] = {"db_version": self._db_version}
        report.update(self.metrics.snapshot())
        for key, value in self.plan_cache.stats().items():
            report[f"cache:{key}"] = value
        return report

    def __repr__(self):
        with self._lock:
            version = self._db_version
        return (
            f"SolverService(db_version={version}, "
            f"batches={self.metrics.snapshot()['batches']}, "
            f"cache={self.plan_cache!r})"
        )


def _target_source(target: PlanTarget):
    """The bound constant(s) of ``target``'s own goal, or None.

    Mirrors :meth:`CSLQuery.from_program`'s source extraction (constant
    goal positions are the bound positions), but without compiling —
    the source must come from the target at hand even when the plan
    cache already holds a plan compiled from a different goal constant.
    """
    if isinstance(target, CSLQuery):
        return target.source
    goal = getattr(target, "query", None)
    if goal is None:
        return None
    constants = tuple(term.value for term in goal.terms if term.is_constant)
    if not constants:
        return None
    return constants[0] if len(constants) == 1 else constants


def _counting_unsafe(plan: CompiledPlan, source) -> bool:
    """Would the counting fixpoint diverge from ``source``?  The magic
    graph it reaches holds a cycle (Proposition 1(c)) — the class on the
    plan's decision; a region widened past the analyzer's node budget
    has no class, and the safety certificate walks it whole."""
    graph_class = plan.decision(source).graph_class
    if graph_class is None:
        return plan.counting_certificate(source).is_unsafe
    return graph_class is MagicGraphClass.CYCLIC


def _execute_shared_magic(
    plan: CompiledPlan, sources: List, counter: CostCounter, metrics: BatchMetrics
):
    """One union sweep + one shared ``P_M`` fixpoint for the batch."""
    instance = plan.query_for(plan.default_source).instance(counter)
    magic = union_magic_set(instance, sources)
    metrics.mark("reachability")
    pm = magic_fixpoint(instance, magic)
    metrics.mark("fixpoint")
    answers = {source: frozenset(pm.get(source, ())) for source in sources}
    details = {"magic_set_size": len(magic), "pm_facts": pm.facts}
    return answers, details


def _execute_row(
    row: Method,
    plan: CompiledPlan,
    sources: List,
    counter: CostCounter,
    metrics: BatchMetrics,
):
    """One run of a method-table row per source, all charged to the
    batch's counter; the phase is named after the row and the details
    are the runs' integer details, summed."""
    answers: Dict[object, FrozenSet] = {}
    details: Dict[str, object] = {}
    for source in sources:
        result = row.run(plan.query_for(source), counter=counter)
        answers[source] = result.answers
        for key, value in result.details.items():
            if type(value) is int:
                details[key] = details.get(key, 0) + value
    metrics.mark(row.name)
    return answers, details
