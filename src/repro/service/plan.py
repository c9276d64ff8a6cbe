"""Compiled plans: the reusable Step-1/compile-time half of a query.

The paper's methods split naturally into a *compile* phase (recognize
the CSL shape, materialize the ``L``/``E``/``R`` relations, analyze the
magic graph) and an *execute* phase (run a fixpoint for one source).
Everything in the compile phase is independent of the bound constant of
the goal, so a server answering ``?- P(a_i, Y)`` for thousands of
``a_i`` should pay for it once.  A :class:`CompiledPlan` is that
cached half:

* the materialized pair sets (conjunctions of derived predicates are
  evaluated once, at compile time);
* one base :class:`~repro.core.csl.CSLQuery` per pair-set version,
  which owns what is built from the pair sets: the adjacency index
  (:mod:`repro.core.graph_index`) every per-source analysis walks and
  every execution reads — built once, and succeeded by a patched index
  (with its condensation, when the delta keeps it) at every later
  version — :meth:`CompiledPlan.query_for` only swaps the source in;
* one memoized :class:`SourceDecision` per source — the row the cost
  analyzer recommends, every row's certified bound and the class of the
  magic graph the source reaches, which is all a batch reads of a cost
  report (uncharged analysis, one region walk) — so the service can
  choose a method and refuse (or fall back from) a certifiably
  divergent counting plan *before* any fixpoint starts.

Plans used to be immutable with respect to the database state they
were compiled from — the owning :class:`SolverService` discarded them
on every mutation.  They now carry a :class:`PlanMaintainer`: a
deletion-capable incremental view over the ``L``/``E``/``R``
materialization (:mod:`repro.datalog.maintenance`), so an EDB fact
insert or delete patches the base query's pair sets and succeeds its
index, via :meth:`CompiledPlan.maintain` instead of forcing a
recompile.  Plans
whose program falls outside the supported maintenance fragment get no
maintainer; :meth:`maintain` raises :class:`MaintenanceError` and the
service falls back to invalidation (recorded in its metrics, never
silently wrong).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, NamedTuple, Optional, Set, Tuple

from ..analysis import cost as cost_analysis
from ..analysis.static.safety import (
    SafetyCertificate,
    certify_relation,
    certify_source,
)
# Re-exported only for the benchmark's ``core.classification.classify``
# probe: benchmarks/e2e/tracing.py resolves
# ``repro.service.plan.classify_nodes`` at start-up.  Nothing in the
# service calls it (the metric reads 0.0, "a layer that never ran"); a
# later ``benchmark`` PR removes the probe and this line together.
# ``CompiledPlan.optimization`` below is the same kind of line.
from ..core.classification import MagicGraphClass, classify_nodes  # noqa: F401
from ..core.csl import CSLQuery, Pair, row_to_pair
from ..datalog.database import Database
from ..datalog.linear import (
    PART_PREDICATES,
    LinearRecursion,
    analyze_linear,
    part_rules,
)
from ..datalog.maintenance import MaintenanceState
from ..datalog.program import Program
from ..datalog.relation import CostCounter
from ..errors import MaintenanceError, ReproError
from .fingerprint import pairs_fingerprint, program_fingerprint

#: sources held by the per-source memo before the oldest is evicted: a
#: region the analyzer is willing to walk is a pool the plan is willing
#: to remember
_SOURCE_MEMO_LIMIT = cost_analysis.DEFAULT_NODE_BUDGET

#: zero-delta summary returned by :meth:`CompiledPlan.maintain` when the
#: plan has nothing database-dependent to update
_EMPTY_MAINTENANCE = {
    "facts_touched": 0,
    "overdeleted": 0,
    "rederived": 0,
    "rounds": 0,
    "retrievals": 0,
    "pairs_added": 0,
    "pairs_removed": 0,
}


class PlanMaintainer:
    """Incremental maintenance of a plan's ``L``/``E``/``R`` pair sets.

    Hands the materialization that :meth:`CSLQuery.from_program`
    performs at compile time — the part rules and support rules of
    :func:`~repro.datalog.linear.part_rules`, three maintained IDB
    predicates ``__part_l``/``__part_e``/``__part_r`` — as one program to a
    :class:`~repro.datalog.maintenance.MaintenanceState` over a private
    copy of the database.  :meth:`apply` then translates an EDB fact
    delta into pair-set deltas for each part.

    Construction raises (``ReproError``) when the program is outside
    the maintenance fragment; callers treat that as "this plan cannot
    be maintained" and fall back to invalidation.

    Thread-safety: the private database mirror and its maintenance
    state are guarded by ``_lock`` (checked by ``repro lint-py``);
    :meth:`pairs` and :meth:`apply` take it.  Lock order:
    ``CompiledPlan.exec_lock`` → ``PlanMaintainer._lock`` →
    ``MaintenanceState._lock``, acquired strictly in that direction.
    """

    def __init__(
        self,
        program: Program,
        analysis: LinearRecursion,
        database: Database,
    ):
        support, parts = part_rules(program, analysis)
        self._splits = {part: split for part, split, _rule in parts}
        # A private copy: maintenance must stay exact under churn, so the
        # service's live database (mutated first, possibly rolled back)
        # is mirrored here through apply() only.
        self._lock = threading.Lock()
        self.database = database.copy(CostCounter())  # guarded-by: _lock
        maintained = Program(support + [rule for _part, _split, rule in parts])
        self.state = MaintenanceState(maintained, self.database)  # guarded-by: _lock

    def pairs(self, part: str) -> Set[Pair]:
        """The current pair set of one part (uncharged structural read)."""
        predicate = PART_PREDICATES[part]
        split = self._splits[part]
        with self._lock:
            if not self.database.has_relation(predicate):
                return set()
            return {
                row_to_pair(row, split)
                for row in self.database.relation(predicate)
            }

    def apply(self, inserts, deletes):
        """Apply an EDB delta; returns ``(report, part_deltas)`` where
        ``part_deltas[part] = (added_pairs, removed_pairs)``."""
        with self._lock:
            report = self.state.apply(inserts=inserts, deletes=deletes)
        part_deltas: Dict[str, Tuple[Set[Pair], Set[Pair]]] = {}
        for part, predicate in PART_PREDICATES.items():
            split = self._splits[part]
            part_deltas[part] = (
                {
                    row_to_pair(row, split)
                    for row in report.added.get(predicate, ())
                },
                {
                    row_to_pair(row, split)
                    for row in report.removed.get(predicate, ())
                },
            )
        return report, part_deltas


class SourceDecision(NamedTuple):
    """What a batch reads of one source's cost report — the plan
    remembers this projection, not the report."""

    #: the :data:`~repro.core.methods.METHODS` row the report recommends
    method: str
    #: row name -> certified retrieval bound (None: the analyzer abstained)
    bounds: Dict[str, Optional[int]]
    #: class of the magic graph reachable from the source — counting
    #: diverges exactly when it is CYCLIC (Proposition 1(c)); None when
    #: the region was widened past the node budget and nothing is proved
    graph_class: Optional[MagicGraphClass]


class CompiledPlan:
    """The compiled, source-independent artifacts of one CSL program."""

    # Benchmark-compat shim: read only by the benchmark's replay
    # (benchmarks/e2e/layers.py, ``service.plan.optimize_ms`` — reads
    # 0.0, "a layer that never ran"); item 1's benchmark-only PR removes
    # the probe and this line together.
    optimization = None

    def __init__(
        self,
        query: CSLQuery,
        fingerprint: str,
        database_fp: str = "",
        db_version: int = 0,
        compile_seconds: float = 0.0,
        maintainer: Optional[PlanMaintainer] = None,
        database_dependent: bool = True,
        backend: str = "set",
    ):
        # The base query — the pair sets and, built on first use, their
        # adjacency index — is replaced atomically (one new CSLQuery)
        # under exec_lock by maintain(); readers see either the old or
        # the new triple, and never an index older than its pair sets.
        self._query = query
        self.default_source = query.source
        self.fingerprint = fingerprint
        self.database_fp = database_fp
        self.db_version = db_version
        self.compile_seconds = compile_seconds
        # Storage backend of the database this plan was compiled from
        # ("set" or "columnar") — recorded for observability; the base
        # query reads no backend.
        self.backend = backend
        # Maintenance: present only when the source program is inside
        # the supported fragment; None means maintain() must fall back.
        self.maintainer = maintainer
        # Plans compiled from explicit pair sets (compile_query_plan)
        # carry no database-derived state: maintain() only re-stamps
        # their version.
        self.database_dependent = database_dependent
        # The per-source memo is filled lazily from whichever worker
        # thread first asks.  _memo_lock guards read, publish and evict
        # only: an analysis runs outside it (see decision), so one
        # worker's cold source never delays another's warm read.
        self._memo_lock = threading.Lock()
        self._decisions: Dict[object, SourceDecision] = {}  # guarded-by: _memo_lock
        # Held by a batch while it executes query_for() queries, and by
        # maintain() while it replaces the query they read: a batch
        # finishes on the state it started on.  (Charging needs no lock:
        # every batch charges a CSLQuery.instance of its own.)
        self.exec_lock = threading.Lock()

    # --- incremental maintenance --------------------------------------

    def maintain(
        self,
        inserts,
        deletes,
        new_db_version: int,
        new_database_fp: Optional[str] = None,
    ) -> Dict[str, int]:
        """Apply an EDB fact delta to this plan *in place*.

        Updates the materialized pair sets (and succeeds their index),
        clears the pair-dependent decision memo, and re-stamps the
        plan's database version, all under the execution
        lock — a concurrently executing batch either finishes on the old
        state or starts on the new one.  Returns the flat maintenance
        summary (``facts_touched``/``overdeleted``/``rederived``/
        ``rounds``/``retrievals``/``pairs_added``/``pairs_removed``).

        Raises :class:`~repro.errors.MaintenanceError` when the plan has
        no maintainer (program outside the supported fragment) — the
        caller must fall back to dropping the plan.
        """
        with self.exec_lock:
            if not self.database_dependent:
                # Nothing materialized from the database: the pair sets
                # came in explicitly, so only the version moves.
                self.db_version = new_db_version
                if new_database_fp is not None:
                    self.database_fp = new_database_fp
                return dict(_EMPTY_MAINTENANCE)
            if self.maintainer is None:
                raise MaintenanceError(
                    f"plan {self.fingerprint} has no maintainer; its "
                    "program is outside the supported maintenance fragment"
                )
            report, part_deltas = self.maintainer.apply(inserts, deletes)
            deltas = {
                part: delta for part, delta in part_deltas.items() if any(delta)
            }
            if deltas:
                # A new base query: its index is the old one's
                # successor — the old index is left as it is, for a
                # fill still walking it.  The
                # memoized decisions are stale with the old query (they
                # are graph analyses of the pair sets); swapping the
                # query under the memo lock is what lets a fill that
                # started on the old one see that it must not publish.
                patched = self._query.patched(**deltas)
                with self._memo_lock:
                    self._query = patched
                    self._decisions.clear()
            self.db_version = new_db_version
            if new_database_fp is not None:
                self.database_fp = new_database_fp
            summary = dict(report.summary())
            summary["pairs_added"] = sum(
                len(added) for added, _removed in deltas.values()
            )
            summary["pairs_removed"] = sum(
                len(removed) for _added, removed in deltas.values()
            )
            return summary

    def query_for(self, source) -> CSLQuery:
        """The plan's query asked from one source: its pair sets, their
        one adjacency index (analysis, and execution under
        :attr:`exec_lock`)."""
        return self._query.with_source(source)

    # --- cost bounds ---------------------------------------------------

    def decision(self, source) -> SourceDecision:
        """The memoized :class:`SourceDecision` for one bound source:
        the projection of :meth:`cost_report` a batch reads (uncharged
        graph analysis over the plan's index; one
        :func:`~repro.analysis.cost.analyze_cost_query` per miss), in
        the plan's one per-source memo, which evicts its oldest entry
        beyond :data:`_SOURCE_MEMO_LIMIT` and is cleared by
        :meth:`maintain`, so certified bounds and the graph class always
        describe the pair sets a batch actually executes against.

        The analysis runs *outside* ``_memo_lock`` and is published
        under it, first writer wins: it is a pure function of the pair
        sets, so a duplicate computed by a racing thread is benign, and
        a result for pair sets :meth:`maintain` has since replaced is
        returned to its caller but never published.
        """
        with self._memo_lock:
            cached = self._decisions.get(source)
            query = self._query
        if cached is None:
            cached = _decide(query.with_source(source))
            with self._memo_lock:
                if self._query is query:
                    cached = self._decisions.setdefault(source, cached)
                    if len(self._decisions) > _SOURCE_MEMO_LIMIT:
                        del self._decisions[next(iter(self._decisions))]
        return cached

    def cost_report(self, source):
        """The full :class:`~repro.analysis.cost.CostReport` for one
        bound source, computed on demand (tests, the REPL's ``.plan``,
        ``repro analyze`` — the serve path reads :meth:`decision`)."""
        return cost_analysis.analyze_cost_query(self.query_for(source))

    def cost_certificate(self, source):
        """The per-source :class:`~repro.analysis.cost.CostCertificate`
        (of :meth:`cost_report`: computed on demand)."""
        return self.cost_report(source).certificate

    # --- static safety -------------------------------------------------

    @property
    def relation_certificate(self) -> SafetyCertificate:
        """Whole-relation counting-safety certificate, read off the
        index's condensation (one SCC pass, which the index remembers
        and hands to its successor when a delta keeps it — nothing is
        memoized here).

        ``safe`` here means safe from *every* source.  A cyclic ``L``
        downgrades to ``unknown`` and :meth:`counting_certificate`
        decides each goal.
        """
        return certify_relation(self._query.index)

    def counting_certificate(self, source) -> SafetyCertificate:
        """Counting-safety certificate for one bound source, computed on
        demand: it words a refusal (the witness cycle) and decides the
        sources whose :meth:`decision` proves no graph class.

        Pure graph analysis over the plan's index — no relation probes,
        no cost charges, and no fixpoint.
        """
        index = self._query.index
        relation_cert = certify_relation(index)
        if relation_cert.is_safe:
            return relation_cert
        return certify_source(index, source)

    # --- reporting ----------------------------------------------------

    def memory_bytes(self) -> int:
        """Estimated resident bytes of what the base query has built from
        its pair sets (:meth:`CSLQuery.memory_bytes`): O(1), and it
        builds nothing in order to report it."""
        return self._query.memory_bytes()

    def describe(self) -> Dict[str, object]:
        """The plan at a glance, building nothing the plan keeps (the
        counting-safety verdict is certified on a scratch ``L`` index)."""
        return {
            "fingerprint": self.fingerprint,
            "database_fp": self.database_fp,
            "db_version": self.db_version,
            "l_pairs": len(self._query.left),
            "e_pairs": len(self._query.exit),
            "r_pairs": len(self._query.right),
            "default_source": self.default_source,
            "counting_safety": certify_relation(self._query.left).verdict,
            "backend": self.backend,
            "memory_bytes": self.memory_bytes(),
            "compile_ms": self.compile_seconds * 1000.0,
            "maintainable": (
                not self.database_dependent or self.maintainer is not None
            ),
        }

    def __repr__(self):
        return (
            f"CompiledPlan({self.fingerprint}@v{self.db_version}, "
            f"|L|={len(self._query.left)}, |E|={len(self._query.exit)}, "
            f"|R|={len(self._query.right)})"
        )


def _decide(query: CSLQuery) -> SourceDecision:
    # Resolved through the module at call time: the cost analyzer's
    # entry point is what a memo miss calls, and what a tracer wraps.
    report = cost_analysis.analyze_cost_query(query)
    return SourceDecision(
        report.recommendation.method,
        {name: entry.bound for name, entry in report.certificate.bounds.items()},
        report.certificate.graph_class,
    )


def compile_program_plan(
    program, database, db_version: int = 0
) -> CompiledPlan:
    """Compile a CSL-shaped Datalog program against ``database``.

    Runs the full recognition/materialization pipeline of
    :meth:`CSLQuery.from_program` — derived ``L``/``E``/``R``
    conjunctions are evaluated here, once, rather than per goal.
    Raises :class:`~repro.errors.NotCSLError` outside the class.
    """
    started = time.perf_counter()
    analysis = analyze_linear(program)
    query = CSLQuery.from_program(
        program, analysis=analysis, database=database
    )
    maintainer: Optional[PlanMaintainer] = None
    try:
        maintainer = PlanMaintainer(program, analysis, database)
    except ReproError:
        # Outside the maintenance fragment (unsafe part rule, seeded
        # IDB, ...): the plan still compiles, it just cannot be
        # maintained — mutations will drop it instead.
        maintainer = None
    if maintainer is not None and (
        maintainer.pairs("left") != query.left
        or maintainer.pairs("exit") != query.exit
        or maintainer.pairs("right") != query.right
    ):
        # Defense in depth: the maintained materialization must agree
        # with from_program's before we trust it under churn.
        maintainer = None
    return CompiledPlan(
        query,
        fingerprint=program_fingerprint(program),
        db_version=db_version,
        compile_seconds=time.perf_counter() - started,
        maintainer=maintainer,
        backend=database.backend,
    )


def compile_query_plan(query: CSLQuery, db_version: int = 0) -> CompiledPlan:
    """Compile a plan directly from a :class:`CSLQuery` instance."""
    started = time.perf_counter()
    return CompiledPlan(
        query,
        fingerprint=pairs_fingerprint(query.left, query.exit, query.right),
        db_version=db_version,
        compile_seconds=time.perf_counter() - started,
        database_dependent=False,
    )
