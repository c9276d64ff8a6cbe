"""Incremental view maintenance: counting + DRed, and the one-shot insert.

The paper's central device is *derivation counting*.  This module turns
it into a maintenance engine: a :class:`MaintenanceState` owns the IDB
of an evaluated database and keeps it exact under arbitrary EDB fact
insertions **and deletions**.

Two regimes, chosen per stratum:

* **Counting** (non-recursive strata) — the state stores, for every
  derived fact, the exact number of rule instantiations deriving it
  (the full-count generalization of the one-proof bookkeeping in
  :mod:`repro.datalog.provenance`).  An EDB delta translates into signed
  count deltas through the telescoping decomposition

  ``Δ(B1 ⋈ … ⋈ Bn) = Σ_i  old(B1…B_{i-1}) ⋈ Δ(B_i) ⋈ new(B_{i+1}…Bn)``

  where the delta of a negated literal flips polarity (a *removed*
  ``q``-tuple makes ``not q`` true, a new one falsifies it).  A fact is
  inserted when its count leaves zero and retracted when it returns to
  zero — no recomputation, no over-deletion.

* **DRed** (recursive strata) — counts are not finite witnesses under
  recursion (a cycle supports itself), so recursive strata use
  delete-and-rederive [GMS93]: over-delete everything with a derivation
  through a deleted fact, re-derive what still has alternative support,
  then propagate insertions semi-naively.

A recursive stratum is materialized by :func:`seminaive_evaluate`, and
both DRed propagations run on the evaluator's delta loop
(:func:`~repro.datalog.evaluation._run_delta_rounds`), so they read a
delta exactly as a fixpoint does: as a ``Δ<pred>`` relation, charged.

Supported fragment: safe, stratified programs (negation across strata
included, builtins included).  Two situations are *rejected* rather
than silently mis-maintained, both with :class:`MaintenanceError`:
IDB relations holding facts the rules do not derive (seeded models),
and direct mutation of an IDB predicate.  Callers — in particular
:class:`repro.service.service.SolverService` — catch the error and fall
back to full recomputation.

:func:`insert_and_maintain` is the stateless one-shot insertion for
negation-free programs: the same delta loop seeded with the new EDB
facts, no state to build.

All reads go through charged relation views, so a
:class:`MaintenanceReport`'s ``retrievals`` is comparable with the
paper's cost unit and with a from-scratch re-evaluation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import EvaluationError, MaintenanceError
from .atom import BuiltinAtom, Literal
from .database import Database
from .evaluation import (
    DEFAULT_MAX_ITERATIONS,
    _arity_map,
    _differentiate,
    _evaluate_body,
    _run_delta_rounds,
    evaluate_rule,
    seminaive_evaluate,
)
from .program import Program
from .relation import Relation
from .rule import Rule
from .stratify import stratify
from .unify import ground_atom_tuple, match_tuple

__all__ = [
    "MaintenanceReport",
    "MaintenanceState",
    "delete_and_maintain",
    "insert_and_maintain",
]


def _matches(pattern: Tuple, tup: Tuple) -> bool:
    return all(p is None or p == v for p, v in zip(pattern, tup))


class _PriorView:
    """A relation as it stood *before* a net ``(added, removed)`` delta.

    Reconstructs the old state on the fly — old = current − added +
    removed — instead of snapshotting whole relations per update.
    Charges the relation's counter like a real relation would.
    """

    __slots__ = ("relation", "added", "removed")

    def __init__(self, relation, added: Set[Tuple], removed: Set[Tuple]):
        self.relation = relation
        self.added = added
        self.removed = removed

    def lookup(self, pattern: Tuple) -> Iterator[Tuple]:
        added = self.added
        for tup in self.relation.lookup(pattern):
            if tup not in added:
                yield tup
        extras = 0
        try:
            for tup in self.removed:
                if _matches(pattern, tup):
                    extras += 1
                    yield tup
        finally:
            self.relation.counter.charge_tuples(self.relation.name, extras)

    def contains(self, tup: Tuple) -> bool:
        tup = tuple(tup)
        counter = self.relation.counter
        if tup in self.removed:
            counter.charge_probe(self.relation.name)
            counter.charge_tuples(self.relation.name, 1)
            return True
        if tup in self.added:
            counter.charge_probe(self.relation.name)
            return False
        return self.relation.contains(tup)


@dataclass
class MaintenanceReport:
    """What one :meth:`MaintenanceState.apply` call did to the database.

    ``added``/``removed`` are the *net* per-predicate fact deltas (EDB
    and IDB alike); ``overdeleted``/``rederived`` count the DRed churn
    in recursive strata; ``rounds`` is one per counting stratum touched
    plus every delta round the DRed propagations ran (the seed round
    included); ``retrievals`` is the tuple-retrieval cost of the whole
    update in the paper's unit.
    """

    added: Dict[str, Set[Tuple]] = field(default_factory=dict)
    removed: Dict[str, Set[Tuple]] = field(default_factory=dict)
    overdeleted: int = 0
    rederived: int = 0
    rounds: int = 0
    retrievals: int = 0

    @property
    def facts_touched(self) -> int:
        return sum(len(s) for s in self.added.values()) + sum(
            len(s) for s in self.removed.values()
        )

    @property
    def changed(self) -> bool:
        return bool(self.added or self.removed)

    def summary(self) -> Dict[str, int]:
        """Flat counters, ready for metrics aggregation."""
        return {
            "facts_touched": self.facts_touched,
            "overdeleted": self.overdeleted,
            "rederived": self.rederived,
            "rounds": self.rounds,
            "retrievals": self.retrievals,
        }


def _validate_delta(
    arities: Dict[str, int],
    idb: Set[str],
    database: Database,
    facts: Dict[str, Iterable[Tuple]],
) -> Dict[str, List[Tuple]]:
    """``facts`` as tuple lists, empty ones dropped, checked before
    anything is stored.

    Mutating an IDB predicate is rejected (it would silently diverge
    from the rules-defined fixpoint), and every tuple must match the
    predicate's arity — from the program when it mentions the
    predicate, from the existing relation otherwise, and tuples within
    one batch must agree with each other.
    """
    cleaned: Dict[str, List[Tuple]] = {}
    for predicate, tuples in facts.items():
        tuples = [tuple(t) for t in tuples]
        if not tuples:
            continue
        if predicate in idb:
            raise EvaluationError(
                f"cannot mutate IDB predicate {predicate!r} directly; "
                "it is maintained from its rules"
            )
        arity = arities.get(predicate)
        if arity is None and database.has_relation(predicate):
            arity = database.relation(predicate).arity
        for tup in tuples:
            if arity is None:
                arity = len(tup)
            if len(tup) != arity:
                raise EvaluationError(
                    f"predicate {predicate!r} expects arity {arity}, "
                    f"got tuple {tup!r}"
                )
        cleaned[predicate] = tuples
    return cleaned


class MaintenanceState:
    """Owns the IDB of ``database`` and keeps it exact under EDB churn.

    Building the state materializes the program's model into the
    database (idempotent when the database is already a fixpoint) and
    records derivation counts for every non-recursive stratum.  After
    that, :meth:`insert`, :meth:`delete`, and :meth:`apply` update the
    IDB in place — including retractions — and report what changed.

    The state must remain the only writer of the database's IDB
    relations; direct EDB mutations bypassing :meth:`apply` invalidate
    the counts (exactly like mutating a database behind a cached plan).

    Thread-safety: the serving layer maintains cached plans from
    whichever worker thread a mutation lands on, so the owned database
    and the derivation counts are guarded by a private lock (the
    ``guarded-by`` annotations are checked by ``repro lint-py``).
    :meth:`apply` takes the lock once for the whole
    validate/propagate/rollback sequence; the ``*_locked`` helpers
    assume it is held.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ):
        program.check_safety()
        self.program = program
        self._lock = threading.Lock()
        self.database = database  # guarded-by: _lock
        self.max_iterations = max_iterations
        self.arities = _arity_map(program)
        self.idb = program.idb_predicates()
        self.strata = stratify(program)
        self._stratum_rules: List[List[Rule]] = []
        #: per stratum, the predicates its rule bodies read
        self._reads: List[Set[str]] = []
        self.recursive: Set[str] = set()
        for stratum in self.strata:
            rules = [r for r in program.rules if r.head.predicate in stratum]
            reads = {
                e.predicate for r in rules for e in r.body if isinstance(e, Literal)
            }
            self._stratum_rules.append(rules)
            self._reads.append(reads)
            if reads & stratum:
                self.recursive |= stratum
        #: exact derivation counts for every non-recursive IDB predicate
        self.counts: Dict[str, Dict[Tuple, int]] = {}  # guarded-by: _lock
        self._materialize_locked()

    # -- construction --------------------------------------------------

    def _materialize_locked(self) -> None:
        """Compute the model, sync it into the database, seed counts."""
        for stratum, rules, reads in zip(
            self.strata, self._stratum_rules, self._reads
        ):
            if stratum & self.recursive:
                # The stratum's fixpoint, computed into a scratch database
                # on the same counter (the database itself is only written
                # after the seeded-IDB check in _sync_relation_locked).
                model = Database(self.database.counter)
                for predicate in reads - stratum:
                    if self.database.has_relation(predicate):
                        lower = self.database.relation(predicate)
                        model.create(predicate, lower.arity).add_all(lower)
                seminaive_evaluate(Program(rules), model, self.max_iterations)
                for predicate in stratum:
                    self._sync_relation_locked(predicate, model.facts(predicate))
            else:
                counts: Dict[str, Dict[Tuple, int]] = {p: {} for p in stratum}
                for rule in rules:
                    items = [
                        (e, self._current_view_locked(e)) for e in rule.body
                    ]
                    per_head = counts[rule.head.predicate]
                    for theta in _evaluate_body(items, {}):
                        tup = ground_atom_tuple(rule.head, theta)
                        per_head[tup] = per_head.get(tup, 0) + 1
                for predicate in stratum:
                    self._sync_relation_locked(predicate, set(counts[predicate]))
                    self.counts[predicate] = counts[predicate]

    def _sync_relation_locked(self, predicate: str, model: Set[Tuple]) -> None:
        relation = self.database.relation_or_empty(
            predicate, self.arities[predicate]
        )
        extra = relation.as_set() - model
        if extra:
            sample = sorted(extra)[:3]
            raise MaintenanceError(
                f"IDB relation {predicate!r} holds {len(extra)} fact(s) the "
                f"rules do not derive (e.g. {sample}); seeded models are "
                "outside the maintenance fragment"
            )
        for tup in model:
            relation.add(tup)

    # -- views ---------------------------------------------------------

    def _current_view_locked(self, element):
        if isinstance(element, BuiltinAtom):
            return None
        return self.database.relation_or_empty(
            element.predicate, len(element.terms)
        )

    def _prior_view_locked(
        self,
        element,
        added: Dict[str, Set[Tuple]],
        removed: Dict[str, Set[Tuple]],
    ):
        if isinstance(element, BuiltinAtom):
            return None
        relation = self.database.relation_or_empty(
            element.predicate, len(element.terms)
        )
        plus = added.get(element.predicate)
        minus = removed.get(element.predicate)
        if not plus and not minus:
            return relation
        return _PriorView(relation, plus or set(), minus or set())

    # -- public API ----------------------------------------------------

    def insert(
        self, new_facts: Dict[str, Iterable[Tuple]]
    ) -> MaintenanceReport:
        """Insert EDB facts and propagate; see :meth:`apply`."""
        return self.apply(inserts=new_facts)

    def delete(
        self, old_facts: Dict[str, Iterable[Tuple]]
    ) -> MaintenanceReport:
        """Delete EDB facts and propagate; see :meth:`apply`."""
        return self.apply(deletes=old_facts)

    def apply(
        self,
        inserts: Optional[Dict[str, Iterable[Tuple]]] = None,
        deletes: Optional[Dict[str, Iterable[Tuple]]] = None,
    ) -> MaintenanceReport:
        """Apply an EDB delta and maintain every IDB relation in place.

        Validates the delta first (IDB predicates rejected, arities
        checked against the program and existing relations).  On *any*
        failure the database and the counts are rolled back to the
        pre-call state, so a failed update never leaves the model
        half-maintained.
        """
        with self._lock:
            ins = _validate_delta(
                self.arities, self.idb, self.database, inserts or {}
            )
            dels = _validate_delta(
                self.arities, self.idb, self.database, deletes or {}
            )
            undo: List[Tuple] = []
            before = self.database.counter.retrievals
            try:
                report = self._apply_locked(ins, dels, undo)
            except Exception:
                self._rollback_locked(undo)
                raise
            report.retrievals = self.database.counter.retrievals - before
        return report

    # -- delta propagation ---------------------------------------------

    def _apply_locked(
        self,
        inserts: Dict[str, List[Tuple]],
        deletes: Dict[str, List[Tuple]],
        undo: List[Tuple],
    ) -> MaintenanceReport:
        added: Dict[str, Set[Tuple]] = {}
        removed: Dict[str, Set[Tuple]] = {}

        for predicate, tuples in inserts.items():
            relation = self.database.relation_or_empty(
                predicate, self.arities.get(predicate, len(tuples[0]))
            )
            for tup in tuples:
                if relation.add(tup):
                    undo.append(("add", predicate, tup))
                    self._record(added, removed, predicate, tup, +1)
        for predicate, tuples in deletes.items():
            if not self.database.has_relation(predicate):
                continue
            relation = self.database.relation(predicate)
            for tup in tuples:
                if relation.discard(tup):
                    undo.append(("remove", predicate, tup))
                    self._record(added, removed, predicate, tup, -1)

        report = MaintenanceReport()
        if not (added or removed):
            return report

        for stratum, rules, reads in zip(
            self.strata, self._stratum_rules, self._reads
        ):
            changed = set(added) | set(removed)
            if not changed:
                break
            if not (reads & changed):
                continue
            if stratum & self.recursive:
                over, rederived, rounds = self._maintain_recursive_locked(
                    stratum, rules, added, removed, undo
                )
                report.overdeleted += over
                report.rederived += rederived
                report.rounds += rounds
            else:
                self._maintain_counting_locked(rules, added, removed, undo)
                report.rounds += 1

        report.added = {p: set(s) for p, s in added.items() if s}
        report.removed = {p: set(s) for p, s in removed.items() if s}
        return report

    @staticmethod
    def _record(
        added: Dict[str, Set[Tuple]],
        removed: Dict[str, Set[Tuple]],
        predicate: str,
        tup: Tuple,
        sign: int,
    ) -> None:
        """Track net deltas with cancellation: re-adding a tuple removed
        earlier in the same update (or vice versa) nets out to nothing,
        which keeps the prior-view reconstruction exact."""
        forward, backward = (added, removed) if sign > 0 else (removed, added)
        undone = backward.get(predicate)
        if undone is not None and tup in undone:
            undone.discard(tup)
            if not undone:
                del backward[predicate]
            return
        forward.setdefault(predicate, set()).add(tup)

    def _maintain_counting_locked(
        self,
        rules: List[Rule],
        added: Dict[str, Set[Tuple]],
        removed: Dict[str, Set[Tuple]],
        undo: List[Tuple],
    ) -> None:
        """Exact signed count deltas for a non-recursive stratum."""
        count_delta: Dict[str, Dict[Tuple, int]] = {}
        for rule in rules:
            body = list(rule.body)
            head = rule.head
            for i, element in enumerate(body):
                if not isinstance(element, Literal):
                    continue
                plus = added.get(element.predicate) or ()
                minus = removed.get(element.predicate) or ()
                if not plus and not minus:
                    continue
                if element.negated:
                    signed = [(t, -1) for t in plus] + [(t, +1) for t in minus]
                else:
                    signed = [(t, +1) for t in plus] + [(t, -1) for t in minus]
                items = []
                for j, other in enumerate(body):
                    if j == i:
                        continue
                    if isinstance(other, BuiltinAtom):
                        items.append((other, None))
                    elif j < i:
                        items.append((other, self._prior_view_locked(other, added, removed)))
                    else:
                        items.append((other, self._current_view_locked(other)))
                deltas = count_delta.setdefault(head.predicate, {})
                for tup, sign in signed:
                    theta0 = match_tuple(element.terms, tup, {})
                    if theta0 is None:
                        continue
                    for theta in _evaluate_body(items, theta0):
                        head_tup = ground_atom_tuple(head, theta)
                        deltas[head_tup] = deltas.get(head_tup, 0) + sign

        for predicate in sorted(count_delta):
            counts = self.counts[predicate]
            relation = self.database.relation_or_empty(
                predicate, self.arities[predicate]
            )
            for tup, delta in count_delta[predicate].items():
                if delta == 0:
                    continue
                old = counts.get(tup, 0)
                new = old + delta
                if new < 0:
                    raise MaintenanceError(
                        f"derivation count of {predicate}{tup!r} went "
                        f"negative ({old}{delta:+d}); counting state is "
                        "inconsistent"
                    )
                undo.append(("count", predicate, tup, old))
                if new:
                    counts[tup] = new
                else:
                    counts.pop(tup, None)
                if old == 0 and new > 0:
                    if relation.add(tup):
                        undo.append(("add", predicate, tup))
                        self._record(added, removed, predicate, tup, +1)
                elif old > 0 and new == 0:
                    if relation.discard(tup):
                        undo.append(("remove", predicate, tup))
                        self._record(added, removed, predicate, tup, -1)

    def _maintain_recursive_locked(
        self,
        stratum: Set[str],
        rules: List[Rule],
        added: Dict[str, Set[Tuple]],
        removed: Dict[str, Set[Tuple]],
        undo: List[Tuple],
    ) -> Tuple[int, int, int]:
        """Delete-and-rederive for one recursive stratum.

        Phase 1 collects the over-deletion (every stratum fact with a
        derivation through a killed lower fact, transitively), phase 2
        re-derives over-deleted facts that still have support, phase 3
        propagates insertions.  Returns (overdeleted, rederived, rounds).
        """
        database = self.database

        # -- phase 1: over-deletion ------------------------------------
        # Derivations are read in the pre-update state: the stratum's
        # relations are still untouched, lower predicates are rewound
        # through the net delta.  What they derive goes to a scratch
        # database, so the stratum itself is not written yet.
        def read_old(variant: Rule, _over: Database, delta) -> List[Tuple]:
            items = [
                (e, self._prior_view_locked(e, added, removed))
                for e in variant.body
            ]
            items[0] = (variant.body[0], delta)
            return [
                ground_atom_tuple(variant.head, theta)
                for theta in _evaluate_body(items, {})
            ]

        over: Dict[str, Set[Tuple]] = {}
        rounds = self._propagate_locked(
            stratum, rules, Database(database.counter), read_old,
            removed, added, over,
        )
        overdeleted = sum(len(s) for s in over.values())
        for predicate, tuples in over.items():
            relation = database.relation(predicate)
            for tup in tuples:
                if relation.discard(tup):
                    undo.append(("remove", predicate, tup))
                    self._record(added, removed, predicate, tup, -1)

        # -- phase 2: re-derivation ------------------------------------
        rederived: Dict[str, Set[Tuple]] = {}
        for predicate, tuples in over.items():
            relation = database.relation(predicate)
            for tup in tuples:
                if self._derivable_locked(predicate, tup, rules) and relation.add(tup):
                    undo.append(("add", predicate, tup))
                    self._record(added, removed, predicate, tup, +1)
                    rederived.setdefault(predicate, set()).add(tup)

        # -- phase 3: insertions ---------------------------------------
        births = {p: s for p, s in added.items() if p not in stratum}
        deaths = {p: s for p, s in removed.items() if p not in stratum}
        derived: Dict[str, Set[Tuple]] = {}
        try:
            rounds += self._propagate_locked(
                stratum, rules, database, evaluate_rule,
                {**births, **rederived}, deaths, derived,
            )
        finally:
            for predicate, tuples in derived.items():
                for tup in tuples:
                    undo.append(("add", predicate, tup))
                    self._record(added, removed, predicate, tup, +1)
        return overdeleted, sum(len(s) for s in rederived.values()), rounds

    def _propagate_locked(
        self,
        stratum: Set[str],
        rules: List[Rule],
        target: Database,
        run: Callable,
        seeds: Dict[str, Set[Tuple]],
        flips: Dict[str, Set[Tuple]],
        derived: Dict[str, Set[Tuple]],
    ) -> int:
        """One DRed propagation through ``stratum``, on the evaluator's
        delta loop; returns its round count.

        ``seeds`` are the first deltas of positive occurrences, ``flips``
        the lower facts that toggle a negated literal.  ``run(variant,
        target, delta)`` evaluates one rule variant, and every head
        tuple it derives that ``target`` lacks is stored there,
        journalled in ``derived`` and propagated.
        """
        variants = [
            (rule.head, predicate, Rule(rule.head, body))
            for rule in rules
            for predicate, body in _differentiate(rule, stratum | set(seeds))
        ]
        pinned = {predicate for _head, predicate, _variant in variants}
        deltas = {p: set(s) for p, s in seeds.items() if s and p in pinned}
        for predicate, tuples in self._negation_seeds_locked(
            rules, flips, run, target
        ).items():
            relation = target.relation_or_empty(predicate, self.arities[predicate])
            confirmed = relation.add_new(tuples)
            if confirmed:
                deltas.setdefault(predicate, set()).update(confirmed)
                derived.setdefault(predicate, set()).update(confirmed)
        return _run_delta_rounds(
            target, variants, deltas, run, self.max_iterations, derived
        )

    def _negation_seeds_locked(
        self,
        rules: List[Rule],
        flips: Dict[str, Set[Tuple]],
        run: Callable,
        target: Database,
    ) -> Dict[str, List[Tuple]]:
        """The head tuples of the instantiations a flipped negated literal
        enables — the one occurrence :func:`_differentiate` does not pin.

        Each negated occurrence of a flipped predicate becomes a positive
        one at the front of the body, reading a ``Δ<pred>`` of the
        flipped tuples.
        """
        heads: Dict[str, List[Tuple]] = {}
        for rule in rules:
            for position, element in enumerate(rule.body):
                if not (isinstance(element, Literal) and element.negated):
                    continue
                tuples = flips.get(element.predicate)
                if not tuples:
                    continue
                body = list(rule.body)
                body[position] = body[0]
                body[0] = Literal(element.atom)
                delta = Relation(
                    f"Δ{element.predicate}",
                    len(element.terms),
                    tuples,
                    counter=self.database.counter,
                )
                heads.setdefault(rule.head.predicate, []).extend(
                    run(Rule(rule.head, body), target, delta)
                )
        return heads

    def _derivable_locked(self, predicate: str, tup: Tuple, rules: List[Rule]) -> bool:
        """Does any rule still derive ``tup`` in the *current* state?"""
        for rule in rules:
            if rule.head.predicate != predicate:
                continue
            theta0 = match_tuple(rule.head.terms, tup, {})
            if theta0 is None:
                continue
            items = [(e, self._current_view_locked(e)) for e in rule.body]
            for _theta in _evaluate_body(items, theta0):
                return True
        return False

    # -- rollback ------------------------------------------------------

    def _rollback_locked(self, undo: List[Tuple]) -> None:
        for entry in reversed(undo):
            kind = entry[0]
            if kind == "add":
                _, predicate, tup = entry
                self.database.relation(predicate).discard(tup)
            elif kind == "remove":
                _, predicate, tup = entry
                self.database.relation(predicate).add(tup)
            else:  # count
                _, predicate, tup, old = entry
                if old:
                    self.counts[predicate][tup] = old
                else:
                    self.counts[predicate].pop(tup, None)


def delete_and_maintain(
    program: Program,
    database: Database,
    old_facts: Dict[str, Iterable[Tuple]],
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> MaintenanceReport:
    """One-shot deletion maintenance (state built and discarded).

    Building the state derives every support count of the non-recursive
    strata and re-runs the fixpoint of the recursive ones, which costs
    about a from-scratch evaluation (22,260 tuple retrievals against
    22,627 on a 120-arc transitive-closure chain, where a one-arc
    insertion then costs a few hundred) — so this pays only for a single
    update to a model nobody will touch again.  For repeated updates build one
    :class:`MaintenanceState` and call :meth:`MaintenanceState.apply`;
    for a one-shot *insertion* into a negation-free program,
    :func:`insert_and_maintain` needs no state at all.
    """
    return MaintenanceState(program, database, max_iterations).delete(old_facts)


def _affected_predicates(program: Program, changed: Set[str]) -> Set[str]:
    """IDB predicates transitively depending on the changed ones."""
    dependents: Dict[str, Set[str]] = {}
    for head, body, _negated in program.dependency_edges():
        dependents.setdefault(body, set()).add(head)
    affected: Set[str] = set()
    stack = list(changed)
    while stack:
        predicate = stack.pop()
        for dependent in dependents.get(predicate, ()):
            if dependent not in affected:
                affected.add(dependent)
                stack.append(dependent)
    return affected


def insert_and_maintain(
    program: Program,
    database: Database,
    new_facts: Dict[str, Iterable[Tuple]],
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Dict[str, Set[Tuple]]:
    """Insert ``new_facts`` and propagate their consequences, statelessly.

    ``new_facts`` maps predicate names to tuples.  Returns the per-
    predicate sets of *newly derived* IDB facts (not counting the
    insertions themselves).  The database is updated in place and must
    already be a fixpoint of ``program`` (call :func:`seminaive_evaluate`
    once, then maintain).  The rules the new facts reach must be free of
    negation — an insertion can *retract* a fact derived through
    negation, which is :class:`MaintenanceState`'s job.

    The delta is validated before anything is stored, as by
    :meth:`MaintenanceState.apply`.  On *any* failure, including one
    raised mid-propagation, every fact this call added is removed again,
    so the database is never left half-maintained.
    """
    program.check_safety()
    cleaned = _validate_delta(
        _arity_map(program), program.idb_predicates(), database, new_facts
    )

    # Every add is journalled — the EDB seeds in ``seeded``, what the
    # delta rounds confirm in ``derived`` — so a failure anywhere below
    # restores the pre-call state (the propagation can raise
    # UnsafeQueryError on the iteration budget, or EvaluationError from
    # an unsafe rule body).
    seeded: Dict[str, Set[Tuple]] = {}
    derived: Dict[str, Set[Tuple]] = {}
    try:
        for predicate, tuples in cleaned.items():
            relation = database.relation_or_empty(predicate, len(tuples[0]))
            fresh = set(relation.add_new(tuples))
            if fresh:
                seeded[predicate] = fresh

        affected = _affected_predicates(program, set(seeded))
        for rule in program.rules:
            if rule.head.predicate in affected and any(
                isinstance(e, Literal) and e.negated for e in rule.body
            ):
                raise EvaluationError(
                    "insertion-only maintenance cannot handle negation in "
                    f"an affected rule: {rule}"
                )

        # The interpreter's delta loop, seeded with the EDB delta
        # instead of a round-0 pass: any positive occurrence of a
        # changed predicate is differentiated, whatever its stratum.
        changed = affected | set(seeded)
        variants = [
            (rule.head, predicate, Rule(rule.head, body))
            for rule in program.rules
            if rule.head.predicate in affected
            for predicate, body in _differentiate(rule, changed)
        ]
        _run_delta_rounds(
            database, variants, seeded, evaluate_rule, max_iterations, derived
        )
    except Exception:
        for journal in (derived, seeded):
            for predicate, tuples in journal.items():
                database.relation(predicate).discard_all(tuples)
        raise
    return derived
