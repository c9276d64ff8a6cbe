"""Incremental (insertion-only) view maintenance.

A deductive database rarely re-derives from scratch: when facts arrive,
the existing model should be *extended*.  For positive additions under
stratified negation-free dependencies this is exactly the semi-naive
delta step: seed the deltas with the new EDB facts, propagate.

:func:`insert_and_maintain` updates the IDB relations of an
already-evaluated database in place.  Restrictions (checked):

* the program must be negation-free in the strata the new facts can
  reach — insertions can *retract* facts derived through negation, and
  retraction needs DRed-style machinery we deliberately do not claim;
* the database must already be a fixpoint of the program (the usual
  invariant: call :func:`repro.datalog.evaluation.seminaive_evaluate`
  once, then maintain).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..errors import EvaluationError
from .atom import Literal
from .database import Database
from .evaluation import (
    DEFAULT_MAX_ITERATIONS,
    _arity_map,
    _differentiate,
    _run_delta_rounds,
    evaluate_rule,
)
from .program import Program
from .rule import Rule


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


def _check_no_negation_in(program: Program, predicates: Set[str]) -> None:
    for rule in program.rules:
        if rule.head.predicate not in predicates:
            continue
        for element in rule.body:
            if isinstance(element, Literal) and element.negated:
                raise EvaluationError(
                    "insertion-only maintenance cannot handle negation in "
                    f"an affected rule: {rule}"
                )


def insert_and_maintain(
    program: Program,
    database: Database,
    new_facts: Dict[str, Iterable[Tuple]],
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Dict[str, Set[Tuple]]:
    """Insert ``new_facts`` and propagate their consequences.

    ``new_facts`` maps predicate names to tuples.  Returns the per-
    predicate sets of *newly derived* IDB facts (not counting the
    insertions themselves).  The database is updated in place.

    The delta is validated before anything is stored: inserting into an
    IDB predicate is rejected (it would silently diverge from the
    rules-defined fixpoint), and every tuple must match the predicate's
    arity — from the program when it mentions the predicate, from the
    existing relation otherwise, and tuples within one batch must agree
    with each other.  On *any* failure, including one raised mid-
    propagation, every fact this call added is removed again, so the
    database is never left half-maintained.
    """
    program.check_safety()
    arities = _arity_map(program)
    idb = program.idb_predicates()

    cleaned: Dict[str, List[Tuple]] = {}
    for predicate, tuples in new_facts.items():
        tuples = [tuple(t) for t in tuples]
        if not tuples:
            continue
        if predicate in idb:
            raise EvaluationError(
                f"cannot insert into IDB predicate {predicate!r}; it is "
                "maintained from its rules"
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
        _check_no_negation_in(program, affected)

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
