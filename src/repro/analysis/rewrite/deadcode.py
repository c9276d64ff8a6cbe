"""Pass 4 — goal-directed dead-rule elimination and empty-predicate cascade.

Two eliminations:

* **goal cone** — a rule whose head predicate the query goal cannot
  (transitively) depend on can never contribute a goal derivation; it
  is deleted.  This is the transforming twin of the linter's
  ``unreachable`` warning, and it is what sweeps up the magic and
  supplementary scaffolding left orphaned by the other passes.
* **empty-predicate cascade** — against a database snapshot, a
  predicate with no stored facts and no rules (or only rules that
  positively depend on empty predicates) is provably empty.  A rule
  with a positive body literal on an empty predicate can never fire and
  is deleted; a *negated* literal on an empty predicate is vacuously
  true and is dropped from the body.  On regular graphs this is the
  pass that erases the entire ``rm_``/``pm_`` half of a magic-counting
  program (RM = ∅), which semi-naive evaluation would otherwise charge
  for on every round-0 rule sweep.

The cascade needs the database and abstains without one; cone removal
needs only the query goal.  Both are pure deletions, so retrievals can
only go down.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ...datalog.atom import Literal
from ...datalog.database import Database
from ...datalog.lint import goal_cone
from ...datalog.program import Program
from ...datalog.rule import Rule
from .framework import OPTIMIZER_PASSES, PassDelta


def empty_predicates(program: Program, database: Database) -> Set[str]:
    """Predicates provably empty against the database snapshot."""
    empty: Set[str] = set()
    predicates = program.predicates()
    changed = True
    while changed:
        changed = False
        for predicate in predicates:
            if predicate in empty or database.facts(predicate):
                continue
            rules = program.rules_for(predicate)
            # No facts, and every rule (vacuously: no rules at all)
            # positively depends on an empty predicate.
            if all(
                any(
                    isinstance(e, Literal)
                    and not e.negated
                    and e.predicate in empty
                    for e in rule.body
                )
                for rule in rules
            ):
                empty.add(predicate)
                changed = True
    return empty


def _sweep_empty(
    program: Program, database: Database
) -> Tuple[Program, List[PassDelta]]:
    empty = empty_predicates(program, database)
    if not empty:
        return program, []
    deltas: List[PassDelta] = []
    rules: List[Rule] = []
    for rule in program.rules:
        doomed = next(
            (
                e
                for e in rule.body
                if isinstance(e, Literal)
                and not e.negated
                and e.predicate in empty
            ),
            None,
        )
        if doomed is not None:
            deltas.append(
                (
                    "rule-removed",
                    "empty-predicate",
                    f"body reads {doomed.predicate!r}, which is provably "
                    "empty; rule can never fire",
                    rule,
                )
            )
            continue
        vacuous = [
            e
            for e in rule.body
            if isinstance(e, Literal) and e.negated and e.predicate in empty
        ]
        if vacuous:
            body = tuple(e for e in rule.body if e not in vacuous)
            for literal in vacuous:
                deltas.append(
                    (
                        "literal-removed",
                        "empty-predicate",
                        f"negated literal {literal} is vacuously true "
                        f"({literal.predicate!r} is provably empty)",
                        rule,
                    )
                )
            rule = Rule(rule.head, body)
        rules.append(rule)
    if not deltas:
        return program, []
    return Program(rules, program.query), deltas


def _sweep_cone(program: Program) -> Tuple[Program, List[PassDelta]]:
    cone = goal_cone(program)
    if cone is None:
        return program, []
    deltas: List[PassDelta] = []
    rules: List[Rule] = []
    for rule in program.rules:
        if rule.head.predicate in cone:
            rules.append(rule)
            continue
        deltas.append(
            (
                "rule-removed",
                "dead-rule",
                f"rule for {rule.head.predicate!r} is outside the query "
                "goal's dependency cone",
                rule,
            )
        )
    if not deltas:
        return program, []
    return Program(rules, program.query), deltas


@OPTIMIZER_PASSES.register("dead-rule-elimination", "drop rules outside the goal "
               "cone or reading provably-empty predicates")
def eliminate_dead_rules(
    program: Program, database: Optional[Database]
) -> Tuple[Program, List[PassDelta]]:
    deltas: List[PassDelta] = []
    current = program
    if database is not None:
        current, empty_deltas = _sweep_empty(current, database)
        deltas.extend(empty_deltas)
    current, cone_deltas = _sweep_cone(current)
    deltas.extend(cone_deltas)
    return (current, deltas) if deltas else (program, [])
