"""Pass 2 — duplicate-literal removal and θ-subsumed-rule removal.

Two redundancy eliminations over the rule set:

* **duplicate literals** — a body is a conjunction, so a literal that
  appears twice (syntactically identical, same polarity) constrains
  nothing the first occurrence didn't; the later copy is dropped.
* **subsumed rules** — rule ``G`` θ-subsumes rule ``S`` when a
  substitution over ``G``'s variables maps ``G``'s head to ``S``'s head
  and ``G``'s body into ``S``'s body (:func:`repro.datalog.surgery.subsumes`).
  Every fact ``S`` can derive, ``G`` derives with fewer constraints, so
  ``S`` is deleted.  Exact duplicates and variable-renamed variants are
  the degenerate (mutually-subsuming) case; the earlier rule wins the
  tie.

Both removals leave the least model untouched and strictly shrink the
work the engine does: one fewer join operand, or one fewer rule charged
per semi-naive round.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...datalog.database import Database
from ...datalog.program import Program
from ...datalog.rule import Rule
from ...datalog.surgery import subsumes
from .framework import OPTIMIZER_PASSES, PassDelta


def _drop_duplicate_literals(rule: Rule) -> Tuple[Rule, List[PassDelta]]:
    seen = set()
    body = []
    deltas: List[PassDelta] = []
    for element in rule.body:
        if element in seen:
            deltas.append(
                (
                    "literal-removed",
                    "duplicate-literal",
                    f"duplicate body literal {element} removed",
                    rule,
                )
            )
            continue
        seen.add(element)
        body.append(element)
    if not deltas:
        return rule, []
    return Rule(rule.head, tuple(body)), deltas


@OPTIMIZER_PASSES.register("subsumption", "remove duplicate literals and "
               "θ-subsumed rules")
def remove_subsumed(
    program: Program, database: Optional[Database]
) -> Tuple[Program, List[PassDelta]]:
    deltas: List[PassDelta] = []
    rules: List[Rule] = []
    for rule in program.rules:
        deduped, rule_deltas = _drop_duplicate_literals(rule)
        deltas.extend(rule_deltas)
        rules.append(deduped)

    removed = [False] * len(rules)
    for j, specific in enumerate(rules):
        for i, general in enumerate(rules):
            if i == j or removed[i] or removed[j]:
                continue
            if not subsumes(general, specific):
                continue
            # Mutually-subsuming variants: keep the earlier rule.
            if i > j and subsumes(specific, general):
                continue
            removed[j] = True
            deltas.append(
                (
                    "rule-removed",
                    "subsumed-rule",
                    f"rule subsumed by more general rule {general}",
                    specific,
                )
            )
            break
    if not deltas:
        return program, []
    survivors = [r for r, gone in zip(rules, removed) if not gone]
    return Program(survivors, program.query), deltas
