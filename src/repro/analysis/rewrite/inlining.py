"""Pass 3 — chain-rule inlining.

The supplementary-magic rewrite manufactures copy rules like
``sup_1_0__p__bf(X) :- m_p__bf(X).`` whose only job is to relabel a
relation.  Each one costs a full extra materialization: the engine
derives every ``m_p__bf`` tuple a second time under the new name and
charges the retrievals for it.  This pass inlines them away.

A predicate ``aux`` is an inlinable chain when

* it is defined by exactly one rule whose body is a single positive
  relational literal,
* the head arguments are distinct variables and the body uses exactly
  that variable set (so ``aux``'s extension is a column-permutation of
  the body relation — no projection, no selection),
* the database snapshot stores no facts for ``aux`` (its extension is
  purely the rule's), and
* ``aux`` is not the query goal.

Recursion *through* the chain (``m :- ... aux ...; aux :- m``) is fine:
replacing ``aux(t̄)`` by its definition body is single-rule unfolding
(Tamaki–Sato), which preserves the least model of a definite program,
and stratification keeps the negated case honest because ``aux`` and
its body relation always share a stratum.

Every occurrence ``aux(t̄)`` — either polarity: the extensions are
*equal*, so negation commutes — is replaced by the body literal under
the head-to-occurrence binding, and the definition is deleted.  The
pass abstains entirely without a database: it cannot prove the
no-stored-facts condition.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...datalog.atom import Literal
from ...datalog.database import Database
from ...datalog.program import Program
from ...datalog.rule import Rule
from ...datalog.surgery import replace_predicate_atoms
from .framework import OPTIMIZER_PASSES, PassDelta


def _chain_candidate(program: Program, database: Database) -> Optional[Rule]:
    """The first inlinable chain definition, or None."""
    for rule in program.rules:
        aux = rule.head.predicate
        if program.query is not None and program.query.predicate == aux:
            continue
        if len(program.rules_for(aux)) != 1:
            continue
        if len(rule.body) != 1:
            continue
        element = rule.body[0]
        if not isinstance(element, Literal) or element.negated:
            continue
        if element.predicate == aux:
            continue
        head_terms = rule.head.terms
        if not all(t.is_variable for t in head_terms):
            continue
        if len(set(head_terms)) != len(head_terms):
            continue
        if set(element.variables()) != set(head_terms):
            continue
        if database.facts(aux):
            continue
        return rule
    return None


@OPTIMIZER_PASSES.register("chain-inlining", "inline single-literal copy rules "
               "into their consumers")
def inline_chains(
    program: Program, database: Optional[Database]
) -> Tuple[Program, List[PassDelta]]:
    if database is None:
        return program, []
    deltas: List[PassDelta] = []
    current = program
    for _ in range(len(program.rules)):
        definition = _chain_candidate(current, database)
        if definition is None:
            break
        aux = definition.head.predicate
        target = definition.body[0].atom

        def rewrite(occurrence, _head=definition.head, _target=target):
            theta = dict(zip(_head.terms, occurrence.terms))
            return _target.substitute(theta)

        rules = [
            replace_predicate_atoms(rule, aux, rewrite)
            for rule in current.rules
            if rule is not definition
        ]
        deltas.append(
            (
                "rule-removed",
                "inlined-rule",
                f"chain rule for {aux!r} inlined: occurrences now read "
                f"{target.predicate!r} directly",
                definition,
            )
        )
        current = Program(rules, current.query)
    return (current, deltas) if deltas else (program, [])
