"""Pass 5 — unused-argument slicing.

An argument position of an intermediate IDB predicate that no consumer
ever *reads* — every occurrence carries a throwaway variable there —
only widens tuples and splits otherwise-identical bindings.  Projecting
the column away shrinks the relation (tuples that differed only in the
dead column merge) before the kernel engine ever materializes it.

A position ``j`` of predicate ``p`` is **read** when some body
occurrence of ``p`` has, at ``j``, a constant (a selection) or a
variable that occurs more than once in its rule (a join, head export,
builtin operand, or negation guard).  Negated occurrences mark every
position read — negation-as-set-difference is arity-sensitive.  Head
positions of ``p``'s own defining rules are definitions, not reads.

Sliceable predicates must be IDB, must not be the query goal, must have
no stored facts (the database snapshot is consulted; the pass abstains
without one), and keep at least one column.  Soundness: consumers bind
only read positions, and projection preserves exactly the existential
semantics an unread single-occurrence variable already had.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ...datalog.atom import BuiltinAtom, Literal
from ...datalog.database import Database
from ...datalog.program import Program
from ...datalog.rule import Rule
from ...datalog.surgery import project_atom
from ...datalog.term import Variable
from .framework import OPTIMIZER_PASSES, PassDelta


def _occurrence_counts(rule: Rule) -> Dict[Variable, int]:
    """How many term slots each variable fills across the whole rule."""
    counts: Dict[Variable, int] = {}
    for source in (rule.head, *rule.body):
        terms = source.args if isinstance(source, BuiltinAtom) else source.terms
        for term in terms:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    return counts


def read_positions(program: Program, predicate: str, arity: int) -> Set[int]:
    """Argument positions of ``predicate`` some consumer reads."""
    read: Set[int] = set()
    if program.query is not None and program.query.predicate == predicate:
        return set(range(arity))
    for rule in program.rules:
        counts = _occurrence_counts(rule)
        for element in rule.body:
            if not isinstance(element, Literal):
                continue
            if element.predicate != predicate:
                continue
            if element.negated:
                return set(range(arity))
            for j, term in enumerate(element.terms):
                if not isinstance(term, Variable) or counts.get(term, 0) > 1:
                    read.add(j)
    return read


def _slice_candidate(
    program: Program, database: Database
) -> Optional[Tuple[str, int, List[int]]]:
    """The first (predicate, arity, kept positions) worth slicing."""
    if program.query is None:
        return None
    for predicate in sorted(program.idb_predicates()):
        if program.query.predicate == predicate:
            continue
        if database.facts(predicate):
            continue
        arities = {
            atom.arity
            for rule in program.rules
            for atom in (
                [rule.head] if rule.head.predicate == predicate else []
            )
            + [
                e.atom
                for e in rule.body
                if isinstance(e, Literal) and e.predicate == predicate
            ]
        }
        if len(arities) != 1:
            continue
        arity = arities.pop()
        if arity <= 1:
            continue
        read = read_positions(program, predicate, arity)
        if len(read) >= arity:
            continue
        keep = sorted(read) if read else [0]
        return predicate, arity, keep
    return None


@OPTIMIZER_PASSES.register("argument-slicing", "project away argument positions no "
               "consumer reads")
def slice_arguments(
    program: Program, database: Optional[Database]
) -> Tuple[Program, List[PassDelta]]:
    if database is None:
        return program, []
    deltas: List[PassDelta] = []
    current = program
    for _ in range(len(program.rules) * 4 + 1):
        candidate = _slice_candidate(current, database)
        if candidate is None:
            break
        predicate, arity, keep = candidate
        dropped = [j for j in range(arity) if j not in keep]
        rules = []
        for rule in current.rules:
            head = rule.head
            if head.predicate == predicate:
                head = project_atom(head, keep)
            body = tuple(
                Literal(project_atom(e.atom, keep), e.negated)
                if isinstance(e, Literal) and e.predicate == predicate
                else e
                for e in rule.body
            )
            rules.append(Rule(head, body))
        for j in dropped:
            deltas.append(
                (
                    "argument-removed",
                    "sliced-argument",
                    f"argument {j + 1} of {arity} of {predicate!r} is "
                    "never read by any consumer; projected away",
                    None,
                )
            )
        current = Program(rules, current.query)
    return (current, deltas) if deltas else (program, [])
