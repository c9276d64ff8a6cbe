"""Why-provenance: proof trees for derived facts.

A deductive database is only as trustworthy as its explanations.  This
module evaluates a program while recording, for every derived fact, one
supporting rule instantiation; :func:`Provenance.proof` then unfolds the
records into a proof tree whose leaves are EDB facts (or builtin
checks).

Used by the test-suite as yet another oracle: every answer of every
method must admit a proof, and the proof of an answer to the canonical
CSL query must exhibit exactly the Fact-2 path structure (k L-steps,
one E-step, k R-steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import EvaluationError, UnsafeQueryError
from .atom import BuiltinAtom
from .database import Database
from .evaluation import (
    DEFAULT_MAX_ITERATIONS,
    _arity_map,
    _database_items,
    _evaluate_body,
)
from .program import Program
from .rule import Rule
from .stratify import stratify
from .unify import ground_atom_tuple, lookup_pattern

Fact = Tuple[str, Tuple]


@dataclass
class ProofNode:
    """One node of a proof tree.

    ``kind`` is ``"edb"`` (a stored fact — leaf), ``"rule"`` (a derived
    fact, with ``rule`` and ``children`` for its body), or ``"builtin"``
    (an arithmetic/comparison check — leaf).
    """

    predicate: str
    values: Tuple
    kind: str
    rule: Optional[Rule] = None
    children: List["ProofNode"] = field(default_factory=list)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def leaves(self) -> List["ProofNode"]:
        if not self.children:
            return [self]
        collected = []
        for child in self.children:
            collected.extend(child.leaves())
        return collected

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        args = ", ".join(str(v) for v in self.values)
        head = f"{pad}{self.predicate}({args})"
        if self.kind == "edb":
            head += "   [fact]"
        elif self.kind == "builtin":
            head += "   [builtin]"
        else:
            head += f"   [by: {self.rule}]"
        parts = [head]
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)

    def __str__(self):
        return self.render()


class Provenance:
    """Evaluation result with one recorded derivation per derived fact."""

    def __init__(self, database: Database, derivations, idb):
        self.database = database
        self._derivations: Dict[Fact, Tuple[Rule, List]] = derivations
        self._idb = idb

    def is_derivable(self, predicate: str, values: Tuple) -> bool:
        if predicate in self._idb:
            return (predicate, tuple(values)) in self._derivations
        return tuple(values) in self.database.facts(predicate)

    def proof(self, predicate: str, values: Tuple) -> ProofNode:
        """Unfold the recorded derivations into a full proof tree.

        Raises :class:`EvaluationError` when the fact does not hold.
        """
        values = tuple(values)
        if predicate not in self._idb:
            if values in self.database.facts(predicate):
                return ProofNode(predicate, values, "edb")
            raise EvaluationError(f"no such fact: {predicate}{values!r}")
        key = (predicate, values)
        record = self._derivations.get(key)
        if record is None:
            raise EvaluationError(f"fact not derivable: {predicate}{values!r}")
        rule, body_records = record
        children = []
        for entry in body_records:
            entry_kind, entry_predicate, entry_values = entry
            if entry_kind == "builtin":
                children.append(
                    ProofNode(entry_predicate, entry_values, "builtin")
                )
            elif entry_kind == "negation":
                children.append(
                    ProofNode(f"not {entry_predicate}", entry_values, "builtin")
                )
            elif entry_predicate in self._idb:
                children.append(self.proof(entry_predicate, entry_values))
            else:
                children.append(ProofNode(entry_predicate, entry_values, "edb"))
        return ProofNode(predicate, values, "rule", rule=rule, children=children)


def _record_body(rule: Rule, theta) -> List[Tuple[str, str, Tuple]]:
    """The grounded body of a satisfied rule instantiation."""
    entries = []
    for element in rule.body:
        if isinstance(element, BuiltinAtom):
            grounded = element.substitute(theta)
            entries.append(
                ("builtin", grounded.name,
                 tuple(str(a) for a in grounded.args))
            )
        elif element.negated:
            entries.append(
                ("negation", element.predicate,
                 lookup_pattern(element.terms, theta))
            )
        else:
            entries.append(
                ("atom", element.predicate,
                 ground_atom_tuple(element.atom, theta))
            )
    return entries


def evaluate_with_provenance(
    program: Program,
    database: Database,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Provenance:
    """Naive evaluation recording one derivation per new fact.

    Stratified like the plain evaluators.  A fact's recorded derivation
    only references facts that existed strictly before it (within its
    stratum, facts of earlier rounds), so :meth:`Provenance.proof` never
    loops.
    """
    program.check_safety()
    arities = _arity_map(program)
    idb = program.idb_predicates()
    derivations: Dict[Fact, Tuple[Rule, List]] = {}

    for stratum in stratify(program):
        stratum_rules = [r for r in program.rules if r.head.predicate in stratum]
        for rule in stratum_rules:
            database.relation_or_empty(rule.head.predicate, rule.head.arity)
        iterations = 0
        changed = True
        while changed:
            iterations += 1
            if iterations > max_iterations:
                raise UnsafeQueryError(
                    f"provenance fixpoint exceeded {max_iterations} iterations"
                )
            changed = False
            pending = []
            for rule in stratum_rules:
                head_relation = database.relation_or_empty(
                    rule.head.predicate, rule.head.arity
                )
                items = _database_items(rule.body, database)
                for theta in list(_evaluate_body(items, {})):
                    tup = ground_atom_tuple(rule.head, theta)
                    key = (rule.head.predicate, tup)
                    if tup in head_relation or key in derivations:
                        continue
                    derivations[key] = (rule, _record_body(rule, theta))
                    pending.append((rule.head.predicate, tup))
            for predicate, tup in pending:
                relation = database.relation_or_empty(predicate, arities[predicate])
                if relation.add(tup):
                    changed = True
    return Provenance(database, derivations, idb)
