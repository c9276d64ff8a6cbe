"""Pass 1 — constant propagation and builtin folding.

A builtin whose operands are statically constant can be decided (or
computed) at optimization time:

* a ground comparison that holds is deleted from the body; one that
  fails deletes the whole rule (its body is statically false);
* a ground ``is`` whose target is a free variable binds that variable —
  the binding is substituted through the rule and the builtin deleted;
  a ground ``is`` whose target is already a constant either holds
  (deleted) or fails (rule deleted).

Folding iterates within each rule, so chains like ``J is 0 + 1,
K is J + 1, K <= 1`` collapse completely (here: to a deleted rule).

Soundness: substituting a builtin's unique solution and removing it is
the standard fold/unfold equivalence; a statically-false body has no
satisfying assignment, so the rule derives nothing.  Cost monotonicity:
builtins charge no retrievals, but a deleted rule's relational literals
do — removal only subtracts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...datalog.atom import BuiltinAtom
from ...datalog.builtins import _ARITH_OPS, _COMPARISONS
from ...datalog.database import Database
from ...datalog.program import Program
from ...datalog.rule import Rule
from .framework import OPTIMIZER_PASSES, PassDelta


def _fold_rule(rule: Rule) -> Tuple[Optional[Rule], List[PassDelta]]:
    """Fold one rule to fixpoint.  ``None`` means the rule is deleted."""
    deltas: List[PassDelta] = []
    current = rule
    changed = True
    while changed:
        changed = False
        for index, element in enumerate(current.body):
            if not isinstance(element, BuiltinAtom):
                continue
            outcome = _decide(element)
            if outcome is None:
                continue
            verdict, binding = outcome
            if verdict == "false":
                deltas.append(
                    (
                        "rule-removed",
                        "statically-false",
                        f"body of rule for {rule.head.predicate!r} is "
                        f"statically false at {element}; rule deleted",
                        rule,
                    )
                )
                return None, deltas
            body = current.body[:index] + current.body[index + 1:]
            current = Rule(current.head, body)
            if binding:
                current = current.substitute(binding)
                bound = next(iter(binding))
                deltas.append(
                    (
                        "literal-removed",
                        "constant-folded",
                        f"builtin {element} folded: {bound} = "
                        f"{binding[bound]} substituted through the rule",
                        rule,
                    )
                )
            else:
                deltas.append(
                    (
                        "literal-removed",
                        "constant-folded",
                        f"builtin {element} holds statically; deleted",
                        rule,
                    )
                )
            changed = True
            break
    return current, deltas


def _decide(builtin: BuiltinAtom):
    """Statically decide a builtin.

    Returns ``None`` when undecidable (unbound operands), otherwise
    ``("true", binding)`` with the substitution to apply (possibly
    empty) or ``("false", {})``.
    """
    if builtin.name in _COMPARISONS:
        left, right = builtin.args
        if left == right:
            # Reflexive comparison: decidable whatever the binding.
            reflexive = builtin.name in ("==", "<=", ">=")
            return ("true", {}) if reflexive else ("false", {})
        if not (left.is_constant and right.is_constant):
            return None
        try:
            holds = _COMPARISONS[builtin.name](left.value, right.value)
        except TypeError:
            return None
        return ("true", {}) if holds else ("false", {})
    if builtin.name == "is":
        target, left, op, right = builtin.args
        if not (left.is_constant and right.is_constant):
            return None
        try:
            result = _ARITH_OPS[op.value](left.value, right.value)
        except (TypeError, KeyError):
            return None
        from ...datalog.term import Constant

        value = Constant(result)
        if target.is_constant:
            return ("true", {}) if target == value else ("false", {})
        return ("true", {target: value})
    return None


@OPTIMIZER_PASSES.register("constant-folding", "fold ground builtins; delete "
               "statically-false rules")
def fold_constants(
    program: Program, database: Optional[Database]
) -> Tuple[Program, List[PassDelta]]:
    deltas: List[PassDelta] = []
    rules: List[Rule] = []
    for rule in program.rules:
        folded, rule_deltas = _fold_rule(rule)
        deltas.extend(rule_deltas)
        if folded is not None:
            rules.append(folded)
    if not deltas:
        return program, []
    return Program(rules, program.query), deltas
