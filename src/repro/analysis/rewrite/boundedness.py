"""Pass 6 — conservative boundedness detection for linear recursion.

Recursion whose depth is statically certain to be finite can be
replaced by non-recursive strata (Mazowiecki et al.'s boundedness
program, applied in its easiest decidable corner).  Two detections:

* **tautological recursion** — a rule whose body contains its own head
  atom positively (``p(X,Y) :- p(X,Y), ...``) can only rederive known
  tuples; it is deleted.
* **counter-bounded recursion** — predicate ``q`` with one linear
  recursive rule that threads an arithmetic counter through argument
  ``k`` (``head[k] is body[k] ± c``) under constant comparison guards,
  with every exit rule pinning a constant at ``k``.  The counter values
  reachable from the exits form arithmetic chains, so the recursion
  depth ``d`` is computed exactly by simulating the chain against the
  guards.  ``d = 0`` deletes the recursive rule (it can never fire);
  ``1 <= d <= MAX_UNFOLD_DEPTH`` unfolds ``q`` into strata
  ``q__u0 .. q__ud`` plus union rules, eliminating the fixpoint
  entirely.

Guards on variables other than the counter are ignored, which can only
*over*-estimate the depth — extra strata derive nothing, so the unfold
stays sound.  The unfolding consults the database (stored facts for
``q`` would be extra seeds with unknown counters) and abstains without
one; tautology removal is database-free.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...datalog.atom import Atom, BuiltinAtom, Literal
from ...datalog.builtins import _ARITH_OPS, _COMPARISONS
from ...datalog.database import Database
from ...datalog.program import Program
from ...datalog.rule import Rule
from ...datalog.term import Variable
from .framework import OPTIMIZER_PASSES, PassDelta

#: Unfold only genuinely shallow recursion; anything deeper keeps the
#: (already efficient) semi-naive fixpoint.
MAX_UNFOLD_DEPTH = 8

#: Simulation fuel; a chain still alive after this many steps is
#: treated as unbounded.
_MAX_STEPS = 64


def _remove_tautologies(
    program: Program,
) -> Tuple[Program, List[PassDelta]]:
    deltas: List[PassDelta] = []
    rules: List[Rule] = []
    for rule in program.rules:
        if any(
            isinstance(e, Literal) and not e.negated and e.atom == rule.head
            for e in rule.body
        ):
            deltas.append(
                (
                    "rule-removed",
                    "bounded-recursion",
                    "rule requires its own head atom to already hold; "
                    "it can never derive a new fact",
                    rule,
                )
            )
            continue
        rules.append(rule)
    if not deltas:
        return program, []
    return Program(rules, program.query), deltas


def _counter_position(rule: Rule, recursive: Literal) -> Optional[Tuple[int, Variable, Variable, object]]:
    """Find (k, new_var, old_var, step) threading a counter, or None."""
    for k, (new_term, old_term) in enumerate(
        zip(rule.head.terms, recursive.terms)
    ):
        if not (isinstance(new_term, Variable) and isinstance(old_term, Variable)):
            continue
        if new_term == old_term:
            continue
        for builtin in rule.builtins():
            if builtin.name != "is" or len(builtin.args) != 4:
                continue
            target, left, op, right = builtin.args
            if target != new_term:
                continue
            if op.value not in _ARITH_OPS:
                continue
            if left == old_term and right.is_constant:
                step = _ARITH_OPS[op.value]
                return k, new_term, old_term, lambda x, s=step, c=right.value: s(x, c)
        # No matching ``is`` for this position; try the next one.
    return None


def _guards(rule: Rule, variable: Variable):
    """Constant comparison guards on ``variable``, as predicates on x."""
    checks = []
    for builtin in rule.builtins():
        if builtin.name not in _COMPARISONS or len(builtin.args) != 2:
            continue
        compare = _COMPARISONS[builtin.name]
        left, right = builtin.args
        if left == variable and right.is_constant:
            checks.append(lambda x, c=compare, b=right.value: c(x, b))
        elif right == variable and left.is_constant:
            checks.append(lambda x, c=compare, b=left.value: c(b, x))
    return checks


def _chain_depth(seed, advance, old_guards, new_guards) -> Optional[int]:
    """Steps the counter chain from ``seed`` survives, or None (unbounded)."""
    depth = 0
    value = seed
    while depth <= _MAX_STEPS:
        try:
            if not all(g(value) for g in old_guards):
                return depth
            advanced = advance(value)
            if not all(g(advanced) for g in new_guards):
                return depth
        except TypeError:
            return None
        value = advanced
        depth += 1
    return None


def _bounded_candidate(program: Program, database: Database):
    """(predicate, exits, recursive_rule, depth) for one unfoldable
    predicate, or None."""
    graph = program.dependency_graph()
    for predicate in sorted(program.idb_predicates()):
        rules = program.rules_for(predicate)
        recursive = [r for r in rules if predicate in r.body_predicates()]
        exits = [r for r in rules if predicate not in r.body_predicates()]
        if len(recursive) != 1:
            continue
        rule = recursive[0]
        self_literals = [
            e
            for e in rule.body
            if isinstance(e, Literal) and e.predicate == predicate
        ]
        if len(self_literals) != 1 or self_literals[0].negated:
            continue
        if database.facts(predicate):
            continue
        if any(e.head.arity != rule.head.arity for e in exits):
            continue
        if any(
            other != predicate
            and Program._reaches(graph, predicate, other)
            and Program._reaches(graph, other, predicate)
            for other in program.idb_predicates()
        ):
            continue
        found = _counter_position(rule, self_literals[0])
        if found is None:
            continue
        k, new_var, old_var, advance = found
        if not all(
            exit_rule.head.terms[k].is_constant for exit_rule in exits
        ):
            continue
        if not exits:
            continue
        old_guards = _guards(rule, old_var)
        new_guards = _guards(rule, new_var)
        depths = [
            _chain_depth(
                exit_rule.head.terms[k].value, advance, old_guards, new_guards
            )
            for exit_rule in exits
        ]
        if any(d is None for d in depths):
            continue
        depth = max(depths)
        if depth > MAX_UNFOLD_DEPTH:
            continue
        return predicate, exits, rule, depth
    return None


def _stratum_name(predicate: str, i: int) -> str:
    return f"{predicate}__u{i}"


def _unfold(
    program: Program, predicate: str, exits: List[Rule], rule: Rule, depth: int
) -> Tuple[Program, List[PassDelta]]:
    deltas: List[PassDelta] = []
    names = [_stratum_name(predicate, i) for i in range(depth + 1)]
    if any(name in program.predicates() for name in names):
        return program, []
    arity = rule.head.arity
    new_rules: List[Rule] = []
    for exit_rule in exits:
        new_rules.append(
            Rule(Atom(names[0], exit_rule.head.terms), exit_rule.body)
        )
    for i in range(1, depth + 1):
        renamed = rule.rename_apart(f"__u{i}")
        body = tuple(
            Literal(Atom(names[i - 1], e.atom.terms), e.negated)
            if isinstance(e, Literal) and e.predicate == predicate
            else e
            for e in renamed.body
        )
        new_rules.append(Rule(Atom(names[i], renamed.head.terms), body))
    union_vars = tuple(Variable(f"U{j}") for j in range(arity))
    for name in names:
        union = Rule(
            Atom(predicate, union_vars), (Literal(Atom(name, union_vars)),)
        )
        new_rules.append(union)
        deltas.append(
            (
                "rule-added",
                "bounded-recursion",
                f"stratum union rule added for {predicate!r}",
                union,
            )
        )
    deltas.insert(
        0,
        (
            "rule-rewritten",
            "bounded-recursion",
            f"recursion of {predicate!r} is certifiably bounded at depth "
            f"{depth}; unfolded into {depth + 1} non-recursive strata",
            rule,
        ),
    )
    survivors = [
        r
        for r in program.rules
        if r is not rule and all(r is not e for e in exits)
    ]
    return Program(survivors + new_rules, program.query), deltas


@OPTIMIZER_PASSES.register("boundedness", "delete or unfold certifiably bounded "
               "recursion")
def bound_recursion(
    program: Program, database: Optional[Database]
) -> Tuple[Program, List[PassDelta]]:
    current, deltas = _remove_tautologies(program)
    if database is not None:
        for _ in range(len(program.rules) + 1):
            candidate = _bounded_candidate(current, database)
            if candidate is None:
                break
            predicate, exits, rule, depth = candidate
            if depth == 0:
                deltas.append(
                    (
                        "rule-removed",
                        "bounded-recursion",
                        f"recursive rule for {predicate!r} can never fire: "
                        "the counter guards exclude every value reachable "
                        "from the exit rules",
                        rule,
                    )
                )
                survivors = [r for r in current.rules if r is not rule]
                current = Program(survivors, current.query)
                continue
            unfolded, unfold_deltas = _unfold(
                current, predicate, exits, rule, depth
            )
            if not unfold_deltas:
                break
            deltas.extend(unfold_deltas)
            current = unfolded
    return (current, deltas) if deltas else (program, [])
