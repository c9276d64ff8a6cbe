"""Structural analysis of canonical strongly linear (CSL) recursion.

The paper's methods apply to queries of the canonical form

    P(X, Y) :- E(X, Y).                       % exit rule(s)
    P(X, Y) :- L(X, X1), P(X1, Y1), R(Y, Y1). % one linear recursive rule
    ?- P(a, Y).

and, as Section 1 notes, to the wider class where ``X`` and ``Y`` stand
for several arguments and ``L``/``R``/``E`` are conjunctions, possibly of
*derived* predicates ([SZ1]'s canonical strongly linear queries).

:func:`analyze_linear` verifies that a program + goal has this shape and
decomposes the recursive rule into its **left** part (the literals that
propagate the binding from the bound head arguments to the recursive
call — the paper's ``L``), its **right** part (the literals that carry
answers back — ``R``), and the exit rules (``E``).  The counting
rewriting (:mod:`repro.datalog.counting_rewrite`) and the query-graph
construction (:mod:`repro.core.csl`) both build on this decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..errors import NotCSLError
from .adornment import adornment_from_goal, bound_positions, free_positions
from .atom import Atom, Literal
from .program import Program
from .rule import Rule
from .term import Variable


@dataclass
class LinearRecursion:
    """The decomposition of a CSL query.

    Attributes
    ----------
    predicate:
        The recursive predicate ``P``.
    goal:
        The query goal (some arguments constant).
    adornment:
        The goal's adornment string, e.g. ``"bf"``.
    bound, free:
        Bound / free argument positions of the goal.
    exit_rules:
        All non-recursive rules for ``P`` (the paper's ``E``).
    recursive_rule:
        The single linear recursive rule.
    recursive_index:
        Position of the recursive literal within that rule's body.
    left_elements, right_elements:
        The body elements of the recursive rule on each side of the
        recursion (the paper's ``L`` and ``R`` conjunctions).
    head_bound_terms, head_free_terms:
        Head argument terms at bound / free positions.
    rec_bound_terms, rec_free_terms:
        Recursive-literal argument terms at bound / free positions.
    """

    predicate: str
    goal: Atom
    adornment: str
    bound: List[int]
    free: List[int]
    exit_rules: List[Rule]
    recursive_rule: Rule
    recursive_index: int
    left_elements: List = field(default_factory=list)
    right_elements: List = field(default_factory=list)
    head_bound_terms: Tuple = ()
    head_free_terms: Tuple = ()
    rec_bound_terms: Tuple = ()
    rec_free_terms: Tuple = ()

    @property
    def recursive_literal(self) -> Literal:
        return self.recursive_rule.body[self.recursive_index]


def _count_occurrences(rule: Rule, predicate: str) -> int:
    return sum(
        1
        for e in rule.body
        if isinstance(e, Literal) and e.predicate == predicate
    )


def _check_no_mutual_recursion(program: Program, predicate: str) -> None:
    graph = program.dependency_graph()
    for other in program.idb_predicates():
        if other == predicate:
            continue
        depends_on_p = Program._reaches(graph, other, predicate)
        p_depends_on = Program._reaches(graph, predicate, other)
        if depends_on_p and p_depends_on:
            raise NotCSLError(
                f"predicates {predicate!r} and {other!r} are mutually "
                "recursive; the query is not canonical strongly linear"
            )


def _variables(terms) -> Set[Variable]:
    return {t for t in terms if isinstance(t, Variable)}


def _connected_components(elements: List) -> List[Tuple[Set[int], Set[Variable]]]:
    """Group body elements by shared variables (union-find by flooding)."""
    remaining = set(range(len(elements)))
    components: List[Tuple[Set[int], Set[Variable]]] = []
    while remaining:
        seed = remaining.pop()
        members = {seed}
        variables = set(elements[seed].variables())
        changed = True
        while changed:
            changed = False
            for index in list(remaining):
                element_vars = set(elements[index].variables())
                if element_vars & variables:
                    members.add(index)
                    variables |= element_vars
                    remaining.discard(index)
                    changed = True
        components.append((members, variables))
    return components


def analyze_linear(program: Program, goal: Atom = None) -> LinearRecursion:
    """Verify CSL shape and decompose the recursive rule.

    Raises :class:`NotCSLError` (with a specific message) when the
    program is outside the class.
    """
    if goal is None:
        goal = program.query
    if goal is None:
        raise NotCSLError("program has no query goal")
    predicate = goal.predicate
    if predicate not in program.idb_predicates():
        raise NotCSLError(f"goal predicate {predicate!r} is not intensional")

    adornment = adornment_from_goal(goal)
    bound = bound_positions(adornment)
    free = free_positions(adornment)
    if not bound:
        raise NotCSLError("goal has no bound argument; nothing to propagate")

    _check_no_mutual_recursion(program, predicate)

    exit_rules: List[Rule] = []
    recursive_rules: List[Rule] = []
    for rule in program.rules_for(predicate):
        occurrences = _count_occurrences(rule, predicate)
        if occurrences == 0:
            exit_rules.append(rule)
        elif occurrences == 1:
            recursive_rules.append(rule)
        else:
            raise NotCSLError(f"rule {rule} is not linear in {predicate!r}")
    if not exit_rules:
        raise NotCSLError(f"no exit rule for {predicate!r}")
    if len(recursive_rules) != 1:
        raise NotCSLError(
            f"expected exactly one recursive rule for {predicate!r}, "
            f"found {len(recursive_rules)}"
        )
    recursive_rule = recursive_rules[0]

    recursive_index = next(
        i
        for i, e in enumerate(recursive_rule.body)
        if isinstance(e, Literal) and e.predicate == predicate
    )
    recursive_literal = recursive_rule.body[recursive_index]
    if recursive_literal.negated:
        raise NotCSLError("recursive literal is negated")

    head = recursive_rule.head
    head_bound_terms = tuple(head.terms[i] for i in bound)
    head_free_terms = tuple(head.terms[i] for i in free)
    rec_bound_terms = tuple(recursive_literal.terms[i] for i in bound)
    rec_free_terms = tuple(recursive_literal.terms[i] for i in free)

    head_bound_vars = _variables(head_bound_terms)
    head_free_vars = _variables(head_free_terms)
    rec_bound_vars = _variables(rec_bound_terms)
    rec_free_vars = _variables(rec_free_terms)

    if head_bound_vars & head_free_vars:
        raise NotCSLError(
            "recursive-rule head shares variables between bound and free "
            "positions; the binding does not separate"
        )
    if (head_bound_vars | rec_bound_vars) & (head_free_vars | rec_free_vars):
        raise NotCSLError(
            "bound-side and free-side variables overlap in the recursive rule"
        )

    other_elements = [
        e for i, e in enumerate(recursive_rule.body) if i != recursive_index
    ]
    left_side_vars = head_bound_vars | rec_bound_vars
    right_side_vars = head_free_vars | rec_free_vars

    left_elements: List = []
    right_elements: List = []
    for members, variables in _connected_components(other_elements):
        touches_left = bool(variables & left_side_vars)
        touches_right = bool(variables & right_side_vars)
        if touches_left and touches_right:
            raise NotCSLError(
                "a body conjunct connects the bound side to the free side; "
                "the rule is not canonical strongly linear"
            )
        target = left_elements if touches_left else right_elements
        if not touches_left and not touches_right:
            # A disconnected conjunct acts as a global filter; attach it
            # to the left so it gates the binding propagation.
            target = left_elements
        for index in sorted(members):
            target.append(other_elements[index])

    # Safety of the decomposition: the recursive call's bound arguments
    # must be computable from the head binding through the left part, and
    # the head's free arguments from the recursive call's free results
    # through the right part.
    left_available = set(head_bound_vars)
    for element in left_elements:
        if isinstance(element, Literal) and not element.negated:
            left_available |= set(element.variables())
    if not rec_bound_vars <= left_available:
        raise NotCSLError(
            "recursive call's bound arguments are not determined by the "
            "left conjunction"
        )
    right_available = set(rec_free_vars)
    for element in right_elements:
        if isinstance(element, Literal) and not element.negated:
            right_available |= set(element.variables())
    if not head_free_vars <= right_available:
        raise NotCSLError(
            "head's free arguments are not determined by the right conjunction"
        )

    return LinearRecursion(
        predicate=predicate,
        goal=goal,
        adornment=adornment,
        bound=bound,
        free=free,
        exit_rules=exit_rules,
        recursive_rule=recursive_rule,
        recursive_index=recursive_index,
        left_elements=left_elements,
        right_elements=right_elements,
        head_bound_terms=head_bound_terms,
        head_free_terms=head_free_terms,
        rec_bound_terms=rec_bound_terms,
        rec_free_terms=rec_free_terms,
    )


#: the predicate each pair set of a CSL query is the extension of, keyed
#: by the :class:`~repro.core.csl.CSLQuery` field, in ``L``/``E``/``R``
#: order
PART_PREDICATES: Dict[str, str] = {
    "left": "__part_l", "exit": "__part_e", "right": "__part_r"
}


def part_rules(
    program: Program, analysis: LinearRecursion
) -> Tuple[List[Rule], List[Tuple[str, int, Rule]]]:
    """What ``L``/``E``/``R`` *are* for a decomposed CSL program.

    Returns ``(support, parts)``.  ``parts`` holds one ``(part, split,
    rule)`` per conjunction: ``rule``'s body is the conjunction and its
    head — predicate ``PART_PREDICATES[part]`` — projects the from-side
    terms, ``split`` of them, then the to-side terms, so a derived row
    cut at ``split`` is one pair of the ``part`` pair set (``exit`` has
    one rule per exit rule; their union is ``E``).  ``support`` is the
    program's rules for every predicate but the recursive one: the
    derived predicates the conjunctions may read.
    """

    def part(name, from_terms, to_terms, body):
        head = Atom(PART_PREDICATES[name], tuple(from_terms) + tuple(to_terms))
        return name, len(from_terms), Rule(head, tuple(body))

    parts = [
        part(
            "left",
            analysis.head_bound_terms,
            analysis.rec_bound_terms,
            analysis.left_elements,
        ),
        part(
            "right",
            analysis.head_free_terms,
            analysis.rec_free_terms,
            analysis.right_elements,
        ),
    ]
    for exit_rule in analysis.exit_rules:
        terms = exit_rule.head.terms
        parts.append(
            part(
                "exit",
                [terms[i] for i in analysis.bound],
                [terms[i] for i in analysis.free],
                exit_rule.body,
            )
        )
    support = [
        r for r in program.rules if r.head.predicate != analysis.predicate
    ]
    return support, parts
