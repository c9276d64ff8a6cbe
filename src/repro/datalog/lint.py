"""Static diagnostics for Datalog programs.

:func:`lint_program` returns a list of :class:`Diagnostic` findings:

===========  =======  ====================================================
code         level    meaning
===========  =======  ====================================================
``unsafe``   error    a rule violates range restriction
``unstrat``  error    recursion through negation
``undefined`` warning a body predicate with no rules and (if a database
                      is supplied) no facts — usually a typo
``unused``   warning  an IDB predicate never referenced by any body nor
                      by the query goal
``unreachable`` warning a rule that can never contribute to the query
                      goal (its head predicate is not in the goal's
                      dependency cone)
``singleton`` info    a variable occurring exactly once in a rule —
                      legal, but the classic typo smell
===========  =======  ====================================================

Each check is a ``check_*`` function from program facts (anything with
``program`` and ``database`` attributes) to diagnostics.
:data:`LINT_PASSES` lists the six in execution order:
:func:`lint_program` runs exactly those, and the
:mod:`repro.analysis.static` pipeline starts with them.

Two deliberate behaviours, pinned by tests:

* a predicate referenced *only* through negated body literals counts as
  used — negation is a real dependency, not dead code
  (:func:`check_unused` scans every literal polarity);
* variables following the anonymous/underscore convention (``_``,
  ``_X``) are intentionally single-use and never flagged as singletons.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set

from ..diagnostics import Diagnostic, Pass, run_passes, sort_diagnostics
from ..errors import SafetyError, StratificationError
from .atom import BuiltinAtom, Literal
from .database import Database
from .program import Program
from .rule import Rule
from .stratify import stratify
from .term import Variable


class LintFacts(NamedTuple):
    """The slice of program facts the classic checks read.

    :class:`repro.analysis.static.facts.ProgramFacts` has the same two
    attributes, so the checks run unchanged inside the full pipeline.
    """

    program: Program
    database: Optional[Database] = None


def _singleton_variables(rule: Rule) -> List[Variable]:
    counts: Dict[Variable, int] = {}
    sources = [rule.head, *rule.body]
    for source in sources:
        terms = source.terms if not isinstance(source, BuiltinAtom) else source.args
        for term in terms:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    return sorted(
        (v for v, n in counts.items() if n == 1 and not v.name.startswith("_")),
        key=lambda v: v.name,
    )


def goal_cone(program: Program) -> Optional[Set[str]]:
    """Predicates the query goal transitively depends on (None: no goal)."""
    if program.query is None:
        return None
    graph = program.dependency_graph()
    cone = {program.query.predicate}
    stack = [program.query.predicate]
    while stack:
        predicate = stack.pop()
        for dependency in graph.get(predicate, ()):
            if dependency not in cone:
                cone.add(dependency)
                stack.append(dependency)
    return cone


def referenced_predicates(program: Program) -> Set[str]:
    """Every predicate referenced by a body literal — **both** polarities
    — or by the query goal.

    Negated literals are real dependencies (the stratified engine reads
    the complement of the relation), so a predicate used only under
    ``not`` must not be reported as unused.
    """
    referenced: Set[str] = set()
    for rule in program.rules:
        for element in rule.body:
            if isinstance(element, Literal):
                referenced.add(element.predicate)
    if program.query is not None:
        referenced.add(program.query.predicate)
    return referenced


# --- individual checks -----------------------------------------------------


def check_rule_safety(facts: LintFacts) -> List[Diagnostic]:
    """``unsafe``: range-restriction violations, one finding per rule."""
    diagnostics: List[Diagnostic] = []
    for rule in facts.program.rules:
        try:
            rule.check_safety()
        except SafetyError as error:
            diagnostics.append(Diagnostic("error", "unsafe", str(error), rule))
    return diagnostics


def check_stratification(facts: LintFacts) -> List[Diagnostic]:
    """``unstrat``: recursion through negation, whole program."""
    try:
        stratify(facts.program)
    except StratificationError as error:
        return [Diagnostic("error", "unstrat", str(error))]
    return []


def check_undefined(facts: LintFacts) -> List[Diagnostic]:
    """``undefined``: body predicates with no rules and no facts."""
    program, database = facts.program, facts.database
    diagnostics: List[Diagnostic] = []
    for predicate in sorted(program.edb_predicates()):
        if database is not None and database.has_relation(predicate):
            continue
        if program.query is not None and program.query.predicate == predicate:
            continue
        diagnostics.append(
            Diagnostic(
                "warning",
                "undefined",
                f"predicate {predicate!r} has no rules"
                + ("" if database is None else " and no facts"),
            )
        )
    return diagnostics


def check_unused(facts: LintFacts) -> List[Diagnostic]:
    """``unused``: IDB predicates never referenced anywhere.

    A reference through a negated literal (or any literal polarity)
    counts as a use; only predicates with *zero* references outside
    their own definitions are flagged.
    """
    referenced = referenced_predicates(facts.program)
    return [
        Diagnostic(
            "warning", "unused",
            f"predicate {predicate!r} is defined but never used",
        )
        for predicate in sorted(facts.program.idb_predicates() - referenced)
    ]


def check_unreachable(facts: LintFacts) -> List[Diagnostic]:
    """``unreachable``: rules outside the goal's dependency cone."""
    cone = goal_cone(facts.program)
    if cone is None:
        return []
    return [
        Diagnostic(
            "warning", "unreachable",
            f"rule for {rule.head.predicate!r} cannot contribute "
            "to the query goal",
            rule,
        )
        for rule in facts.program.rules
        if rule.head.predicate not in cone
    ]


def check_singletons(facts: LintFacts) -> List[Diagnostic]:
    """``singleton``: variables occurring exactly once in a rule.

    Underscore-prefixed names (``_``, ``_X``) follow the anonymous
    variable convention and are skipped — they announce single use.
    """
    diagnostics: List[Diagnostic] = []
    for rule in facts.program.rules:
        for variable in _singleton_variables(rule):
            diagnostics.append(
                Diagnostic(
                    "info", "singleton",
                    f"variable {variable.name} occurs only once "
                    "(use a leading underscore to silence)",
                    rule,
                )
            )
    return diagnostics


#: The classic checks, in execution order.
LINT_PASSES = (
    Pass("rule-safety", "range restriction on every rule", check_rule_safety),
    Pass(
        "stratification", "no recursion through negation", check_stratification
    ),
    Pass(
        "undefined", "body predicates with no rules and no facts",
        check_undefined,
    ),
    Pass(
        "unused", "IDB predicates never referenced (any polarity)",
        check_unused,
    ),
    Pass(
        "unreachable", "rules outside the goal's dependency cone",
        check_unreachable,
    ),
    Pass(
        "singletons", "single-occurrence variables (underscore-exempt)",
        check_singletons,
    ),
)


def lint_program(
    program: Program, database: Optional[Database] = None
) -> List[Diagnostic]:
    """Run the six classic checks; diagnostics sorted errors-first."""
    return sort_diagnostics(
        run_passes(LINT_PASSES, LintFacts(program, database))
    )
