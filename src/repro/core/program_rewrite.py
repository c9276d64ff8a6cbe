"""The paper's modified-rule listings, emitted as real Datalog programs.

Sections 4 and 5 present the magic counting methods as *rewritten rule
sets* ("MODIFIED RULES & QUERY FOR INDEPENDENT/INTEGRATED MC METHODS").
The direct engines in :mod:`repro.core.step2` implement those rules as
specialised fixpoints; this module emits them as honest-to-goodness
Datalog programs instead — RC, RM and MS become EDB relations, the
modified rules become textual rules, and the semi-naive engine of
:mod:`repro.datalog.evaluation` evaluates them.

This closes an important validation loop: the OCR-corrected reading of
the integrated transfer rule (rule 3 of Section 5; see DESIGN.md) is
checked *twice*, once by the specialised engine and once by the generic
engine running the emitted program, and both must agree with the naive
oracle on arbitrary instances (tests/test_program_rewrite.py).

Generalises to the full CSL class via
:func:`repro.datalog.linear.analyze_linear` — multi-column bindings and
conjunctive or derived L/E/R parts all work.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..datalog.atom import Atom, Literal
from ..datalog.builtins import arithmetic, comparison
from ..datalog.counting_rewrite import _fresh_index_variables
from ..datalog.linear import LinearRecursion, analyze_linear
from ..datalog.program import Program
from ..datalog.rule import Rule
from ..datalog.term import Constant
from .csl import CSLQuery
from .reduced_sets import Mode, ReducedSets, Strategy
from .step1 import reduced_sets_for


def reduced_set_names(predicate: str) -> Tuple[str, str, str]:
    """EDB relation names for (RC, RM, MS) of ``predicate``."""
    return f"rc_{predicate}", f"rm_{predicate}", f"ms_{predicate}"


def _as_values(source) -> Tuple:
    """Normalize a (possibly tuple-valued) bound part to columns."""
    return source if isinstance(source, tuple) else (source,)


def reduced_set_facts(predicate: str, reduced: ReducedSets):
    """Ground fact rules materializing RC/RM/MS for the rewritten
    program (yielded as bodiless rules)."""
    rc_name, rm_name, ms_name = reduced_set_names(predicate)
    for index, value in sorted(reduced.rc, key=repr):
        yield Rule(Atom(rc_name, (Constant(index),) + tuple(
            Constant(v) for v in _as_values(value))))
    for value in sorted(reduced.rm, key=repr):
        yield Rule(Atom(rm_name, tuple(Constant(v) for v in _as_values(value))))
    for value in sorted(reduced.ms, key=repr):
        yield Rule(Atom(ms_name, tuple(Constant(v) for v in _as_values(value))))


def magic_counting_program(
    program: Program,
    reduced: ReducedSets,
    mode: Mode,
    goal: Atom = None,
    analysis: Optional[LinearRecursion] = None,
) -> Program:
    """Emit the Section 4 (independent) or Section 5 (integrated)
    modified rules for ``program`` as a Datalog program.

    ``reduced`` supplies RC/RM/MS (computed by any Step-1 strategy; for
    the integrated mode call ``reduced.ensure_source_pair`` first).
    Rules of derived (non-recursive) predicates are carried over.
    """
    if analysis is None:
        analysis = analyze_linear(program, goal)
    goal = analysis.goal
    predicate = analysis.predicate
    rc_name, rm_name, ms_name = reduced_set_names(predicate)
    pc_name = f"pc_{predicate}"
    pm_name = f"pm_{predicate}"
    index_var, next_index_var = _fresh_index_variables(analysis)

    rewritten = Program()
    for rule in program.rules:
        if rule.head.predicate != predicate:
            rewritten.add_rule(rule)
    for fact in reduced_set_facts(predicate, reduced):
        rewritten.add_rule(fact)

    goal_free = tuple(goal.terms[i] for i in analysis.free)

    # --- counting part (shared by both modes) --------------------------
    # P_C(J, Y) :- RC(J, Xexit), exit body.            (one per exit rule)
    for exit_rule in analysis.exit_rules:
        exit_bound = tuple(exit_rule.head.terms[i] for i in analysis.bound)
        exit_free = tuple(exit_rule.head.terms[i] for i in analysis.free)
        rewritten.add_rule(
            Rule(
                Atom(pc_name, (index_var, *exit_free)),
                (
                    Literal(Atom(rc_name, (index_var, *exit_bound))),
                    *exit_rule.body,
                ),
            )
        )
    # P_C(J-1, Y) :- P_C(J, Y1), R...  (guarded at zero, Prolog-style)
    rewritten.add_rule(
        Rule(
            Atom(pc_name, (next_index_var, *analysis.head_free_terms)),
            (
                Literal(Atom(pc_name, (index_var, *analysis.rec_free_terms))),
                *analysis.right_elements,
                comparison(">=", index_var, 1),
                arithmetic(next_index_var, index_var, "-", 1),
            ),
        )
    )

    # --- magic part ------------------------------------------------------
    # P_M exit: P_M(X, Y) :- RM(Xexit), exit body.  (P_M keeps the
    # predicate's original argument layout, so the exit head carries over.)
    for exit_rule in analysis.exit_rules:
        exit_bound = tuple(exit_rule.head.terms[i] for i in analysis.bound)
        rewritten.add_rule(
            Rule(
                Atom(pm_name, exit_rule.head.terms),
                (Literal(Atom(rm_name, exit_bound)), *exit_rule.body),
            )
        )
    # P_M recursion: guard is MS for independent (§4 rule 4), RM for
    # integrated (§5 rule 2).
    recursion_guard = ms_name if mode is Mode.INDEPENDENT else rm_name
    rewritten.add_rule(
        Rule(
            Atom(pm_name, analysis.recursive_rule.head.terms),
            (
                Literal(Atom(recursion_guard, analysis.head_bound_terms)),
                *analysis.left_elements,
                Literal(Atom(pm_name, analysis.recursive_literal.terms)),
                *analysis.right_elements,
            ),
        )
    )

    if mode is Mode.INTEGRATED:
        # §5 rule 3 (the transfer rule, OCR-corrected):
        # P_C(J, Y) :- RC(J, X), L..., P_M(X1, Y1), R...
        rewritten.add_rule(
            Rule(
                Atom(pc_name, (index_var, *analysis.head_free_terms)),
                (
                    Literal(Atom(rc_name, (index_var, *analysis.head_bound_terms))),
                    *analysis.left_elements,
                    Literal(Atom(pm_name, analysis.recursive_literal.terms)),
                    *analysis.right_elements,
                ),
            )
        )
        # §5 rule 6: the answer comes from the counting part only.
        answer_atom = Atom("answer_" + predicate, goal_free)
        rewritten.add_rule(
            Rule(answer_atom, (Literal(Atom(pc_name, (Constant(0), *goal_free))),))
        )
    else:
        # §4 rules 5 and 6: both parts feed the answer.
        answer_atom = Atom("answer_" + predicate, goal_free)
        rewritten.add_rule(
            Rule(answer_atom, (Literal(Atom(pc_name, (Constant(0), *goal_free))),))
        )
        rewritten.add_rule(
            Rule(answer_atom, (Literal(Atom(pm_name, goal.terms)),))
        )

    rewritten.query = Atom("answer_" + predicate, goal_free)
    return rewritten


def method_program(
    query: CSLQuery,
    strategy: Strategy = Strategy.MULTIPLE,
    mode: Mode = Mode.INTEGRATED,
    scc_step1: bool = False,
) -> Program:
    """One method's modified-rule listing as a Datalog program artifact.

    Runs Step 1 and emits the Section 4/5 modified rules via
    :func:`magic_counting_program`.  Returns the rules as emitted — the
    optimized twin is ``optimize_program(program, query.database())``
    from :mod:`repro.analysis.rewrite`, which ``core`` does not import.  This
    is the inspectable/benchmarkable twin of
    :func:`~repro.core.methods.magic_counting`: same Step 1, but the
    Step 2 fixpoint stays a program for the generic engine instead of a
    specialised loop.
    """
    reduced = reduced_sets_for(query.instance(), strategy, mode, scc_step1)
    return magic_counting_program(query.to_program(), reduced, mode)


def evaluate_with_program_rewrite(query, strategy, mode, scc_step1=False):
    """Convenience: CSLQuery -> Step 1 -> emitted program -> semi-naive.

    Returns the answer set; used by the cross-validation tests to check
    the specialised Step-2 engines against the generic Datalog engine
    evaluating the paper's literal rule listings.
    """
    from ..datalog.evaluation import answer_tuples

    rewritten = method_program(query, strategy, mode, scc_step1)
    return frozenset(v for (v,) in answer_tuples(rewritten, query.database()))
