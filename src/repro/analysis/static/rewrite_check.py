"""Rewrite verification: the paper's exact correctness conditions.

Two complementary checks, both fixpoint-free:

**Partition conditions.**  Theorem 1 requires of every Step-1 output
``RM ∪ RC₋ᵢ = MS`` and all-indices on RC-only nodes (``RI_b = I_b``
for ``b ∈ RC₋ᵢ − RM``); Theorem 2 adds ``(0, a) ∈ RC`` for the
integrated mode.  Instead of *running* a Step-1 fixpoint and testing
its output, :func:`expected_reduced_sets` derives each strategy's
reduced sets analytically from the ground-truth classification (itself
a linear SCC + DAG dynamic program), and the verifier feeds them
through :func:`~repro.core.reduced_sets.check_theorem1` /
:func:`check_theorem2`.  A strategy whose *defined* split violates the
conditions on this graph is flagged ``rewrite-partition`` at error
level — it would compute wrong answers, not just slow ones.

**Structural rewrite linting.**  The magic and counting source-to-source
rewrites (:mod:`repro.datalog.magic_rewrite`,
:mod:`repro.datalog.counting_rewrite`) emit ordinary Datalog; the
verifier runs the rule-safety and stratification checks over their
output, so a rewrite that manufactures an unsafe or unstratifiable
program is caught before any engine sees it (``rewrite-unsafe`` /
``rewrite-unstrat``).
"""

from __future__ import annotations

from typing import List, Optional

from ...core.classification import Classification, boundary_index
from ...core.reduced_sets import (
    Mode,
    ReducedSets,
    Strategy,
    check_theorem1,
    check_theorem2,
)
from ...datalog.counting_rewrite import counting_rewrite
from ...datalog.lint import (
    LintFacts,
    check_rule_safety,
    check_stratification,
)
from ...datalog.magic_rewrite import magic_rewrite
from ...diagnostics import Diagnostic
from ...errors import MethodConditionError, ReproError


def expected_reduced_sets(
    classification: Classification, strategy: Strategy
) -> ReducedSets:
    """The reduced sets a correct Step-1 run *must* produce.

    Derived from the ground-truth classification without running any
    Step-1 fixpoint:

    * **basic** — all-or-nothing: count everything on a regular graph,
      magic everything otherwise;
    * **single** — count (with the unique index) strictly below the
      frontier ``i_x``, magic at and above it;
    * **multiple** — count the single nodes, magic the rest;
    * **recurring** — count every non-recurring node with *all* its
      indices, magic only the recurring ones.
    """
    ms = set(classification.shortest_distance)
    if strategy is Strategy.BASIC:
        if classification.is_regular:
            rc = {
                (next(iter(indices)), node)
                for node, indices in classification.distance_sets.items()
            }
            return ReducedSets(rc=rc, rm=set(), ms=ms, strategy=strategy)
        return ReducedSets(rc=set(), rm=set(ms), ms=ms, strategy=strategy)
    if strategy is Strategy.SINGLE:
        frontier = boundary_index(classification)
        rc = {
            (distance, node)
            for node, distance in classification.shortest_distance.items()
            if distance < frontier
        }
        rm = {
            node
            for node, distance in classification.shortest_distance.items()
            if distance >= frontier
        }
        return ReducedSets(rc=rc, rm=rm, ms=ms, strategy=strategy)
    if strategy is Strategy.MULTIPLE:
        rc = {
            (next(iter(classification.distance_sets[node])), node)
            for node in classification.single
        }
        rm = set(classification.multiple) | set(classification.recurring)
        return ReducedSets(rc=rc, rm=rm, ms=ms, strategy=strategy)
    rc = {
        (index, node)
        for node, indices in classification.distance_sets.items()
        for index in indices
    }
    return ReducedSets(
        rc=rc, rm=set(classification.recurring), ms=ms, strategy=strategy
    )


def verify_partition_conditions(
    classification: Classification, source
) -> List[Diagnostic]:
    """Check every strategy × mode against Theorems 1 and 2."""
    diagnostics: List[Diagnostic] = []
    for strategy in Strategy:
        reduced = expected_reduced_sets(classification, strategy)
        for mode in Mode:
            candidate = ReducedSets(
                rc=set(reduced.rc),
                rm=set(reduced.rm),
                ms=set(reduced.ms),
                strategy=strategy,
            )
            try:
                if mode is Mode.INTEGRATED:
                    candidate.ensure_source_pair(source)
                    check_theorem2(candidate, classification, source)
                else:
                    check_theorem1(candidate, classification, source)
            except MethodConditionError as error:
                diagnostics.append(
                    Diagnostic(
                        "error",
                        "rewrite-partition",
                        f"strategy {strategy.value!r} ({mode.value} mode) "
                        f"violates the paper's correctness conditions: "
                        f"{error}",
                    )
                )
    return diagnostics


def lint_rewrite_outputs(program) -> List[Diagnostic]:
    """Structurally lint the magic/counting rewrites of ``program``.

    A rewrite pass must emit safe, stratifiable Datalog; anything else
    is a generator bug surfaced here as an error, without ever
    evaluating the broken output.
    """
    diagnostics: List[Diagnostic] = []
    for kind, rewriter in (("magic", magic_rewrite),
                           ("counting", counting_rewrite)):
        try:
            rewritten = LintFacts(rewriter(program))
        except ReproError:
            # Outside the rewrite's input class — the csl-shape pass
            # already reports that; nothing to lint.
            continue
        for diagnostic in check_rule_safety(rewritten):
            diagnostics.append(
                Diagnostic(
                    "error",
                    "rewrite-unsafe",
                    f"{kind} rewrite produced an unsafe rule: "
                    f"{diagnostic.message}",
                    diagnostic.rule,
                )
            )
        for diagnostic in check_stratification(rewritten):
            diagnostics.append(
                Diagnostic(
                    "error",
                    "rewrite-unstrat",
                    f"{kind} rewrite produced an unstratifiable program: "
                    f"{diagnostic.message}",
                )
            )
    return diagnostics


def verify_rewrites(
    program,
    classification: Optional[Classification],
    source,
) -> List[Diagnostic]:
    """The full rewrite-verification pass for one program."""
    diagnostics: List[Diagnostic] = []
    if classification is not None:
        diagnostics.extend(
            verify_partition_conditions(classification, source)
        )
    if getattr(program, "query", None) is not None:
        diagnostics.extend(lint_rewrite_outputs(program))
    return diagnostics
