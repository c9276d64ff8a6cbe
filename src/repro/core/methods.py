"""The method table, and the Strategy × Mode dispatch behind eight rows.

:data:`METHODS` is the one place that says which evaluation methods
exist: the counting and magic set methods, the [MPS] and [HN]
reconstructions, the eight magic counting methods addressed by two
coordinates (Sections 4-9, Figure 3) and the two SCC Step-1 variants.
Everything that names, runs, ranks or lists methods — ``solve``, the
adaptive policy, the measurement harness, the Θ-predictions, the static
admissibility advisory, the CLI and the REPL — reads it.

``magic_counting(query, strategy, mode)`` runs Step 1 (the chosen
reduced-set computation) followed by Step 2 (independent or integrated
modified rules) over one cost counter, and returns an
:class:`AnswerResult` whose ``details`` expose the reduced sets and the
per-step diagnostics.  All eight methods are safe on every input
(Proposition 3 — every Step-1 fixpoint terminates by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from .classification import MagicGraphClass
from .cost import AnswerResult
from .counting_method import counting_method, extended_counting_method
from .csl import CSLQuery
from .hn_method import hn_method
from .magic_method import magic_set_method
from .reduced_sets import Mode, Strategy
from .step1 import reduced_sets_for
from .step2 import independent_step2, integrated_step2


def method_name(strategy: Strategy, mode: Mode, scc_step1: bool = False) -> str:
    suffix = "_scc" if scc_step1 else ""
    return f"mc_{strategy.value}_{mode.value}{suffix}"


def magic_counting(
    query: CSLQuery,
    strategy: Strategy = Strategy.MULTIPLE,
    mode: Mode = Mode.INTEGRATED,
    counter=None,
    scc_step1: bool = False,
    verify_conditions: bool = False,
) -> AnswerResult:
    """Evaluate ``query`` with the selected magic counting method.

    Parameters
    ----------
    strategy:
        How Step 1 splits the magic set (BASIC, SINGLE, MULTIPLE,
        RECURRING) — Sections 6-9.
    mode:
        INDEPENDENT or INTEGRATED cooperation — Sections 4-5.
    scc_step1:
        Use the linear-time SCC implementation of the recurring Step 1
        (only meaningful with ``Strategy.RECURRING``).
    verify_conditions:
        Debug mode: after Step 1, check the Theorem 1 / Theorem 2
        correctness conditions against a ground-truth classification and
        raise :class:`~repro.errors.MethodConditionError` on violation.
        Costs an extra pass over the graph; off by default.
    """
    instance = query.instance(counter)
    # A caller's counter may already carry charges: report differences.
    retrievals_on_entry = instance.counter.retrievals
    reduced = reduced_sets_for(instance, strategy, mode, scc_step1)
    retrievals_after_step1 = instance.counter.retrievals
    if verify_conditions:
        from .classification import classify_nodes
        from .reduced_sets import check_theorem1, check_theorem2

        classification = classify_nodes(query)
        if mode is Mode.INTEGRATED:
            check_theorem2(reduced, classification, instance.source)
        else:
            check_theorem1(reduced, classification, instance.source)
    if mode is Mode.INTEGRATED:
        answers, step2_details = integrated_step2(instance, reduced)
    else:
        answers, step2_details = independent_step2(instance, reduced)
    details = {
        "strategy": strategy.value,
        "mode": mode.value,
        "rc_size": len(reduced.rc),
        "rm_size": len(reduced.rm),
        "ms_size": len(reduced.ms),
        "reduced_sets": reduced,
        "step1_retrievals": retrievals_after_step1 - retrievals_on_entry,
        "step2_retrievals": instance.counter.retrievals - retrievals_after_step1,
    }
    details.update(step2_details)
    return AnswerResult(
        answers=frozenset(answers),
        method=method_name(strategy, mode, scc_step1),
        cost=instance.counter,
        details=details,
    )


@dataclass(frozen=True)
class Method:
    """One row of :data:`METHODS`.

    ``run(query, counter=None)`` evaluates the query.  ``strategy`` and
    ``mode`` are the two coordinates of a magic counting method (None
    for the four others) and ``scc_step1`` marks the linear-time Step-1
    variant.  ``needs_acyclic``: the method terminates only on an
    acyclic magic graph and raises :class:`~repro.errors.
    UnsafeQueryError` otherwise.  ``ranked``: a candidate of
    :func:`recommended_plan` — the others run only when asked for by
    name.
    """

    name: str
    run: Callable[..., AnswerResult]
    strategy: Optional[Strategy] = None
    mode: Optional[Mode] = None
    scc_step1: bool = False
    needs_acyclic: bool = False
    ranked: bool = False


def _hybrid(strategy: Strategy, mode: Mode, scc_step1: bool = False) -> Method:
    run = partial(
        magic_counting, strategy=strategy, mode=mode, scc_step1=scc_step1
    )
    name = method_name(strategy, mode, scc_step1)
    return Method(name, run, strategy, mode, scc_step1, ranked=True)


#: Every evaluation method, in the order every table, certificate and
#: ranking lists them (the order also breaks exact bound ties in
#: :func:`recommended_plan`, after the heuristic choice).
METHODS: Dict[str, Method] = {
    row.name: row
    for row in (
        Method("counting", counting_method, needs_acyclic=True, ranked=True),
        Method("extended_counting", extended_counting_method),
        Method("magic_set", magic_set_method),
        Method("henschen_naqvi", hn_method, needs_acyclic=True),
        *(_hybrid(strategy, mode) for strategy in Strategy for mode in Mode),
        *(_hybrid(Strategy.RECURRING, mode, True) for mode in Mode),
    )
}


def all_method_coordinates():
    """The eight (strategy, mode) pairs, in the paper's order."""
    return [
        (row.strategy, row.mode)
        for row in METHODS.values()
        if row.strategy is not None and not row.scc_step1
    ]


@dataclass(frozen=True, eq=False)
class PlanRecommendation:
    """One method choice, with the *why* attached.

    ``method`` names a :data:`METHODS` row; ``provenance`` is
    ``"certified-bound"`` when the cost certificate ranked the
    candidates and ``"heuristic-fallback"`` when it abstained on every
    candidate — plus a ranked candidate table in ``details["ranking"]``.
    """

    method: str
    provenance: str
    details: Dict[str, object] = field(default_factory=dict)


def plan_candidates() -> List[Method]:
    """Every plan the ranking considers, in preference order: the
    ``ranked`` rows.  The ``extended_counting``, ``magic_set`` and
    ``henschen_naqvi`` methods are certified too but never ranked: they
    run only when asked for by name."""
    return [row for row in METHODS.values() if row.ranked]


def _heuristic_choice(graph_class: MagicGraphClass):
    """The regime rule: the ranking's tie-break and its fallback when
    the certificate abstains on every candidate.  Returns the row name
    and the reason."""
    if graph_class is MagicGraphClass.REGULAR:
        return "counting", (
            "regular magic graph: pure counting is unbeatable there"
        )
    if graph_class is MagicGraphClass.ACYCLIC:
        return method_name(Strategy.MULTIPLE, Mode.INTEGRATED), (
            "acyclic non-regular: the integrated multiple method is the "
            "best measured all-rounder without recurring Step-1 overhead"
        )
    return method_name(Strategy.RECURRING, Mode.INTEGRATED, scc_step1=True), (
        "cyclic: the integrated recurring method with the linear-time "
        "SCC Step 1"
    )


def recommended_plan(cost_certificate, classification=None):
    """The selection policy: the smallest certified bound wins.

    Returns a :class:`PlanRecommendation` naming a :data:`METHODS` row.
    ``cost_certificate`` is a :class:`repro.analysis.cost.
    CostCertificate` for one source; callers reach this through
    :func:`repro.analysis.cost.analyze_cost_query`, which is what
    :func:`repro.core.solver.adaptive_solve`, the service's
    ``adaptive`` and both analyzers read.

    Every executable candidate with a certified finite bound is ranked
    and the smallest bound wins; exact ties prefer the regime rule's
    choice (**regular** — the pure counting method; **acyclic
    non-regular** — the integrated multiple method; **cyclic** — the
    integrated recurring method with the SCC Step 1), then candidate
    order.  When the certificate abstains on every candidate the regime
    rule's choice stands (provenance ``"heuristic-fallback"``).  Either
    way ``details["ranking"]`` records the full table.

    The regime is read from ``cost_certificate.graph_class``;
    ``classification`` — anything with a ``graph_class``, such as the
    unbounded region's abstract the cost analyzer passes — is needed
    only when the certificate was widened and proved no graph class.
    """
    graph_class = (
        cost_certificate.graph_class
        if classification is None
        else classification.graph_class
    )
    heuristic, heuristic_reason = _heuristic_choice(graph_class)

    ranking: List[Dict[str, object]] = []
    best: Optional[str] = None
    best_bound: Optional[int] = None
    for candidate in plan_candidates():
        name = candidate.name
        bound = cost_certificate.bound_for(name)
        entry = cost_certificate.bounds.get(name)
        ranking.append(
            {
                "method": name,
                "bound": bound,
                "provenance": "certified-bound" if bound is not None
                else "abstained",
                "reason": None if entry is None else entry.reason,
                "selected": False,
            }
        )
        if bound is None:
            continue
        improves = best_bound is None or bound < best_bound
        ties_to_heuristic = (
            best_bound is not None
            and bound == best_bound
            and name == heuristic
        )
        if improves or ties_to_heuristic:
            best, best_bound = name, bound

    ranking.sort(
        key=lambda row: (
            row["bound"] is None,
            row["bound"] if row["bound"] is not None else 0,
        )
    )
    details: Dict[str, object] = {
        "heuristic": heuristic,
        "ranking": ranking,
        "widened": cost_certificate.widened,
    }
    if best is None:
        details["reason"] = (
            "the cost analyzer abstained on every candidate; "
            "falling back to the regime heuristic "
            f"({heuristic_reason})"
        )
        return PlanRecommendation(
            method=heuristic,
            provenance="heuristic-fallback",
            details=details,
        )
    for row in ranking:
        if row["method"] == best:
            row["selected"] = True
            break
    details["reason"] = (
        f"smallest certified retrieval bound ({best_bound}); "
        f"heuristic would pick {heuristic}"
        if best != heuristic
        else f"smallest certified retrieval bound ({best_bound}), "
        "agreeing with the regime heuristic"
    )
    return PlanRecommendation(
        method=best, provenance="certified-bound", details=details
    )
