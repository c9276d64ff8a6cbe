"""The eight magic counting methods: Strategy × Mode dispatch.

``magic_counting(query, strategy, mode)`` runs Step 1 (the chosen
reduced-set computation) followed by Step 2 (independent or integrated
modified rules) over one cost counter, and returns an
:class:`AnswerResult` whose ``details`` expose the reduced sets and the
per-step diagnostics.  All eight methods are safe on every input
(Proposition 3 — every Step-1 fixpoint terminates by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .cost import AnswerResult
from .csl import CSLQuery
from .reduced_sets import Mode, Strategy
from .step1 import compute_reduced_sets
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
    reduced = compute_reduced_sets(instance, strategy, scc_variant=scc_step1)
    step1_retrievals = instance.counter.retrievals
    if mode is Mode.INTEGRATED:
        reduced.ensure_source_pair(instance.source)
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
        "step1_retrievals": step1_retrievals,
        "step2_retrievals": instance.counter.retrievals - step1_retrievals,
    }
    details.update(step2_details)
    return AnswerResult(
        answers=frozenset(answers),
        method=method_name(strategy, mode, scc_step1),
        cost=instance.counter,
        details=details,
    )


def method_program(
    query: CSLQuery,
    strategy: Strategy = Strategy.MULTIPLE,
    mode: Mode = Mode.INTEGRATED,
    scc_step1: bool = False,
    optimize: bool = False,
):
    """One method's modified-rule listing as a Datalog program artifact.

    Runs Step 1, emits the Section 4/5 modified rules via
    :func:`~repro.core.program_rewrite.magic_counting_program`, and —
    with ``optimize`` — feeds them through the static program optimizer
    against the query's database snapshot.  Returns ``(program,
    report)`` where ``report`` is the
    :class:`~repro.analysis.rewrite.OptimizationReport` (``None`` when
    ``optimize`` is off).  This is the inspectable/benchmarkable twin of
    :func:`magic_counting`: same Step 1, but the Step 2 fixpoint stays
    a program for the generic engine instead of a specialised loop.
    """
    from .program_rewrite import magic_counting_program

    instance = query.instance()
    reduced = compute_reduced_sets(instance, strategy, scc_variant=scc_step1)
    if mode is Mode.INTEGRATED:
        reduced.ensure_source_pair(instance.source)
    program = magic_counting_program(query.to_program(), reduced, mode)
    if not optimize:
        return program, None
    from ..analysis.rewrite import optimize_program

    report = optimize_program(program, query.database())
    return report.program, report


def all_method_coordinates():
    """The eight (strategy, mode) pairs, in the paper's order."""
    return [
        (strategy, mode)
        for strategy in (
            Strategy.BASIC,
            Strategy.SINGLE,
            Strategy.MULTIPLE,
            Strategy.RECURRING,
        )
        for mode in (Mode.INDEPENDENT, Mode.INTEGRATED)
    ]


@dataclass(frozen=True, eq=False)
class PlanRecommendation:
    """One method choice, with the *why* attached.

    Unpacks like the historical 4-tuple (``name, strategy, mode,
    scc_step1 = recommended_plan(...)`` keeps working), but carries
    provenance — ``"heuristic"`` for the regime policy, ``"certified-
    bound"`` when a cost certificate ranked the candidates, and
    ``"heuristic-fallback"`` when a certificate was offered but
    abstained on every candidate — plus a ranked candidate table in
    ``details["ranking"]``.
    """

    method: str
    strategy: Optional[Strategy]
    mode: Optional[Mode]
    scc_step1: bool
    provenance: str = "heuristic"
    details: Dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter((self.method, self.strategy, self.mode, self.scc_step1))

    def __getitem__(self, index):
        return (self.method, self.strategy, self.mode, self.scc_step1)[index]

    def __len__(self) -> int:
        return 4


def plan_candidates() -> List[Tuple[str, Optional[Strategy], Optional[Mode], bool]]:
    """Every plan the ranking considers, in preference order (the order
    breaks exact bound ties after the heuristic choice).  The
    ``extended_counting`` and ``magic_set`` methods are certified too but
    never ranked: they run only when asked for by name."""
    candidates: List[Tuple[str, Optional[Strategy], Optional[Mode], bool]] = [
        ("counting", None, None, False)
    ]
    for strategy, mode in all_method_coordinates():
        candidates.append((method_name(strategy, mode), strategy, mode, False))
    for mode in (Mode.INDEPENDENT, Mode.INTEGRATED):
        candidates.append(
            (
                method_name(Strategy.RECURRING, mode, scc_step1=True),
                Strategy.RECURRING,
                mode,
                True,
            )
        )
    return candidates


def _heuristic_plan(classification) -> PlanRecommendation:
    if classification.is_regular:
        choice: Tuple[str, Optional[Strategy], Optional[Mode], bool] = (
            "counting", None, None, False,
        )
        reason = "regular magic graph: pure counting is unbeatable there"
    elif not classification.is_cyclic:
        choice = (
            method_name(Strategy.MULTIPLE, Mode.INTEGRATED),
            Strategy.MULTIPLE,
            Mode.INTEGRATED,
            False,
        )
        reason = (
            "acyclic non-regular: the integrated multiple method is the "
            "best measured all-rounder without recurring Step-1 overhead"
        )
    else:
        choice = (
            method_name(Strategy.RECURRING, Mode.INTEGRATED, scc_step1=True),
            Strategy.RECURRING,
            Mode.INTEGRATED,
            True,
        )
        reason = (
            "cyclic: the integrated recurring method with the linear-time "
            "SCC Step 1"
        )
    name, strategy, mode, scc = choice
    return PlanRecommendation(
        method=name,
        strategy=strategy,
        mode=mode,
        scc_step1=scc,
        provenance="heuristic",
        details={"reason": reason, "heuristic": name},
    )


def recommended_plan(classification, cost_certificate=None):
    """The selection policy: certified bounds first, regime heuristics
    as the fallback.

    Returns a :class:`PlanRecommendation` (unpacks as the historical
    ``(method_name, strategy, mode, scc_step1)`` tuple; ``strategy``
    and ``mode`` are None for the pure counting method).  This is the
    single source of truth shared by :func:`repro.core.solver.
    adaptive_solve` and the static method-admissibility advisory.

    Without a certificate the regime policy applies: **regular** — the
    pure counting method; **acyclic non-regular** — the integrated
    multiple method; **cyclic** — the integrated recurring method with
    the SCC Step 1.

    With a ``cost_certificate`` (a :class:`repro.analysis.cost.
    CostCertificate` for this source) every executable candidate with a
    certified finite bound is ranked and the smallest bound wins; exact
    ties prefer the heuristic choice, then candidate order.  When the
    certificate abstains on every candidate the heuristic choice stands
    (provenance ``"heuristic-fallback"``).  Either way
    ``details["ranking"]`` records the full table.
    """
    heuristic = _heuristic_plan(classification)
    if cost_certificate is None:
        return heuristic

    candidates = plan_candidates()
    ranking: List[Dict[str, object]] = []
    best: Optional[Tuple[str, Optional[Strategy], Optional[Mode], bool]] = None
    best_bound: Optional[int] = None
    for candidate in candidates:
        name = candidate[0]
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
            and name == heuristic.method
        )
        if improves or ties_to_heuristic:
            best, best_bound = candidate, bound

    ranking.sort(
        key=lambda row: (
            row["bound"] is None,
            row["bound"] if row["bound"] is not None else 0,
        )
    )
    details: Dict[str, object] = {
        "heuristic": heuristic.method,
        "ranking": ranking,
        "widened": cost_certificate.widened,
    }
    if best is None:
        details["reason"] = (
            "the cost analyzer abstained on every candidate; "
            "falling back to the regime heuristic "
            f"({heuristic.details['reason']})"
        )
        return PlanRecommendation(
            method=heuristic.method,
            strategy=heuristic.strategy,
            mode=heuristic.mode,
            scc_step1=heuristic.scc_step1,
            provenance="heuristic-fallback",
            details=details,
        )
    name, strategy, mode, scc = best
    for row in ranking:
        if row["method"] == name:
            row["selected"] = True
            break
    details["reason"] = (
        f"smallest certified retrieval bound ({best_bound}); "
        f"heuristic would pick {heuristic.method}"
        if name != heuristic.method
        else f"smallest certified retrieval bound ({best_bound}), "
        "agreeing with the regime heuristic"
    )
    return PlanRecommendation(
        method=name,
        strategy=strategy,
        mode=mode,
        scc_step1=scc,
        provenance="certified-bound",
        details=details,
    )
