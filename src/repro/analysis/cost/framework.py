"""The cost analyzer: its facts, passes, report, and runner.

An instance of the :mod:`repro.diagnostics` kernel: the passes are
functions from shared :class:`CostFacts` to diagnostics, and
:func:`run_cost_analysis` folds diagnostics plus the structured
artifacts — the :class:`~repro.analysis.cost.certificate.
CostCertificate` and the bound-ranked plan recommendation — into one
:class:`CostReport` the serving layer attaches to compiled plans and
the CLI renders as text, JSON, or SARIF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Iterable, List, Mapping, Optional

from ...core.csl import CSLQuery
from ...datalog.database import Database
from ...datalog.program import Program
from ...diagnostics import (
    Diagnostic,
    PassRegistry,
    Report,
    run_passes,
    sort_diagnostics,
)
from .abstract import interpret
from .bounds import certify_cost
from .certificate import CostCertificate
from .stats import DEFAULT_NODE_BUDGET, collect_statistics

#: Every diagnostic code the pipeline can emit, with SARIF descriptions.
RULE_METADATA: Dict[str, str] = {
    "cost-not-applicable": (
        "The program is outside the CSL class (or has no goal); no "
        "retrieval bounds can be certified."
    ),
    "cost-widened": (
        "The reachable region exceeded the exploration budget; bounds "
        "were widened to whole-relation aggregates and are loose."
    ),
    "cost-abstained": (
        "The analyzer abstained from certifying a bound for a method."
    ),
    "cost-divergence": (
        "The bound-ranked plan choice differs from the regime "
        "heuristic's choice."
    ),
}


class CostFacts:
    """Lazily-shared inputs and artifacts across the pipeline's passes."""

    def __init__(
        self,
        query: Optional[CSLQuery],
        goal: Optional[str] = None,
        not_applicable_reason: Optional[str] = None,
        node_budget: int = DEFAULT_NODE_BUDGET,
    ) -> None:
        self.query = query
        self.goal = goal
        self.not_applicable_reason = not_applicable_reason
        self.node_budget = node_budget
        self._certificate: Optional[CostCertificate] = None
        self._recommendation = None

    def certificate(self) -> Optional[CostCertificate]:
        if self.query is None:
            return None
        if self._certificate is None:
            self._certificate = certify_cost(
                self.query, node_budget=self.node_budget
            )
        return self._certificate

    def recommendation(self):
        """The bound-ranked :class:`~repro.core.methods.
        PlanRecommendation` (None outside the CSL class)."""
        if self.query is None:
            return None
        if self._recommendation is None:
            from ...core.methods import recommended_plan

            certificate = self.certificate()
            # The certificate names the regime its abstract state
            # proved; only a widened region is walked again, unbounded,
            # for the regime its exact abstract proves.
            exact = (
                interpret(collect_statistics(self.query, node_budget=None))
                if certificate.graph_class is None
                else None
            )
            self._recommendation = recommended_plan(certificate, exact)
        return self._recommendation


COST_PASSES: PassRegistry[Callable[[CostFacts], List[Diagnostic]]] = (
    PassRegistry("cost")
)


@COST_PASSES.register("cost-applicability", "is there a CSL query to bound?")
def _pass_applicability(facts: CostFacts) -> List[Diagnostic]:
    if facts.query is not None:
        return []
    reason = facts.not_applicable_reason or "no CSL query materialized"
    return [
        Diagnostic(
            "info",
            "cost-not-applicable",
            f"no retrieval bounds certified: {reason}",
        )
    ]


@COST_PASSES.register("cost-region", "budgeted region statistics and widening")
def _pass_region(facts: CostFacts) -> List[Diagnostic]:
    certificate = facts.certificate()
    if certificate is None or not certificate.widened:
        return []
    return [
        Diagnostic(
            "warning",
            "cost-widened",
            "region statistics were widened to whole-relation "
            "aggregates: " + "; ".join(certificate.assumptions),
        )
    ]


@COST_PASSES.register("cost-bounds", "closed-form per-method retrieval bounds")
def _pass_bounds(facts: CostFacts) -> List[Diagnostic]:
    certificate = facts.certificate()
    if certificate is None:
        return []
    diagnostics = []
    for entry in certificate.bounds.values():
        # Counting on a certified-cyclic region and Henschen-Naqvi
        # always abstain; report them once each at info level so the
        # rendered report explains every hole in the table.
        if not entry.certified:
            diagnostics.append(
                Diagnostic(
                    "info",
                    "cost-abstained",
                    f"{entry.method}: {entry.reason}",
                )
            )
    return diagnostics


@COST_PASSES.register("cost-ranking", "bound-ranked plan choice vs heuristic")
def _pass_ranking(facts: CostFacts) -> List[Diagnostic]:
    recommendation = facts.recommendation()
    if recommendation is None:
        return []
    heuristic = recommendation.details.get("heuristic")
    if (
        recommendation.provenance == "certified-bound"
        and heuristic is not None
        and recommendation.method != heuristic
    ):
        return [
            Diagnostic(
                "info",
                "cost-divergence",
                f"certified bounds rank {recommendation.method} ahead of "
                f"the heuristic choice {heuristic}: "
                + str(recommendation.details.get("reason")),
            )
        ]
    return []


@dataclass
class CostReport(Report):
    """Everything the cost analyzer learned about one query."""

    SARIF_DRIVER: ClassVar[str] = "repro-cost-analyzer"
    RULE_METADATA: ClassVar[Mapping[str, str]] = RULE_METADATA

    goal: Optional[str]
    diagnostics: List[Diagnostic]
    passes_run: List[str]
    certificate: Optional[CostCertificate] = None
    recommendation: Optional[object] = None  # PlanRecommendation

    def to_json(self) -> Dict[str, object]:
        recommendation = None
        if self.recommendation is not None:
            recommendation = {
                "method": self.recommendation.method,
                "provenance": self.recommendation.provenance,
                "details": self.recommendation.details,
            }
        return {
            "goal": self.goal,
            **self.findings_json(),
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json(),
            "recommendation": recommendation,
        }

    def sarif_properties(self) -> Dict[str, object]:
        properties: Dict[str, object] = {}
        if self.certificate is not None:
            properties["widened"] = self.certificate.widened
            best = self.certificate.best()
            if best is not None:
                properties["cheapestCertifiedMethod"] = best.method
                properties["cheapestCertifiedBound"] = best.bound
        if self.recommendation is not None:
            properties["recommendedMethod"] = self.recommendation.method
            properties["recommendationProvenance"] = (
                self.recommendation.provenance
            )
        return properties


def _fold_report(
    facts: CostFacts, passes: Optional[Iterable[str]]
) -> CostReport:
    selected = COST_PASSES.select(passes)
    return CostReport(
        goal=facts.goal,
        diagnostics=sort_diagnostics(run_passes(selected, facts)),
        passes_run=[p.name for p in selected],
        certificate=facts.certificate(),
        recommendation=facts.recommendation(),
    )


def run_cost_analysis(
    program: Program,
    database: Optional[Database] = None,
    passes: Optional[Iterable[str]] = None,
    csl_query: Optional[CSLQuery] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CostReport:
    """Run the (selected) pipeline over a Datalog program.

    The CSL query is materialized through the static analyzer's
    :class:`~repro.analysis.static.facts.ProgramFacts` (or pre-seeded
    via ``csl_query``); outside the CSL class the pipeline degrades to
    the applicability diagnostic instead of failing.
    """
    from ..static.facts import ProgramFacts

    program_facts = ProgramFacts(program, database, csl=csl_query)
    query = program_facts.csl_query()
    facts = CostFacts(
        query,
        goal=None if program_facts.goal is None else str(program_facts.goal),
        not_applicable_reason=(
            "the program has no query goal"
            if program_facts.goal is None
            else program_facts.not_csl_reason
        ),
        node_budget=node_budget,
    )
    return _fold_report(facts, passes)


def analyze_cost_query(
    query: CSLQuery,
    passes: Optional[Iterable[str]] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CostReport:
    """A report for an already-materialized CSL query (serving layer)."""
    facts = CostFacts(
        query,
        goal=f"p({query.source!r}, Y)?",
        node_budget=node_budget,
    )
    return _fold_report(facts, passes)
