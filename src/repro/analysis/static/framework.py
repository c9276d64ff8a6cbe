"""The static analyzer: its passes, report, and runner.

An instance of the :mod:`repro.diagnostics` kernel.  The pipeline
:data:`STATIC_PASSES` starts with the six classic
:data:`repro.datalog.lint.LINT_PASSES`; this module appends the
binding, shape, counting-safety and rewrite-verification passes over
the shared :class:`~repro.analysis.static.facts.ProgramFacts`.
:func:`run_static_analysis` drives every registered pass (or a caller-
selected subset) and folds the results — diagnostics plus the
structured artifacts (safety certificate, classification, method
advisory) — into one :class:`StaticReport` that the CLI renders as
text, JSON, or SARIF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, List, Mapping, Optional

from ...core.csl import CSLQuery
from ...datalog.database import Database
from ...datalog.lint import LINT_PASSES
from ...datalog.program import Program
from ...diagnostics import (
    Diagnostic,
    PassRegistry,
    Report,
    run_passes,
    sort_diagnostics,
)
from ..cost import analyze_cost_query
from .admissibility import MethodVerdict, method_admissibility
from .facts import ProgramFacts
from .rewrite_check import verify_rewrites
from .safety import SafetyCertificate, Verdict

#: Every diagnostic code the pipeline can emit, with SARIF descriptions.
RULE_METADATA: Dict[str, str] = {
    "unsafe": "A rule violates range restriction.",
    "unstrat": "The program recurses through negation.",
    "undefined": "A body predicate has no rules and no facts.",
    "unused": "An IDB predicate is defined but never referenced.",
    "unreachable": "A rule cannot contribute to the query goal.",
    "singleton": "A variable occurs exactly once in a rule.",
    "free-goal": "The query goal binds no constant.",
    "not-csl": "The program is outside the CSL class.",
    "counting-unsafe": (
        "The magic graph reachable from the bound source is cyclic; "
        "the counting method would diverge."
    ),
    "counting-unknown": (
        "Counting safety could not be statically decided."
    ),
    "rewrite-partition": (
        "A Step-1 partition strategy violates the Theorem 1/2 "
        "correctness conditions."
    ),
    "rewrite-unsafe": "A rewrite emitted an unsafe rule.",
    "rewrite-unstrat": "A rewrite emitted an unstratifiable program.",
}

STATIC_PASSES: PassRegistry[Callable[[ProgramFacts], List[Diagnostic]]] = (
    PassRegistry("analysis", LINT_PASSES)
)


# --- binding and shape passes ------------------------------------------


@STATIC_PASSES.register("goal-binding", "adornment dataflow from the query goal")
def _pass_goal_binding(facts: ProgramFacts) -> List[Diagnostic]:
    goal = facts.goal
    if goal is None:
        return []
    if not any(term.is_constant for term in goal.terms):
        return [
            Diagnostic(
                "warning",
                "free-goal",
                f"query goal {goal} binds no constant: no binding "
                "propagation is possible and every optimized method "
                "degenerates to full evaluation",
            )
        ]
    return []


@STATIC_PASSES.register("csl-shape", "membership in the CSL class")
def _pass_csl_shape(facts: ProgramFacts) -> List[Diagnostic]:
    if facts.goal is None:
        return []
    if facts.csl_query() is None and facts.not_csl_reason is not None:
        return [
            Diagnostic(
                "info",
                "not-csl",
                f"the program is not a recognized canonical strongly "
                f"linear query ({facts.not_csl_reason}); the counting "
                "and magic-counting analyses do not apply",
            )
        ]
    return []


# --- the headline passes -----------------------------------------------


@STATIC_PASSES.register("counting-safety", "certify counting termination (SCC, no fixpoint)")
def _pass_counting_safety(facts: ProgramFacts) -> List[Diagnostic]:
    if facts.goal is None:
        return []
    certificate = facts.safety_certificate()
    if certificate.verdict == Verdict.UNSAFE:
        return [
            Diagnostic("warning", "counting-unsafe", certificate.describe())
        ]
    if (
        certificate.verdict == Verdict.UNKNOWN
        and facts.not_csl_reason is None
    ):
        # Outside the CSL class the csl-shape pass already explains
        # why; only report residual unknowns (no database, free goal).
        return [
            Diagnostic("info", "counting-unknown", certificate.describe())
        ]
    return []


@STATIC_PASSES.register("rewrite-verification", "Theorem 1/2 partition conditions "
               "and structural rewrite linting")
def _pass_rewrite_verification(facts: ProgramFacts) -> List[Diagnostic]:
    classification = facts.classification()
    query = facts.csl_query()
    return verify_rewrites(
        facts.program,
        classification,
        query.source if query is not None else None,
    )


# --- the report --------------------------------------------------------


@dataclass
class StaticReport(Report):
    """Everything the analyzer learned about one program or query."""

    SARIF_DRIVER: ClassVar[str] = "repro-static-analyzer"
    RULE_METADATA: ClassVar[Mapping[str, str]] = RULE_METADATA

    goal: Optional[str]
    diagnostics: List[Diagnostic]
    passes_run: List[str]
    certificate: Optional[SafetyCertificate] = None
    graph_class: Optional[str] = None
    admissibility: List[MethodVerdict] = field(default_factory=list)
    recommended_method: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        """A plain-dict rendering (the CLI's ``--format json``)."""
        return {
            "goal": self.goal,
            **self.findings_json(),
            "counting_safety": None
            if self.certificate is None
            else {
                "verdict": self.certificate.verdict,
                "reason": self.certificate.reason,
                "source": None
                if self.certificate.source is None
                else repr(self.certificate.source),
                "cycle": None
                if self.certificate.cycle is None
                else [repr(node) for node in self.certificate.cycle],
                "checked_nodes": self.certificate.checked_nodes,
            },
            "graph_class": self.graph_class,
            "admissible_methods": [
                {
                    "method": verdict.method,
                    "admissible": verdict.admissible,
                    "reason": verdict.reason,
                }
                for verdict in self.admissibility
            ],
            "recommended_method": self.recommended_method,
        }

    def sarif_properties(self) -> Dict[str, object]:
        properties: Dict[str, object] = {}
        if self.certificate is not None:
            properties["countingSafety"] = self.certificate.verdict
            properties["countingSafetyReason"] = self.certificate.reason
        if self.graph_class is not None:
            properties["magicGraphClass"] = self.graph_class
        if self.recommended_method is not None:
            properties["recommendedMethod"] = self.recommended_method
        return properties


def run_static_analysis(
    program: Program,
    database: Optional[Database] = None,
    passes: Optional[Iterable[str]] = None,
    csl_query: Optional[CSLQuery] = None,
) -> StaticReport:
    """Run the (selected) pipeline over ``program`` and fold a report.

    ``passes`` restricts the pipeline to the named subset, preserving
    registration order; unknown names raise ``KeyError`` so typos fail
    loudly rather than silently skipping a check.  ``csl_query``
    pre-seeds the materialized query when the caller already holds it.
    """
    facts = ProgramFacts(program, database, csl=csl_query)
    selected = STATIC_PASSES.select(passes)
    diagnostics = run_passes(selected, facts)
    classification = facts.classification()
    certificate = (
        facts.safety_certificate() if facts.goal is not None else None
    )
    query = facts.csl_query()
    if certificate is None:
        recommended_method = None
    elif query is not None:
        # The bound ranking ``adaptive`` runs everywhere else.
        recommended_method = analyze_cost_query(query).recommendation.method
    elif certificate.verdict == Verdict.UNKNOWN:
        # No CSL query to rank (no database, not CSL-shaped): magic
        # sets terminate on every input.
        recommended_method = "magic_set"
    else:
        recommended_method = None
    return StaticReport(
        goal=None if facts.goal is None else str(facts.goal),
        diagnostics=sort_diagnostics(diagnostics),
        passes_run=[p.name for p in selected],
        certificate=certificate,
        graph_class=None
        if classification is None
        else classification.graph_class.value,
        admissibility=[]
        if certificate is None
        else method_admissibility(certificate),
        recommended_method=recommended_method,
    )
