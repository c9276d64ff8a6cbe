"""The program optimizer: its traces, report, and fixpoint driver.

An instance of the :mod:`repro.diagnostics` kernel that, unlike the
three reporting analyzers (:mod:`repro.analysis.static`,
:mod:`repro.analysis.concurrency`, :mod:`repro.analysis.cost`),
*transforms*: a pass is a named function from a program (plus an
optional database snapshot) to an equivalent program and a list of
trace deltas.  :func:`optimize_program` drives the
registered pipeline to a fixpoint — each pass can expose work for the
next (constant folding exposes duplicate literals, inlining exposes
dead rules) — and folds everything into an :class:`OptimizationReport`
carrying both programs, the per-pass provenance, and the usual
text/JSON/SARIF renderings.

Every pass must be semantics-preserving with respect to the program's
query goal (answer set of ``program.query`` over any database consistent
with the snapshot it was given) and *retrieval-monotone*: the optimized
program never charges more tuple retrievals than the original.  Passes
that need database emptiness facts abstain when no database is supplied,
so a database-free optimization is valid for **every** database.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ...datalog.database import Database
from ...datalog.program import Program
from ...datalog.rule import Rule
from ...diagnostics import Diagnostic, PassRegistry, Report

#: Every trace code the pipeline can emit, with SARIF descriptions.
RULE_METADATA: Dict[str, str] = {
    "constant-folded": (
        "A ground builtin was decided at optimization time and deleted."
    ),
    "statically-false": (
        "A rule body is statically false; the rule was deleted."
    ),
    "duplicate-literal": (
        "A body literal duplicated an earlier one and was removed."
    ),
    "subsumed-rule": (
        "A rule was θ-subsumed by a more general rule and deleted."
    ),
    "inlined-rule": (
        "A single-literal chain rule was inlined into its consumers."
    ),
    "dead-rule": (
        "A rule outside the query goal's dependency cone was deleted."
    ),
    "empty-predicate": (
        "A rule or literal depending on a provably-empty predicate was "
        "simplified away."
    ),
    "sliced-argument": (
        "An argument position no consumer reads was projected away."
    ),
    "bounded-recursion": (
        "Certifiably bounded recursion was deleted or unfolded into "
        "non-recursive strata."
    ),
}

#: Trace kinds — the delta vocabulary every pass reports in.
TRACE_KINDS = (
    "rule-removed",
    "rule-added",
    "rule-rewritten",
    "literal-removed",
    "argument-removed",
)


@dataclass(frozen=True)
class OptimizationTrace:
    """One optimizer delta: what changed, which pass did it, and why."""

    pass_name: str
    iteration: int
    kind: str
    code: str
    message: str
    rule: Optional[Rule] = None

    def __str__(self):
        prefix = f"{self.pass_name}[{self.code}]"
        if self.rule is not None:
            return f"{prefix}: {self.message}  (in: {self.rule})"
        return f"{prefix}: {self.message}"


#: A pass emits (new_program, deltas); the driver stamps pass/iteration.
PassDelta = Tuple[str, str, str, Optional[Rule]]  # (kind, code, message, rule)
PassFunction = Callable[
    [Program, Optional[Database]], Tuple[Program, List[PassDelta]]
]


#: Registration order *is* execution order; the package ``__init__``
#: imports the pass modules in pipeline order.
OPTIMIZER_PASSES: PassRegistry[PassFunction] = PassRegistry("optimizer")


@dataclass
class OptimizationReport(Report):
    """Everything one optimizer run did to one program."""

    SARIF_DRIVER: ClassVar[str] = "repro-optimizer"
    RULE_METADATA: ClassVar[Mapping[str, str]] = RULE_METADATA

    goal: Optional[str]
    passes_run: List[str]
    iterations: int
    traces: List[OptimizationTrace]
    original: Program
    program: Program
    optimize_seconds: float = 0.0

    @property
    def changed(self) -> bool:
        return bool(self.traces)

    @property
    def rules_removed(self) -> int:
        return sum(1 for t in self.traces if t.kind == "rule-removed")

    @property
    def rules_added(self) -> int:
        return sum(1 for t in self.traces if t.kind == "rule-added")

    @property
    def literals_removed(self) -> int:
        return sum(1 for t in self.traces if t.kind == "literal-removed")

    @property
    def arguments_removed(self) -> int:
        return sum(1 for t in self.traces if t.kind == "argument-removed")

    @property
    def diagnostics(self) -> List[Diagnostic]:  # type: ignore[override]
        """The traces as ``info``-level diagnostics (for shared tooling).

        The optimizer never *complains* — every finding is an applied,
        semantics-preserving improvement — so all traces render at
        ``info`` severity, and of the shared ``--fail-on`` gate only
        ``info`` can trip on them.
        """
        return [
            Diagnostic("info", t.code, t.message, t.rule) for t in self.traces
        ]

    def summary(self) -> Dict[str, object]:
        """The metrics-facing scalar summary of this run."""
        return {
            "rules_removed": self.rules_removed,
            "rules_added": self.rules_added,
            "literals_removed": self.literals_removed,
            "arguments_removed": self.arguments_removed,
            "iterations": self.iterations,
            "optimize_ms": round(self.optimize_seconds * 1000.0, 3),
        }

    def to_json(self) -> Dict[str, object]:
        """A plain-dict rendering (the CLI's ``--format json``)."""
        return {
            "goal": self.goal,
            "passes": list(self.passes_run),
            "iterations": self.iterations,
            "changed": self.changed,
            "counts": {
                "rules_removed": self.rules_removed,
                "rules_added": self.rules_added,
                "literals_removed": self.literals_removed,
                "arguments_removed": self.arguments_removed,
            },
            "original_rule_count": len(self.original.rules),
            "optimized_rule_count": len(self.program.rules),
            "optimize_ms": round(self.optimize_seconds * 1000.0, 3),
            "traces": [
                {
                    "pass": t.pass_name,
                    "iteration": t.iteration,
                    "kind": t.kind,
                    "code": t.code,
                    "message": t.message,
                    "rule": None if t.rule is None else str(t.rule),
                }
                for t in self.traces
            ],
            "optimized_program": str(self.program),
        }

    def sarif_diagnostics(self) -> List[Diagnostic]:
        """Each note names the pass that applied the improvement."""
        return [
            Diagnostic(
                "info", t.code, f"[{t.pass_name}] {t.message}", t.rule
            )
            for t in self.traces
        ]

    def sarif_properties(self) -> Dict[str, object]:
        """The headline deltas, so CI can chart ``rulesRemoved``
        without parsing messages."""
        return {
            "rulesRemoved": self.rules_removed,
            "rulesAdded": self.rules_added,
            "literalsRemoved": self.literals_removed,
            "argumentsRemoved": self.arguments_removed,
            "iterations": self.iterations,
            "optimizeMs": round(self.optimize_seconds * 1000.0, 3),
        }


def optimize_program(
    program: Program,
    database: Optional[Database] = None,
    passes: Optional[Iterable[str]] = None,
    max_iterations: int = 16,
) -> OptimizationReport:
    """Run the (selected) pipeline over ``program`` to a fixpoint.

    ``passes`` restricts the pipeline to the named subset, preserving
    registration order; unknown names raise ``KeyError``.  ``database``
    is an optional EDB snapshot — passes that rely on relation
    emptiness abstain without one, so the database-free result is
    correct for every database.  The input program is never mutated.
    """
    selected = OPTIMIZER_PASSES.select(passes)
    started = time.perf_counter()
    current = program
    traces: List[OptimizationTrace] = []
    iteration = 0
    changed = True
    while changed and iteration < max_iterations:
        changed = False
        iteration += 1
        for optimization_pass in selected:
            current, deltas = optimization_pass.run(current, database)
            if deltas:
                changed = True
                traces.extend(
                    OptimizationTrace(
                        optimization_pass.name, iteration, kind, code,
                        message, rule,
                    )
                    for kind, code, message, rule in deltas
                )
    return OptimizationReport(
        goal=None if program.query is None else str(program.query),
        passes_run=[p.name for p in selected],
        iterations=iteration,
        traces=traces,
        original=program,
        program=current,
        optimize_seconds=time.perf_counter() - started,
    )
