"""The diagnostics/pass kernel every analyzer in the repo instantiates.

Four analyzers share one shape — the Datalog program analyzer
(:mod:`repro.analysis.static`, whose first six passes are the classic
:mod:`repro.datalog.lint` checks), the cost-bound analyzer
(:mod:`repro.analysis.cost`), the Python concurrency analyzer
(:mod:`repro.analysis.concurrency`) and the program optimizer
(:mod:`repro.analysis.rewrite`): named passes registered in execution
order, findings at one of three severities, and a report that gates on
severity and renders as text, JSON or SARIF.  That shape lives here
once:

* :data:`LEVELS` and :class:`Diagnostic` — one finding, anchored to a
  Datalog rule (``rule``), to a source position (``path``/``line``/
  ``col``), or to nothing;
* :class:`PassRegistry` — register in order, list, select a subset or
  fail loudly on an unknown name;
* :class:`Report` — the severity gate (``has_errors``/``counts``/
  ``exceeds``), the shared JSON keys, and ``to_sarif``.

An analyzer keeps only what is its own: its facts object, its passes,
its ``RULE_METADATA`` table and its extra report fields.  The module
imports nothing from the rest of the package, so :mod:`repro.datalog`
can use it without pulling in :mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

__all__ = [
    "LEVELS",
    "Diagnostic",
    "Pass",
    "PassRegistry",
    "Report",
    "run_passes",
    "sort_diagnostics",
]

#: Severities, most severe first.
LEVELS = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one pass.

    Datalog findings may name the offending ``rule`` (programs are
    parsed from whole files or strings, so rules carry no position);
    findings about Python code carry ``path``/``line``/``col`` instead.
    """

    level: str
    code: str
    message: str
    rule: Optional[object] = None
    path: Optional[str] = None
    line: Optional[int] = None
    col: int = 0

    def __str__(self):
        if self.path is not None:
            return (
                f"{self.path}:{self.line}: {self.level}[{self.code}]: "
                f"{self.message}"
            )
        prefix = f"{self.level}[{self.code}]"
        if self.rule is not None:
            return f"{prefix}: {self.message}  (in: {self.rule})"
        return f"{prefix}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        rendered: Dict[str, object] = {
            "level": self.level,
            "code": self.code,
            "message": self.message,
        }
        if self.path is None:
            rendered["rule"] = None if self.rule is None else str(self.rule)
        else:
            rendered.update(path=self.path, line=self.line, col=self.col)
        return rendered


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """By position, then errors first, then code and rule (stable, total).

    Findings without a position (every Datalog finding) share the empty
    position, so for them this is errors-first, then code, then rule.
    """
    order = {level: i for i, level in enumerate(LEVELS)}
    return sorted(
        diagnostics,
        key=lambda d: (
            d.path or "",
            d.line or 0,
            order[d.level],
            d.code,
            str(d.rule),
        ),
    )


Run = TypeVar("Run", bound=Callable[..., Any])


@dataclass(frozen=True)
class Pass(Generic[Run]):
    """One registered pass: a name, a description, and its function."""

    name: str
    description: str
    run: Run


class PassRegistry(Generic[Run]):
    """One analyzer's pipeline: passes in registration = execution order.

    ``kind`` names the analyzer in the unknown-pass error message;
    ``passes`` are registered first, in the order given.
    """

    def __init__(self, kind: str, passes: Iterable[Pass[Run]] = ()) -> None:
        self.kind = kind
        self._passes: Dict[str, Pass[Run]] = {p.name: p for p in passes}

    def register(self, name: str, description: str) -> Callable[[Run], Run]:
        """Decorator: add a pass to the pipeline, in call order."""

        def decorate(function: Run) -> Run:
            self._passes[name] = Pass(name, description, function)
            return function

        return decorate

    def passes(self) -> List[Pass[Run]]:
        """The pipeline, in registration (execution) order."""
        return list(self._passes.values())

    def select(self, names: Optional[Iterable[str]] = None) -> List[Pass[Run]]:
        """The named subset, still in registration order (``None``: all).

        Unknown names raise ``KeyError`` so typos fail loudly rather
        than silently skipping a check.
        """
        if names is None:
            return self.passes()
        wanted = set(names)
        unknown = wanted - set(self._passes)
        if unknown:
            raise KeyError(
                f"unknown {self.kind} pass(es): {sorted(unknown)}; "
                f"registered: {sorted(self._passes)}"
            )
        return [p for p in self._passes.values() if p.name in wanted]


def run_passes(selected: Sequence[Pass[Any]], facts: object) -> List[Diagnostic]:
    """Run diagnostic passes over shared ``facts``, in the order given."""
    return [d for analysis_pass in selected for d in analysis_pass.run(facts)]


class Report:
    """What every analyzer's report shares; subclasses add their fields.

    A subclass provides ``diagnostics`` and ``passes_run`` (as dataclass
    fields or properties), names its SARIF tool in ``SARIF_DRIVER``,
    describes every code it can emit in ``RULE_METADATA``, and may
    override :meth:`sarif_properties`.
    """

    SARIF_DRIVER: ClassVar[str]
    RULE_METADATA: ClassVar[Mapping[str, str]]

    diagnostics: List[Diagnostic]
    passes_run: List[str]

    @property
    def has_errors(self) -> bool:
        return any(d.level == "error" for d in self.diagnostics)

    def counts(self) -> Dict[str, int]:
        tally = {level: 0 for level in LEVELS}
        for diagnostic in self.diagnostics:
            tally[diagnostic.level] += 1
        return tally

    def exceeds(self, fail_on: str) -> bool:
        """True when any diagnostic is at or above ``fail_on`` severity."""
        threshold = LEVELS.index(fail_on)
        return any(
            LEVELS.index(d.level) <= threshold for d in self.diagnostics
        )

    def findings_json(self) -> Dict[str, object]:
        """The keys every reporting analyzer's ``to_json`` carries."""
        return {
            "passes": list(self.passes_run),
            "counts": self.counts(),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def sarif_diagnostics(self) -> List[Diagnostic]:
        """The findings as SARIF results should word them."""
        return self.diagnostics

    def sarif_properties(self) -> Dict[str, object]:
        """Run-level SARIF ``properties`` (headline facts for CI)."""
        return {}

    def to_sarif(self, artifact_uri: Optional[str] = None) -> Dict[str, object]:
        """One SARIF 2.1.0 ``sarifLog`` document for this report.

        ``artifact_uri`` locates findings that carry no position of
        their own (the analyzed program file, when the caller knows it).
        """
        from .analysis.sarif import report_to_sarif

        return report_to_sarif(self, artifact_uri=artifact_uri)
