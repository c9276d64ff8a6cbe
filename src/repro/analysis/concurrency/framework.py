"""The concurrency analyzer: its report and runner.

An instance of the :mod:`repro.diagnostics` kernel one level up the
stack: the passes are functions from shared
:class:`~repro.analysis.concurrency.facts.CodebaseFacts` to
diagnostics, and :func:`run_concurrency_analysis` drives every
registered pass over a set of Python files, folding the results into
one :class:`ConcurrencyReport` the CLI renders as text, JSON, or SARIF.

Findings land on real file/line coordinates (unlike Datalog rules,
Python code has provenance), so the SARIF output carries
``physicalLocation`` regions and a line carrying ``# race-ok`` — the
suppression comment — drops every diagnostic anchored to it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, List, Mapping, Optional

from ...diagnostics import (
    Diagnostic,
    PassRegistry,
    Report,
    run_passes,
    sort_diagnostics,
)
from .facts import CodebaseFacts
from .model import ModuleModel, build_module_model

#: Every rule the pipeline can emit, for SARIF reporting descriptors.
RULE_METADATA: Dict[str, str] = {
    "parse-error": "A file could not be parsed; it was not analyzed.",
    "unguarded-read": (
        "A guarded attribute is read without holding its declared lock."
    ),
    "unguarded-write": (
        "A guarded attribute is written without holding its declared lock."
    ),
    "unguarded-call": (
        "A *_locked helper is called without the lock(s) it assumes held."
    ),
    "loop-confined-escape": (
        "An event-loop-confined attribute is touched from code "
        "dispatched to a worker thread."
    ),
    "unstructured-acquire": (
        "A lock is acquired or released outside a with statement; the "
        "guarded-by analysis assumes structured acquisition."
    ),
    "lock-order-cycle": (
        "The lock-acquisition graph contains a cycle; two threads "
        "taking the locks in opposite orders can deadlock."
    ),
    "relock": (
        "A non-reentrant lock may be re-acquired while already held, "
        "which self-deadlocks."
    ),
    "blocking-in-async": (
        "A blocking call (sync lock acquire, time.sleep, blocking I/O) "
        "runs inside an async def body and stalls the event loop."
    ),
    "await-under-lock": (
        "An await suspends while a sync (threading) lock is held, "
        "holding it across arbitrary scheduler interleavings."
    ),
}


#: Findings of these passes always carry ``path``/``line``.
CONCURRENCY_PASSES: PassRegistry[
    Callable[[CodebaseFacts], List[Diagnostic]]
] = PassRegistry("concurrency")


@dataclass
class ConcurrencyReport(Report):
    """Everything one analysis run learned about a Python file set."""

    SARIF_DRIVER: ClassVar[str] = "repro-concurrency-analyzer"
    RULE_METADATA: ClassVar[Mapping[str, str]] = RULE_METADATA

    files: List[str]
    diagnostics: List[Diagnostic]
    passes_run: List[str]
    suppressed: int = 0
    guarded_attributes: int = 0
    lock_edges: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        """A plain-dict rendering (the CLI's ``--format json``)."""
        return {
            "files": list(self.files),
            **self.findings_json(),
            "suppressed": self.suppressed,
            "guarded_attributes": self.guarded_attributes,
            "lock_edges": list(self.lock_edges),
        }

    def sarif_properties(self) -> Dict[str, object]:
        return {
            "analyzedFiles": len(self.files),
            "guardedAttributes": self.guarded_attributes,
            "suppressed": self.suppressed,
        }


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            found.append(path)
    return sorted(dict.fromkeys(found))


def run_concurrency_analysis(
    paths: Iterable[str],
    passes: Optional[Iterable[str]] = None,
) -> ConcurrencyReport:
    """Run the (selected) pipeline over every ``.py`` file in ``paths``.

    ``passes`` restricts the pipeline to the named subset, preserving
    registration order; unknown names raise ``KeyError`` so typos fail
    loudly rather than silently skipping a check.
    """
    files = iter_python_files(paths)
    modules: List[ModuleModel] = []
    diagnostics: List[Diagnostic] = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            modules.append(build_module_model(path, source))
        except SyntaxError as error:
            diagnostics.append(
                Diagnostic(
                    "error",
                    "parse-error",
                    f"could not parse: {error.msg}",
                    path=path,
                    line=error.lineno or 1,
                )
            )
    facts = CodebaseFacts(modules)
    selected = CONCURRENCY_PASSES.select(passes)
    diagnostics.extend(run_passes(selected, facts))
    # Suppression: a ``# race-ok`` comment on the finding's line wins.
    suppressed_lines = {
        (module.path, line) for module in modules for line in module.suppressed
    }
    kept = [d for d in diagnostics if (d.path, d.line) not in suppressed_lines]
    guarded = sum(
        len(cls.guards)
        for module in modules
        for cls in module.classes.values()
    )
    from .lockorder import lock_graph_edges

    edges = lock_graph_edges(facts)
    return ConcurrencyReport(
        files=files,
        diagnostics=sort_diagnostics(kept),
        passes_run=[p.name for p in selected],
        suppressed=len(diagnostics) - len(kept),
        guarded_attributes=guarded,
        lock_edges=sorted(
            f"{a} -> {b}" for (a, b) in edges
        ),
    )
