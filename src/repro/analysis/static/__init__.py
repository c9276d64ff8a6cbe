"""Static safety analysis: certify before you solve.

A multi-pass static-analysis framework over Datalog programs.  One call
runs the whole pipeline::

    from repro.analysis.static import run_static_analysis

    report = run_static_analysis(program, database)
    report.certificate.verdict      # "safe" | "unsafe" | "unknown"
    report.diagnostics              # lint + safety + rewrite findings
    report.to_sarif()               # SARIF 2.1.0 for CI ingestion

The passes share one lazily-derived :class:`ProgramFacts` (dependency
graph + SCC condensation, adornment dataflow, materialized CSL query,
magic-graph classification).  The headline passes certify counting-
safety (SCC analysis of the ``L`` graph — no fixpoint ever runs),
verify the magic-counting rewrites against the paper's Theorem 1/2
partition conditions, and report per-goal method admissibility.  The
classic :mod:`repro.datalog.lint` checks run as the first six passes.
"""

from .admissibility import MethodVerdict, method_admissibility
from .facts import ProgramFacts
from ..sarif import SARIF_SCHEMA_URI, SARIF_VERSION, report_to_sarif
from .framework import (
    RULE_METADATA,
    STATIC_PASSES,
    StaticReport,
    run_static_analysis,
)
from .rewrite_check import (
    expected_reduced_sets,
    lint_rewrite_outputs,
    verify_partition_conditions,
    verify_rewrites,
)
from .safety import (
    SafetyCertificate,
    Verdict,
    certify_counting_safety,
    certify_program,
    certify_relation,
    certify_source,
)

__all__ = [
    "MethodVerdict",
    "ProgramFacts",
    "RULE_METADATA",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "STATIC_PASSES",
    "SafetyCertificate",
    "StaticReport",
    "Verdict",
    "certify_counting_safety",
    "certify_program",
    "certify_relation",
    "certify_source",
    "expected_reduced_sets",
    "lint_rewrite_outputs",
    "method_admissibility",
    "report_to_sarif",
    "run_static_analysis",
    "verify_partition_conditions",
    "verify_rewrites",
]
