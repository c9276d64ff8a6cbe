"""Static cost-bound analysis: certified per-method retrieval bounds.

An instance of the :mod:`repro.diagnostics` pass kernel.  It
abstract-interprets the magic-graph dynamics over a
cardinality/multiplicity interval domain plus budgeted EDB statistics,
and certifies a closed-form upper bound on ``CostCounter`` retrievals
for every evaluation method the repo implements — the pure methods and
the eight basic/single/multiple/recurring × independent/integrated
hybrids (plus the two SCC Step-1 variants).  The certificate drives
plan selection through :func:`repro.core.methods.recommended_plan`,
predicted-vs-actual accounting in the serving layer, and the
``analyze --cost`` CLI.
"""

from .abstract import MultiplicityAbstract, interpret
from .bounds import certify_cost
from .certificate import CostCertificate, MethodBound
from .domain import INF, Interval
from .framework import (
    COST_PASSES,
    RULE_METADATA,
    CostFacts,
    CostReport,
    analyze_cost_query,
    run_cost_analysis,
)
from .stats import DEFAULT_NODE_BUDGET, RegionStatistics, collect_statistics

__all__ = [
    "INF",
    "Interval",
    "MultiplicityAbstract",
    "interpret",
    "certify_cost",
    "CostCertificate",
    "MethodBound",
    "RULE_METADATA",
    "CostFacts",
    "CostReport",
    "analyze_cost_query",
    "COST_PASSES",
    "run_cost_analysis",
    "DEFAULT_NODE_BUDGET",
    "RegionStatistics",
    "collect_statistics",
]
