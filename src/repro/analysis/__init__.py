"""Measurement harness, table rendering, and static program analysis.

Graph statistics themselves live in :mod:`repro.core.complexity`
(re-exported here for convenience, since they are analysis artefacts).
The static safety analyzer lives in :mod:`repro.analysis.static` and
the cost-bound analyzer in :mod:`repro.analysis.cost`; their entry
points and report types are re-exported here.
"""

from ..core.complexity import (
    GraphStatistics,
    all_method_predictions,
    compute_statistics,
    predicted_cost,
)
from .cost import CostCertificate, CostReport, certify_cost, run_cost_analysis
from .dot import magic_graph_to_dot, query_graph_to_dot
from .runner import ALL_METHODS, Measurement, measure, sweep
from .static import SafetyCertificate, StaticReport, run_static_analysis
from .sweeps import CostSeries, cost_series, find_crossover
from .tables import render_ratio_sweep, render_table

__all__ = [
    "ALL_METHODS",
    "CostCertificate",
    "CostReport",
    "CostSeries",
    "GraphStatistics",
    "SafetyCertificate",
    "StaticReport",
    "certify_cost",
    "run_cost_analysis",
    "run_static_analysis",
    "cost_series",
    "find_crossover",
    "Measurement",
    "all_method_predictions",
    "compute_statistics",
    "magic_graph_to_dot",
    "measure",
    "query_graph_to_dot",
    "predicted_cost",
    "render_ratio_sweep",
    "render_table",
    "sweep",
]
