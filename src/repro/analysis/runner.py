"""Measurement harness: run every method on an instance, collect costs.

This is the engine behind the benchmark suite and the EXPERIMENTS.md
tables: it evaluates a query with the methods of
:data:`repro.core.methods.METHODS`, records the tuple-retrieval cost of
each, checks that every safe method returned the same answer set, and
pairs measurements with the Θ-predictions of
:mod:`repro.core.complexity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.classification import MagicGraphClass
from ..core.complexity import GraphStatistics, compute_statistics, predicted_cost
from ..core.csl import CSLQuery
from ..core.methods import METHODS
from ..core.solver import fact2_answer, solve
from ..errors import UnsafeQueryError

#: The columns of the all-method tables: every row that is ranked or
#: safe on every input.  That leaves out exactly the Henschen-Naqvi
#: baseline, which ``benchmarks/test_ablation_hn_baseline.py`` measures
#: on its own.
ALL_METHODS = [
    row.name for row in METHODS.values() if row.ranked or not row.needs_acyclic
]


@dataclass
class Measurement:
    """Costs and predictions for one instance across methods."""

    query: CSLQuery
    stats: GraphStatistics
    costs: Dict[str, Optional[int]] = field(default_factory=dict)
    predictions: Dict[str, Optional[int]] = field(default_factory=dict)
    answers: Optional[frozenset] = None

    @property
    def graph_class(self) -> MagicGraphClass:
        return self.stats.graph_class

    def ratio(self, method: str) -> Optional[float]:
        """measured / predicted — bounded across a sweep confirms shape."""
        cost = self.costs.get(method)
        predicted = self.predictions.get(method)
        if cost is None or not predicted:
            return None
        return cost / predicted


def measure(query: CSLQuery, methods: Optional[List[str]] = None) -> Measurement:
    """Run ``methods`` (default: all) on ``query``.

    Unsafe runs (counting on cyclic graphs) record cost ``None``.
    Raises AssertionError if any two safe methods disagree on the answer
    — the harness refuses to report costs for wrong answers.
    """
    if methods is None:
        methods = ALL_METHODS
    stats = compute_statistics(query)
    measurement = Measurement(query=query, stats=stats)
    oracle = fact2_answer(query)
    measurement.answers = oracle
    for method in methods:
        try:
            result = solve(query, method)
        except UnsafeQueryError:
            measurement.costs[method] = None
            measurement.predictions[method] = predicted_cost(method, stats)
            continue
        if result.answers != oracle:
            raise AssertionError(
                f"method {method} answered {sorted(map(repr, result.answers))} "
                f"but the oracle says {sorted(map(repr, oracle))}"
            )
        measurement.costs[method] = result.cost.retrievals
        measurement.predictions[method] = predicted_cost(method, stats)
    return measurement


def sweep(queries: List[CSLQuery], methods: Optional[List[str]] = None) -> List[Measurement]:
    """Measure a list of instances (a size sweep)."""
    return [measure(query, methods) for query in queries]
