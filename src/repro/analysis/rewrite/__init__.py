"""Semantics-preserving static program optimization.

The one analyzer that *transforms* instead of reporting.
:func:`optimize_program` drives a registered pass pipeline (constant
folding, subsumption, chain inlining, dead-rule elimination, argument
slicing, bounded-recursion unfolding) to a fixpoint over a Datalog
program — typically the output of the magic / supplementary / counting
rewrites — and returns an :class:`OptimizationReport` carrying the
optimized program, the per-pass :class:`OptimizationTrace` provenance,
and JSON/SARIF renderings.

Every pass preserves the answers of ``program.query`` and never
increases charged tuple retrievals.  It is called from the CLI
(``repro optimize``, ``repro analyze --all``) and by whoever wants an
optimized program; the serving layer does not import it.
"""

from ..sarif import report_to_sarif
from .framework import (
    OPTIMIZER_PASSES,
    RULE_METADATA,
    OptimizationReport,
    OptimizationTrace,
    TRACE_KINDS,
    optimize_program,
)

# Importing the pass modules registers the pipeline.  Registration
# order is execution order, so the imports are deliberately sequential:
# folding first (it exposes constants and duplicate literals), then
# redundancy removal, structural simplification, and finally the
# recursion-bounding rewrite.
from . import folding as _folding  # noqa: F401  (1) constant propagation
from . import subsumption as _subsumption  # noqa: F401  (2) duplicates + θ
from . import inlining as _inlining  # noqa: F401  (3) chain-rule inlining
from . import deadcode as _deadcode  # noqa: F401  (4) goal cone + empty cascade
from . import slicing as _slicing  # noqa: F401  (5) unused-argument slicing
from . import boundedness as _boundedness  # noqa: F401  (6) bounded unfolding

__all__ = [
    "OPTIMIZER_PASSES",
    "OptimizationReport",
    "OptimizationTrace",
    "TRACE_KINDS",
    "RULE_METADATA",
    "optimize_program",
    "report_to_sarif",
]
