"""Certified retrieval bounds: the analyzer's output artifacts.

A :class:`MethodBound` is one closed-form upper bound on the RC/RM
retrievals one evaluation method performs on one (source, database)
pair, together with the assumptions it rests on and an additive
breakdown by evaluation phase.  A :class:`CostCertificate` collects the
bounds for every method the repo implements — the pure methods plus the
eight basic/single/multiple/recurring × independent/integrated hybrids
and the two SCC Step-1 variants — and is what plan selection ranks.

A bound of ``None`` is an *abstention*: the analyzer refuses to certify
(the method diverges on the region's shape, or the method's dynamics
are not modeled).  Abstentions are first-class — ranking skips them and
the caller falls back to heuristics — and carry their reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ...core.classification import MagicGraphClass


@dataclass(frozen=True)
class MethodBound:
    """One certified upper bound (or abstention) for one method."""

    method: str
    bound: Optional[int]
    reason: Optional[str] = None
    breakdown: Tuple[Tuple[str, int], ...] = ()
    assumptions: Tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.bound is not None

    def to_json(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "bound": self.bound,
            "reason": self.reason,
            "breakdown": dict(self.breakdown),
            "assumptions": list(self.assumptions),
        }


@dataclass(frozen=True)
class CostCertificate:
    """Every method's certified bound for one (source, database) pair."""

    source: object
    widened: bool
    assumptions: Tuple[str, ...]
    bounds: Mapping[str, MethodBound]
    #: Region aggregates the formulas were instantiated with.
    statistics: Mapping[str, object] = field(default_factory=dict)
    #: The magic-graph regime the abstract state proved (None when the
    #: region was widened): what the regime heuristic of
    #: :func:`repro.core.methods.recommended_plan` is read from, so
    #: ranking a certificate needs no second classification.
    graph_class: Optional[MagicGraphClass] = None

    def bound_for(self, method: str) -> Optional[int]:
        entry = self.bounds.get(method)
        return None if entry is None else entry.bound

    def certified_methods(self) -> List[MethodBound]:
        """The non-abstained bounds, cheapest first (name-stable ties)."""
        certified = [b for b in self.bounds.values() if b.certified]
        return sorted(certified, key=lambda b: (b.bound, b.method))

    def best(self) -> Optional[MethodBound]:
        ranked = self.certified_methods()
        return ranked[0] if ranked else None

    def to_json(self) -> Dict[str, object]:
        return {
            "source": repr(self.source),
            "widened": self.widened,
            "assumptions": list(self.assumptions),
            "statistics": dict(self.statistics),
            "bounds": {
                name: entry.to_json() for name, entry in self.bounds.items()
            },
        }
