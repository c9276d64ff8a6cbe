"""The interval abstract domain for the cost analyzer.

Every quantity the analyzer propagates — shortest/longest distance from
the source, duplicate-index multiplicity ``|I_v|``, bound-argument
fan-out — is abstracted as a closed integer interval ``[lo, hi]`` whose
upper end may be the symbolic infinity :data:`INF` (cycle
participation makes a node's index set unbounded).  The domain is the
standard interval lattice restricted to the operations the analysis
needs: exact lifting, convex join, addition, scaling, and an upper-end
widening cap.

Arithmetic is *sound by construction*: every operation returns an
interval containing all results of the concrete operation applied to
members of the operands.  ``hi`` is what the bound formulas in
:mod:`repro.analysis.cost.bounds` consume; ``lo`` is what lets the
analyzer *prove* facts (a node is provably multiple only when
``lo >= 2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Symbolic infinity for unbounded upper ends (float so comparisons and
#: ``min``/``max`` work transparently against ints).
INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``hi`` may be :data:`INF`."""

    lo: int
    hi: float  # int, or INF

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def top(cls, lo: int = 0) -> "Interval":
        return cls(lo, INF)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def join(self, other: "Interval") -> "Interval":
        """The convex hull (lattice join): contains both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def cap(self, ceiling: float) -> "Interval":
        """Widen-by-cap: clamp the upper end to ``ceiling`` (sound only
        when the caller has *proved* ``ceiling`` dominates the concrete
        value — e.g. ``|I_v| <= n`` because index sets of non-recurring
        nodes hold one entry per distinct simple-path length)."""
        return Interval(min(self.lo, ceiling) if ceiling < self.lo else self.lo,
                        min(self.hi, ceiling))

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hi = "inf" if self.hi == INF else int(self.hi)
        return f"[{self.lo}, {hi}]"


def finite(value: float) -> bool:
    """True when ``value`` is a concrete (non-infinite) quantity."""
    return value < INF
