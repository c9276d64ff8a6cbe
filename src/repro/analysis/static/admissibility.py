"""Method-admissibility advisory: which methods may run on this goal.

Couples the counting-safety certificate with the paper's termination
results to report, per goal, which of the twelve evaluation methods
(counting, extended counting, magic set, Henschen-Naqvi, and the eight
magic counting methods — every :data:`~repro.core.methods.METHODS` row
but the SCC Step-1 variants, which terminate exactly when their
paper-literal twins do) are statically admissible:

* the pure **counting** method and **Henschen-Naqvi** terminate exactly
  when the certified magic graph is acyclic — their admissibility *is*
  the certificate's verdict;
* **extended counting** truncates at ``n_L × n_R`` levels and the
  **magic set** method saturates a finite set — both always admissible;
* all eight **magic counting** methods are safe on every input
  (Proposition 3: every Step-1 fixpoint terminates by construction).

Admissibility says which methods *may* run; which one *should* run is
the cost analyzer's bound ranking
(:func:`repro.analysis.cost.analyze_cost_query`), which the static
report reads for its ``recommended_method``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...core.methods import METHODS, Method
from .safety import SafetyCertificate, Verdict


@dataclass(frozen=True)
class MethodVerdict:
    """Admissibility of one method for one goal.

    ``admissible`` is three-valued: True / False / None (unknown — the
    certificate could not decide the graph class).
    """

    method: str
    admissible: Optional[bool]
    reason: str

    def describe(self) -> str:
        state = {True: "yes", False: "no", None: "unknown"}[self.admissible]
        return f"{self.method}: {state} ({self.reason})"


#: Why a method outside the Strategy × Mode family does (``True``
#: verdict) or, on a certified cyclic magic graph, does not terminate.
_TERMINATION = {
    "counting": "diverges on the certified cyclic magic graph",
    "extended_counting":
        "truncated at n_L x n_R levels; terminates on every input",
    "magic_set": "saturates a finite magic set; terminates on every input",
    "henschen_naqvi":
        "enumerates unboundedly many L-paths on a cyclic magic graph",
}


def _verdict(certificate: SafetyCertificate, row: Method) -> MethodVerdict:
    if row.strategy is not None:
        return MethodVerdict(
            row.name, True, "safe on every input (Proposition 3)"
        )
    why = _TERMINATION[row.name]
    if not row.needs_acyclic:
        return MethodVerdict(row.name, True, why)
    if certificate.verdict == Verdict.SAFE:
        return MethodVerdict(row.name, True, "certified acyclic magic graph")
    if certificate.verdict == Verdict.UNSAFE:
        return MethodVerdict(row.name, False, why)
    return MethodVerdict(row.name, None, certificate.reason)


def method_admissibility(
    certificate: SafetyCertificate,
) -> List[MethodVerdict]:
    """Admissibility of every method under ``certificate``."""
    return [
        _verdict(certificate, row)
        for row in METHODS.values()
        if not row.scc_step1
    ]

