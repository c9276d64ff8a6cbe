"""Step 2 of the magic counting methods: evaluating with RC and RM.

**Independent** (Section 4): the counting part and the magic part run
side by side and never exchange results ::

    P_C(J, Y)   :- RC(J, X), E(X, Y).              (1)
    P_C(J-1, Y) :- P_C(J, Y1), R(Y, Y1).           (2)
    P_M(X, Y)   :- RM(X), E(X, Y).                 (3)
    P_M(X, Y)   :- MS(X), L(X, X1), P_M(X1, Y1), R(Y, Y1).   (4)
    Answer(Y)   :- P_C(0, Y).                      (5)
    Answer(Y)   :- P_M(a, Y).                      (6)

Note rule 4 ranges over the *full* magic set — the magic part must carry
its answers all the way down to the source on its own.

**Integrated** (Section 5): the magic part is confined to RM and its
results are transferred into the counting part at the RC/RM frontier ::

    P_M(X, Y)   :- RM(X), E(X, Y).                 (1)
    P_M(X, Y)   :- RM(X), L(X, X1), P_M(X1, Y1), R(Y, Y1).   (2)
    P_C(J, Y)   :- RC(J, X), L(X, X1), P_M(X1, Y1), R(Y, Y1). (3)
    P_C(J, Y)   :- RC(J, X), E(X, Y).              (4)
    P_C(J-1, Y) :- P_C(J, Y1), R(Y, Y1).           (5)
    Answer(Y)   :- P_C(0, Y).                      (6)

(Rule 3 is printed slightly garbled in the paper; see the OCR note in
DESIGN.md for why this is the evidently intended reading.)  Because the
magic part runs first, rule 3 acts as an extra exit rule for the
counting part.  Correctness requires ``(0, a) ∈ RC`` (Theorem 2).
"""

from __future__ import annotations

from typing import Dict, List

from .csl import CSLInstance
from .counting_method import descend_answers, seed_exit
from .magic_method import magic_fixpoint, predecessor_join, worklist
from .reduced_sets import ReducedSets


def independent_step2(instance: CSLInstance, reduced: ReducedSets):
    """Run the independent modified rules; returns (answers, details)."""
    # Counting part: rules 1, 2, 5.
    pc_levels = seed_exit(instance, reduced.rc)
    counting_answers = descend_answers(instance, pc_levels)

    # Magic part: rules 3, 4, 6 — exit restricted to RM, recursion over MS.
    pm = magic_fixpoint(
        instance,
        magic=reduced.ms,
        exit_guard=reduced.rm,
        recursion_guard=reduced.ms,
    )
    magic_answers = pm.get(instance.source, set())

    details = {
        "counting_answers": len(counting_answers),
        "magic_answers": len(magic_answers),
        "pm_facts": pm.facts,
    }
    return set(counting_answers) | set(magic_answers), details


def integrated_step2(instance: CSLInstance, reduced: ReducedSets):
    """Run the integrated modified rules; returns (answers, details).

    The caller must have ensured ``(0, a) ∈ RC`` (Theorem 2 condition c);
    :meth:`ReducedSets.ensure_source_pair` does that.
    """
    # Magic part first: rules 1, 2 confined to RM.
    pm = magic_fixpoint(
        instance,
        magic=reduced.ms,
        exit_guard=reduced.rm,
        recursion_guard=reduced.rm,
    )

    # Counting part: rule 4 seeds from E ...
    pc_levels = seed_exit(instance, reduced.rc)

    # ... and rule 3 transfers the magic part's results across the
    # frontier: the same L-predecessor x R-predecessor join as rule 2,
    # guarded by the values RC holds, into their indices (as masks).
    rc_by_value: Dict[object, List[int]] = {}
    for index, value in reduced.rc:
        rc_by_value.setdefault(value, []).append(index)
    transferred = 0
    buckets: Dict[int, int] = {}
    for x, image in predecessor_join(
        instance, rc_by_value, worklist(instance, pm.masks)
    ):
        for index in rc_by_value[x]:
            bucket = buckets.get(index) or pm.bits.encode(pc_levels.get(index, ()))
            transferred += (image & ~bucket).bit_count()
            buckets[index] = bucket | image
    pc_levels.update((i, pm.bits.decode(b)) for i, b in buckets.items())

    # Rules 5 and 6.
    answers = descend_answers(instance, pc_levels)
    details = {
        "pm_facts": pm.facts,
        "transferred": transferred,
    }
    return set(answers), details
