"""The arithmetic the report rests on: percentiles, spreads, self times.

Kept free of any :mod:`repro` import so ``test_harness.py`` can check
the rules in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float,
               strict: bool = True) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when the sample
    cannot support it.

    The median needs one sample.  A tail percentile (``q`` > 50) needs
    at least :data:`MIN_SAMPLES_BEYOND` samples *beyond* its rank —
    otherwise the number is one outlier's latency, not a percentile.
    ``strict=False`` waives that for a slice whose percentile is only an
    ingredient of :func:`sliced`.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if strict and q > 50 and len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


#: The run reports its quietest-fifth slice (20th percentile of slice
#: latency, i.e. 80th of slice rate).
QUIET = 20


def sliced(slices: Sequence[Sequence[Tuple[float, float, Optional[float]]]]) -> Dict:
    """Throughput and latency of a run, read off its quiet slices.

    Each slice is one stretch of the run: ``(begin, end, latency)`` for
    every operation that succeeded in it, ``latency`` being ``None`` for
    an operation that counts for throughput only (a mutation).  A slice
    yields its own seconds per operation (first begin to last end over
    the count) and its own median and 95th-percentile latency; the run
    reports the :data:`QUIET`-th percentile of each over its slices.

    Why not the mean, or the median slice: the sandbox's noise is
    one-sided — a neighbour on the host only ever slows a slice — and
    comes in stretches from a second to minutes.  Measured on the same
    code, a whole-run mean moves 5-20% between runs, a whole-run p95 up
    to 45%, the median slice 2-5% on a quiet host and 13-35% on a busy
    one; the quietest fifth moves 1-5% and 7-18%.
    """
    paces, middles, tails = [], [], []
    for operations in slices:
        latencies = [item[2] for item in operations if item[2] is not None]
        if not latencies:
            continue
        window = max(item[1] for item in operations) - min(
            item[0] for item in operations
        )
        paces.append(window / len(operations))
        middles.append(percentile(latencies, 50))
        tails.append(percentile(latencies, 95, strict=False))
    return {
        "slices": len(paces),
        "ops_per_s": 1.0 / percentile(paces, QUIET),
        "p50_s": percentile(middles, QUIET),
        "p95_s": percentile(tails, QUIET),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the A/A
    yardstick every bound in ``BENCHMARK.json`` is judged against."""
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Dict]) -> Dict[int, float]:
    """``{span id: self seconds}``: a span's duration minus the part of
    its interval that its child spans cover (children are clipped to
    the parent and overlapping children are not subtracted twice)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(span["id"], ())
            if min(end, e) > max(start, s)
        ]
        result[span["id"]] = (end - start) - covered(clipped)
    return result


def unattributed_share(observed: float, attributed: float) -> float:
    """The share of client-observed time no layer accounts for."""
    return (observed - attributed) / observed if observed else 0.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sample (a layer that never ran)."""
    return sum(values) / len(values) if values else 0.0
