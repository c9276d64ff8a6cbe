"""``python -m benchmarks.e2e.diff`` — the last two comparable records.

Reads ``results/BENCH_e2e.json`` and the bounds in ``BENCHMARK.json``
and prints one row per (workload, end-to-end metric):

* ``ok`` — the newer median is no worse than the older by more than
  the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread inside either record is wider
  than the bound, so the difference cannot be told from noise (unless
  every newer value beats every older one, which is ``ok``).

Two records compare when they come from the same kind of machine and
run length (cores, Python and numpy versions, seconds).  Exit status is
non-zero on any ``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from .report import TRAJECTORY, load_bounds
from .stats import spread

COMPARABLE = ("cores", "python", "numpy", "seconds", "backend", "engine")


def comparable_pair(records: List[Dict]) -> Optional[Tuple[Dict, Dict]]:
    """The last record and the latest earlier one from a like machine."""
    if len(records) < 2:
        return None
    new = records[-1]
    for old in reversed(records[:-1]):
        if all(old.get(key) == new.get(key) for key in COMPARABLE):
            return old, new
    return None


def verdict(old: List[float], new: List[float], bound: float,
            better: str) -> Tuple[str, float]:
    """``(ok | regressed | unresolved, worsening as a share of old)``."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(old)
    worse = sign * (statistics.median(new) - base) / base if base else 0.0
    if max(spread(old), spread(new)) > bound:
        clean_win = all(sign * n < sign * o for n in new for o in old)
        return ("ok" if clean_win else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(old: Dict, new: Dict, bounds: Dict[str, Dict]) -> List[Tuple]:
    rows = []
    for workload in new["sets"][0]:
        if workload not in old["sets"][0]:
            continue
        for metric, entry in bounds.items():
            values = [
                [one[workload]["end_to_end"][metric] for one in record["sets"]]
                for record in (old, new)
            ]
            status, worse = verdict(*values, entry["bound"], entry["better"])
            rows.append(
                (workload, metric, statistics.median(values[0]),
                 statistics.median(values[1]), worse, entry["bound"], status)
            )
    return rows


def main() -> int:
    records = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    pair = comparable_pair(records)
    if pair is None:
        print("fewer than two comparable records in", TRAJECTORY)
        return 0
    old, new = pair
    print(f"{old['commit']} ({len(old['sets'])} set(s)) -> "
          f"{new['commit']} ({len(new['sets'])} set(s))")
    print(f"{'workload':<18}{'metric':<20}{'old':>12}{'new':>12}"
          f"{'worse by':>10}{'bound':>7}  verdict")
    rows = compare(old, new, load_bounds())
    for workload, metric, before, after, worse, bound, status in rows:
        print(f"{workload:<18}{metric:<20}{before:>12.4g}{after:>12.4g}"
              f"{worse:>+10.3f}{bound:>7.2f}  {status}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
