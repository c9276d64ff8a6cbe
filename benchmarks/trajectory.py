"""Read the driver pair log: one table per workload × PR.

``python -m benchmarks.trajectory [--log PATH]``

``benchmarks/results/BENCH_driver_pairs.jsonl`` holds one line per
driver run (``python -m benchmarks.e2e --workload W --seed S``), each
the ``parent`` or ``change`` side of one PR's alternating pairs.  This
reader folds the log into, per PR and workload:

* parent and change medians with quartiles, over the paired untraced
  runs (a pair is the two sides on one seed);
* pairs won by the change, per metric;
* failed and incorrect runs;
* ``retrievals_per_op`` drift between the sides of a pair;
* the host's noise floor: the largest gap, for the workload anywhere
  in the log, between two medians of the *same code*.  Consecutive PRs
  in the log are consecutive landed code (a PR that does not land takes
  its lines with it), so PR N's change side and the next PR's parent
  side ran the same program on different days; an A/A side
  (``parent_copy``) ran it in the same session.  A change within the
  floor reads "no change" only where the floor is inside the metric's
  ``BENCHMARK.json`` bound; where the host spreads wider than the bound
  it reads "unresolved", since a regression up to the floor could hide
  there.

A run is traced if its ``trace`` is non-zero; its ``metrics`` are then
per-layer readings, and traced runs stay out of every median.  An
untraced run's ``metrics`` hold every end-to-end metric.  The exit
status is 1 on a malformed record, or on a pair whose sides differ in
``retrievals_per_op`` unless one of its records says why in an
``intended`` string.  It starts no server and imports nothing from
``benchmarks.e2e``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
LOG = ROOT / "benchmarks" / "results" / "BENCH_driver_pairs.jsonl"

_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
#: end-to-end metric -> higher is better (from ``BENCHMARK.json``)
END_TO_END: Dict[str, bool] = {m["name"]: m["better"] == "higher" for m in _DECLARED}
#: end-to-end metric -> the relative change the benchmark tolerates
BOUND: Dict[str, float] = {m["name"]: m["bound"] for m in _DECLARED}
RETRIEVALS = "retrievals_per_op"

_REQUIRED = {
    "pr": int, "workload": str, "side": str, "commit": str, "seed": int,
    "attempted": int, "failed": int, "correct": bool, "metrics": dict,
}
_OPTIONAL = {"seconds", "pair", "loadavg_1m", "trace", "note", "intended"}


class MalformedRecord(ValueError):
    """A log line the reader cannot fold."""


@dataclass(frozen=True)
class Run:
    """One normalised driver run."""

    pr: int
    workload: str
    side: str
    seed: int
    traced: bool
    failed: int
    correct: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    intended: Optional[str] = None


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def normalise(record, where: str) -> Run:
    """The :class:`Run` a log line stands for; raises
    :class:`MalformedRecord` naming ``where`` otherwise."""
    if not isinstance(record, dict):
        raise MalformedRecord(f"{where}: not a JSON object")
    for key, kind in _REQUIRED.items():
        if not isinstance(record.get(key), kind) or (
            kind is int and isinstance(record[key], bool)
        ):
            raise MalformedRecord(f"{where}: {key!r} missing or not {kind.__name__}")
    unknown = set(record) - set(_REQUIRED) - _OPTIONAL
    if unknown:
        raise MalformedRecord(f"{where}: unknown keys {sorted(unknown)}")
    side = record["side"]
    if side not in ("parent", "change") and not side.endswith("_copy"):
        raise MalformedRecord(f"{where}: side {side!r}")
    if not isinstance(record.get("trace", 0), int):
        raise MalformedRecord(f"{where}: 'trace' must be an int")
    traced = bool(record.get("trace"))
    if not all(_number(value) for value in record["metrics"].values()):
        raise MalformedRecord(f"{where}: a non-numeric reading")
    if not traced and set(END_TO_END) - set(record["metrics"]):
        raise MalformedRecord(f"{where}: an untraced run needs every end-to-end metric")
    if not isinstance(record.get("intended", ""), str):
        raise MalformedRecord(f"{where}: 'intended' must say why, as a string")
    return Run(
        pr=record["pr"], workload=record["workload"], side=side,
        seed=record["seed"], traced=traced, failed=record["failed"],
        correct=record["correct"],
        metrics={} if traced else dict(record["metrics"]),
        intended=record.get("intended"),
    )


def load(path=LOG) -> List[Run]:
    """Every line of the log, normalised."""
    runs = []
    for number, line in enumerate(pathlib.Path(path).read_text().splitlines(), 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise MalformedRecord(f"line {number}: {error}") from None
        runs.append(normalise(record, f"line {number}"))
    return runs


def _median(runs: Iterable[Run], metric: str) -> float:
    return statistics.median(run.metrics[metric] for run in runs)


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, third


Gap = Tuple[str, Dict[str, float]]


def same_code_gaps(runs: List[Run]) -> List[Gap]:
    """``(workload, metric -> relative gap)`` for every two medians of
    the same code: PR N's change side against the next PR's parent side,
    and an A/A ``<side>_copy`` against its side's runs on the same
    seeds."""
    sides: Dict[Tuple[int, str, str], List[Run]] = defaultdict(list)
    for run in runs:
        if not run.traced:
            sides[run.pr, run.workload, run.side].append(run)
    prs = sorted({pr for pr, _workload, _side in sides})
    following = dict(zip(prs, prs[1:]))
    same_code = []
    for (pr, workload, side), group in sides.items():
        if side == "change":
            base = sides.get((following.get(pr), workload, "parent"))
        elif side.endswith("_copy"):
            seeds = {run.seed for run in group}
            base = [run for run in sides[pr, workload, side[: -len("_copy")]]
                    if run.seed in seeds]
        else:
            continue
        if base:
            same_code.append((workload, group, base))
    return [
        (workload, {
            metric: abs(_median(group, metric) / _median(base, metric) - 1)
            for metric in END_TO_END
        })
        for workload, group, base in same_code
    ]


def noise_floor(gaps: List[Gap], workload: str, metric: str) -> Optional[float]:
    """The largest same-code gap of ``workload`` in the whole log (one
    pair of medians can agree by chance), ``None`` when it has none."""
    return max((readings[metric] for name, readings in gaps if name == workload),
               default=None)


@dataclass
class Table:
    """One PR × workload: its pairs, their medians and their verdicts."""

    pr: int
    workload: str
    pairs: List[Tuple[Run, Run]]
    traced: int
    failed: int
    incorrect: int
    rows: List[Tuple[str, ...]]
    drift: List[int]
    unmarked_drift: List[int]


def _verdict(metric, parent, change, floor) -> str:
    delta = change / parent - 1
    if floor is None:
        return "no floor"
    if abs(delta) <= floor:
        return "no change" if floor <= BOUND[metric] else "unresolved"
    return "better" if (delta > 0) == END_TO_END[metric] else "worse"


def _fmt(value: float) -> str:
    return f"{value:.2f}" if abs(value) >= 1 else f"{value:.3f}"


def summarize(runs: List[Run]) -> List[Table]:
    """One :class:`Table` per PR × workload that has a parent/change pair."""
    gaps = same_code_gaps(runs)
    groups: Dict[Tuple[int, str], List[Run]] = defaultdict(list)
    for run in runs:
        groups[run.pr, run.workload].append(run)
    tables = []
    for (pr, workload), group in sorted(groups.items()):
        by_seed: Dict[int, Dict[str, Run]] = defaultdict(dict)
        for run in group:
            if not run.traced:
                by_seed[run.seed][run.side] = run
        pairs = [(sides["parent"], sides["change"])
                 for _seed, sides in sorted(by_seed.items())
                 if {"parent", "change"} <= sides.keys()]
        if not pairs:
            continue
        rows = []
        for metric, higher in END_TO_END.items():
            parent = [p.metrics[metric] for p, _c in pairs]
            change = [c.metrics[metric] for _p, c in pairs]
            won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            floor = noise_floor(gaps, workload, metric)
            p_mid, c_mid = statistics.median(parent), statistics.median(change)
            rows.append((
                metric,
                f"{_fmt(p_mid)} [{', '.join(map(_fmt, _quartiles(parent)))}]",
                f"{_fmt(c_mid)} [{', '.join(map(_fmt, _quartiles(change)))}]",
                f"{(c_mid / p_mid - 1) * 100:+.1f}%",
                f"{won}/{len(pairs)}",
                "n/a" if floor is None else f"±{floor * 100:.1f}%",
                _verdict(metric, p_mid, c_mid, floor),
            ))
        drift = [p.seed for p, c in pairs
                 if p.metrics[RETRIEVALS] != c.metrics[RETRIEVALS]]
        marked = {p.seed for p, c in pairs if p.intended or c.intended}
        tables.append(Table(
            pr=pr, workload=workload, pairs=pairs,
            traced=sum(run.traced for run in group),
            failed=sum(run.failed > 0 for run in group),
            incorrect=sum(not run.correct for run in group),
            rows=rows, drift=drift,
            unmarked_drift=[seed for seed in drift if seed not in marked],
        ))
    return tables


_HEADER = ("metric", "parent median [q1, q3]", "change median [q1, q3]",
           "change", "won", "floor", "verdict")


def render(table: Table) -> str:
    """The table as aligned text, headed by its facts."""
    drift = "equal on every pair" if not table.drift else (
        f"differs on seeds {table.drift}"
        + (f", unmarked: {table.unmarked_drift}" if table.unmarked_drift
           else " (marked intended)")
    )
    lines = [
        f"PR {table.pr} · {table.workload} · {len(table.pairs)} pairs"
        f" · {table.traced} traced runs (out of the medians)"
        f" · {table.failed} failed, {table.incorrect} incorrect runs",
        f"{RETRIEVALS}: {drift}",
    ]
    rows = [_HEADER] + table.rows
    widths = [max(len(row[i]) for row in rows) for i in range(len(_HEADER))]
    lines += ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
              for row in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.trajectory",
        description="Fold the driver pair log into one table per workload × PR.",
    )
    parser.add_argument("--log", default=str(LOG), help="the JSONL pair log")
    args = parser.parse_args(argv)
    try:
        runs = load(args.log)
    except MalformedRecord as error:
        print(f"malformed record: {error}", file=sys.stderr)
        return 1
    tables = summarize(runs)
    print("\n\n".join(map(render, tables)))
    unmarked = [table for table in tables if table.unmarked_drift]
    for table in unmarked:
        print(f"PR {table.pr} {table.workload}: {RETRIEVALS} differs between "
              f"the sides of seeds {table.unmarked_drift}, and no record of "
              "those pairs is marked 'intended'", file=sys.stderr)
    return 1 if unmarked else 0


if __name__ == "__main__":
    sys.exit(main())
