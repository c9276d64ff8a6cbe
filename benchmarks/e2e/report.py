"""One run's result, the printed report, and the trajectory file.

``run_one`` is the single measured path behind both ways of invoking
the benchmark: the driver's ``--workload NAME`` (one run, one JSON line)
and the suite (every workload, untraced then traced, one appended
record in ``results/BENCH_e2e.json``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from typing import Dict, List

from repro.datalog.database import Database
from repro.datalog.evaluation import DEFAULT_ENGINE

from . import RESULTS, ROOT
from .layers import PER_LAYER, UNMEASURED, per_layer
from .loadgen import end_to_end, run_library, run_served
from .stats import spread
from .workloads import build, inputs_digest

#: name -> unit; the ``end_to_end`` list of ``BENCHMARK.json``.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "solve_p50_ms": "ms",
    "solve_p95_ms": "ms",
    "retrievals_per_op": "count",
    "peak_rss_mb": "MB",
}

TRAJECTORY = RESULTS / "BENCH_e2e.json"


def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Dict:
    """Generate the workload's inputs from ``seed``, run it once for
    ``seconds`` (traced or not), verify every answer, and return every
    number the run supports."""
    workload = build(name, tiny)
    run = run_served if workload.kind == "served" else run_library
    raw = run(workload, seed, seconds, trace)
    measured = end_to_end(workload, raw)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs_sha256": inputs_digest(workload, seed),
        "in_flight": workload.in_flight,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "end_to_end": measured["metrics"],
        "slices": measured["slices"],
        "solve_samples": measured["solve"],
        "mutate_samples": measured["mutate"],
        "problems": [],
    }
    if trace:
        layers, spans, notes, problems = per_layer(workload, raw)
        result["per_layer"] = layers
        result["notes"] = notes
        result["problems"] = problems
        if "clock" in raw:
            result["clock_offset_us"] = raw["clock"][0] * 1e6
            result["clock_uncertainty_us"] = raw["clock"][1] * 1e6
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace_{name}.json").write_text(json.dumps(spans))
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result


def driver_line(result: Dict) -> str:
    """The one JSON object the driver reads from the last output line."""
    if result["trace"]:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _number(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or (float(value).is_integer() and abs(value) >= 1000):
        return f"{value:,.0f}"
    return f"{value:,.4g}"


def describe(result: Dict) -> List[str]:
    """Every metric of one run by name, with unit and sample count."""
    lines = [
        f"== {result['workload']}  seed={result['seed']} "
        f"seconds={result['seconds']:g} trace={int(result['trace'])} "
        f"in_flight={result['in_flight']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"inputs={result['inputs_sha256'][:12]}"
    ]
    solve, mutate = result["solve_samples"], result["mutate_samples"]
    if not result["trace"]:
        for name, unit in END_TO_END.items():
            lines.append(
                f"  {name:<22}{_number(result['end_to_end'][name]):>14} {unit}"
            )
        lines.append(
            f"  (ops_per_s and solve_p50/p95_ms are the quietest fifth of "
            f"{result['slices']} slices; whole-run percentiles follow, "
            "null below 10 samples beyond the rank)"
        )
        for label, pool in (("solve", solve), ("mutate", mutate)):
            for key in ("p50_ms", "p95_ms", "p99_ms"):
                lines.append(
                    f"  {label + '_' + key + ' (pooled)':<22}"
                    f"{_number(pool[key]):>14} ms  (n={pool['count']})"
                )
        share = result["failed"] / result["attempted"]
        lines.append(f"  {'failed_share':<22}{_number(share):>14} ratio")
    else:
        for name, (unit, _better) in PER_LAYER.items():
            lines.append(
                f"  {name:<46}{_number(result['per_layer'][name]):>14} {unit}"
            )
        for note in result["notes"]:
            lines.append(f"  note: {note}")
        if "clock_offset_us" in result:
            lines.append(
                f"  clock: child perf_counter offset "
                f"{result['clock_offset_us']:.1f} us "
                f"(+/- {result['clock_uncertainty_us']:.1f} us), applied"
            )
    for problem in result["problems"]:
        lines.append(f"  WRONG: {problem}")
    return lines


def stamp(seed: int, seconds: float) -> Dict:
    """Machine and build facts that decide whether two records compare."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    git = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cores": os.cpu_count(),
        "backend": Database().backend,
        "engine": DEFAULT_ENGINE,
        "seed": seed,
        "seconds": seconds,
        "loadavg": list(os.getloadavg()),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "unmeasured": UNMEASURED,
    }


def run_set(seed: int, seconds: float, names) -> Dict[str, Dict]:
    """Every workload once untraced and once traced; ``{workload:
    summary}`` with the tracing overhead between the two."""
    summary = {}
    for name in names:
        plain = run_one(name, seed, seconds, trace=False)
        print("\n".join(describe(plain)))
        traced = run_one(name, seed, seconds, trace=True)
        print("\n".join(describe(traced)))
        # The traced run's own throughput is not an end-to-end number;
        # it only prices the tracing.
        overhead = 1.0 - (
            traced["end_to_end"]["ops_per_s"] / plain["end_to_end"]["ops_per_s"]
        )
        print(f"  {'trace_overhead_share':<46}{_number(overhead):>14} ratio")
        summary[name] = {
            "end_to_end": plain["end_to_end"],
            "per_layer": traced["per_layer"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"],
            "solve_samples": plain["solve_samples"],
            "mutate_samples": plain["mutate_samples"],
            "trace_overhead_share": overhead,
            "inputs_sha256": plain["inputs_sha256"],
        }
    return summary


def append_record(record: Dict) -> None:
    """Append to the trajectory; earlier records are never rewritten."""
    RESULTS.mkdir(exist_ok=True)
    records = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    records.append(record)
    TRAJECTORY.write_text(json.dumps(records, indent=1) + "\n")


def load_bounds() -> Dict[str, Dict]:
    """``{metric: {"bound":, "better":, "unit":}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec["end_to_end"]}


def spreads(sets: List[Dict[str, Dict]]) -> List[str]:
    """The A/A table: each metric's spread over the sets against its
    bound — the evidence the bounds in BENCHMARK.json rest on."""
    bounds = load_bounds()
    lines = [
        f"{'workload':<18}{'metric':<20}{'median':>14}{'spread':>10}"
        f"{'bound':>8}  verdict"
    ]
    for name in sets[0]:
        for metric, entry in bounds.items():
            values = [one[name]["end_to_end"][metric] for one in sets]
            wide = spread(values)
            if metric == "setup_s":
                verdict = "not judged (its medians are, by the diff)"
            else:
                verdict = "ok" if wide <= entry["bound"] else "SPREAD EXCEEDS BOUND"
            lines.append(
                f"{name:<18}{metric:<20}{_number(statistics.median(values)):>14}"
                f"{wide:>10.4f}{entry['bound']:>8.2f}  {verdict}"
            )
    return lines


SNAPSHOT = RESULTS.parent / "snapshot.json"

#: Retrieval counts that depend on nothing but the code: fixed inputs,
#: whole rounds, ``PYTHONHASHSEED=0``.
_SNAPSHOT_KEYS = (
    ("library_methods", "end_to_end", "retrievals_per_op"),
    ("engine_samegen", "end_to_end", "retrievals_per_op"),
    ("engine_samegen", "per_layer", "datalog.engine.retrievals"),
)


def check_snapshot(summary: Dict[str, Dict]) -> List[str]:
    """Compare the exactly repeatable retrieval counts with the recorded
    snapshot; returns one line per mismatch.  A count that has no entry
    yet is recorded (delete ``snapshot.json`` to re-record after a
    change that is meant to move the counts)."""
    recorded = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}
    mismatches = []
    added = False
    for workload, section, metric in _SNAPSHOT_KEYS:
        if workload not in summary:
            continue
        key = f"{workload}:{metric}"
        value = summary[workload][section][metric]
        if key not in recorded:
            recorded[key] = value
            added = True
        elif recorded[key] != value:
            mismatches.append(
                f"{key}: measured {value!r}, snapshot {recorded[key]!r}"
            )
    if added:
        SNAPSHOT.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return mismatches
