"""Wall-clock benchmark of the compiled join-kernel engine (PR 5 tentpole).

The paper's experiments count tuple retrievals, which both engines must
agree on bit-for-bit.  This module measures the dimension
the cost model abstracts away: wall-clock time of the semi-naive
fixpoint, compiled kernels vs the tuple-at-a-time interpreter, on the
same-generation workloads of Section 1 and the Table 1 workload
families.  Each test **appends** one stamped record (commit, python,
cores, loadavg, mode) to ``benchmarks/results/BENCH_engine.json`` —
earlier records are never rewritten — so the speedup trajectory is
tracked across commits.

Two modes:

* full (default, ``slow``-marked): best-of-3 timings on the real scales,
  asserting the >= 3x speedup the engine is contracted to deliver;
* smoke (``REPRO_ENGINE_SMOKE=1``, not ``slow``-marked — this is what
  the CI engine-parity job runs): tiny scales, parity assertions only —
  wall-clock ratios on shared CI runners are noise, identical answers
  and identical retrieval counts are not.
"""

import os
import pathlib
import time

import pytest

from repro.core.solver import seminaive_answer
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)
from repro.workloads.samegen import balanced_same_generation

from .conftest import add_report, append_record

SMOKE = os.environ.get("REPRO_ENGINE_SMOKE") == "1"
MODE = "smoke" if SMOKE else "full"
pytestmark = [] if SMOKE else [pytest.mark.slow]

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_engine.json"
MIN_SPEEDUP = 3.0
#: Columnar over the set-backed compiled engine.  Both run the same ops
#: a frontier at a time, so the ratio measures the data plane (interned
#: int64 columns vs Python tuples in sets), not per-binding overhead:
#: 2.3-4.3x measured on 2 cores.  Samegen d7 and at least two Table-1
#: rows must stay above this floor.
MIN_COLUMNAR_SPEEDUP = 2.0
MIN_COLUMNAR_TABLE1_ROWS = 2

if SMOKE:
    REPEATS = 1
    WORKLOADS = [
        ("samegen d4", lambda: balanced_same_generation(depth=4, fanout=2)),
        ("table1 regular s1", lambda: regular_workload(scale=1)),
        ("table1 acyclic s1", lambda: acyclic_workload(scale=1)),
        ("table1 cyclic s1", lambda: cyclic_workload(scale=1)),
    ]
else:
    REPEATS = 3
    WORKLOADS = [
        ("samegen d6", lambda: balanced_same_generation(depth=6, fanout=2)),
        ("samegen d7", lambda: balanced_same_generation(depth=7, fanout=2)),
        ("table1 regular s2", lambda: regular_workload(scale=2)),
        ("table1 regular s3", lambda: regular_workload(scale=3)),
        ("table1 acyclic s2", lambda: acyclic_workload(scale=2)),
        ("table1 acyclic s3", lambda: acyclic_workload(scale=3)),
        ("table1 cyclic s2", lambda: cyclic_workload(scale=2)),
        ("table1 cyclic s3", lambda: cyclic_workload(scale=3)),
    ]


if SMOKE:
    COLUMNAR_WORKLOADS = WORKLOADS
else:
    # Larger Table-1 scales than the interpreter series: the columnar
    # engine's fixed per-round overhead (index builds, conversion)
    # amortizes with data size, and these are the scales the columnar
    # floor is stated at.
    COLUMNAR_WORKLOADS = [
        ("samegen d6", lambda: balanced_same_generation(depth=6, fanout=2)),
        ("samegen d7", lambda: balanced_same_generation(depth=7, fanout=2)),
        ("table1 regular s8", lambda: regular_workload(scale=8)),
        ("table1 regular s10", lambda: regular_workload(scale=10)),
        ("table1 acyclic s8", lambda: acyclic_workload(scale=8)),
        ("table1 acyclic s10", lambda: acyclic_workload(scale=10)),
        ("table1 cyclic s8", lambda: cyclic_workload(scale=8)),
        ("table1 cyclic s10", lambda: cyclic_workload(scale=10)),
    ]


def _measure(make_query, engine):
    """Best-of-``REPEATS`` evaluation; returns (seconds, answers, snapshot)."""
    best = None
    for _ in range(REPEATS):
        query = make_query()
        started = time.perf_counter()
        result = seminaive_answer(query, engine=engine)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result.answers, result.cost.snapshot()


def test_engine_speedup():
    rows = []
    for name, make_query in WORKLOADS:
        interp_s, interp_answers, interp_costs = _measure(
            make_query, "interpreted"
        )
        compiled_s, compiled_answers, compiled_costs = _measure(
            make_query, "compiled"
        )
        # Parity is unconditional: same answers, bit-for-bit the same
        # cost snapshot (totals and per-relation keys).
        assert compiled_answers == interp_answers, name
        assert compiled_costs == interp_costs, name
        rows.append(
            {
                "workload": name,
                "interpreted_seconds": round(interp_s, 6),
                "compiled_seconds": round(compiled_s, 6),
                "speedup": round(interp_s / compiled_s, 2),
                "retrievals": interp_costs["retrievals"],
                "answers": len(compiled_answers),
            }
        )

    speedups = [row["speedup"] for row in rows]
    append_record(
        RESULTS_PATH,
        "compiled_vs_interpreted",
        MODE,
        {
            "repeats": REPEATS,
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "required_speedup": None if SMOKE else MIN_SPEEDUP,
            "workloads": rows,
        },
    )

    lines = [
        "Compiled join-kernel engine vs interpreter (identical retrievals)",
        f"{'workload':<22}{'interp (s)':>12}{'compiled (s)':>14}"
        f"{'speedup':>10}{'retrievals':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<22}{row['interpreted_seconds']:>12.4f}"
            f"{row['compiled_seconds']:>14.4f}{row['speedup']:>9.2f}x"
            f"{row['retrievals']:>12}"
        )
    add_report("engine_speedup", "\n".join(lines) + "\n")

    if not SMOKE:
        for row in rows:
            assert row["speedup"] >= MIN_SPEEDUP, (
                f"{row['workload']}: {row['speedup']}x < {MIN_SPEEDUP}x"
            )


def test_columnar_speedup():
    """Columnar batch engine vs the set-backed compiled engine.

    Parity is unconditional in both modes: identical answers and
    bit-for-bit identical retrieval snapshots.  The ratio is the
    measurement — it is what decides whether the columnar plane earns
    its place beside the set-backed one — and in full mode samegen d7
    and at least ``MIN_COLUMNAR_TABLE1_ROWS`` Table-1 rows must clear
    ``MIN_COLUMNAR_SPEEDUP``.
    """
    rows = []
    for name, make_query in COLUMNAR_WORKLOADS:
        compiled_s, compiled_answers, compiled_costs = _measure(
            make_query, "compiled"
        )
        columnar_s, columnar_answers, columnar_costs = _measure(
            make_query, "columnar"
        )
        assert columnar_answers == compiled_answers, name
        assert columnar_costs == compiled_costs, name
        rows.append(
            {
                "workload": name,
                "compiled_seconds": round(compiled_s, 6),
                "columnar_seconds": round(columnar_s, 6),
                "speedup": round(compiled_s / columnar_s, 2),
                "retrievals": columnar_costs["retrievals"],
                "answers": len(columnar_answers),
            }
        )

    speedups = [row["speedup"] for row in rows]
    append_record(
        RESULTS_PATH,
        "columnar_vs_compiled",
        MODE,
        {
            "repeats": REPEATS,
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "required_speedup": None if SMOKE else MIN_COLUMNAR_SPEEDUP,
            "workloads": rows,
        },
    )

    lines = [
        "Columnar batch engine vs compiled kernels (identical retrievals)",
        f"{'workload':<22}{'compiled (s)':>14}{'columnar (s)':>14}"
        f"{'speedup':>10}{'retrievals':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<22}{row['compiled_seconds']:>14.4f}"
            f"{row['columnar_seconds']:>14.4f}{row['speedup']:>9.2f}x"
            f"{row['retrievals']:>12}"
        )
    add_report("columnar_speedup", "\n".join(lines) + "\n")

    if not SMOKE:
        by_name = {row["workload"]: row["speedup"] for row in rows}
        assert by_name["samegen d7"] >= MIN_COLUMNAR_SPEEDUP, (
            f"samegen d7: {by_name['samegen d7']}x < {MIN_COLUMNAR_SPEEDUP}x"
        )
        table1_over = [
            row["workload"]
            for row in rows
            if row["workload"].startswith("table1")
            and row["speedup"] >= MIN_COLUMNAR_SPEEDUP
        ]
        assert len(table1_over) >= MIN_COLUMNAR_TABLE1_ROWS, (
            f"only {table1_over} cleared {MIN_COLUMNAR_SPEEDUP}x "
            f"(need {MIN_COLUMNAR_TABLE1_ROWS} Table-1 rows)"
        )
