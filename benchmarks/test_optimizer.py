"""Measured wins for the static program optimizer.

For every (workload × rewrite) cell we evaluate the rewrite-emitted
program and its optimized twin on fresh databases and compare tuple
retrievals.  The contract under test is the optimizer's second half:
semantics are checked everywhere (answers must be identical), and the
headline cells must show a *strict* win — chain-inlining on
supplementary-magic outputs, and the empty-predicate/dead-rule cascade
on integrated magic-counting programs over regular graphs (RM = ∅
there, so the whole P_M half of the listing is provably dead).  No cell
may regress.

Results persist to ``benchmarks/results/BENCH_optimizer.json``.

Two modes, mirroring the other benchmarks: full (default,
``slow``-marked) and smoke (``REPRO_OPT_SMOKE=1``, what the CI
optimizer-parity job runs) with smaller instances.
"""

import json
import os
import pathlib

import pytest

from repro.analysis.rewrite import optimize_program
from repro.core.program_rewrite import method_program
from repro.core.reduced_sets import Mode, Strategy
from repro.datalog.evaluation import answer_tuples
from repro.datalog.magic_rewrite import magic_rewrite
from repro.datalog.supplementary import supplementary_magic_rewrite
from repro.workloads import (
    acyclic_workload,
    balanced_same_generation,
    cyclic_workload,
    regular_workload,
)

from .conftest import add_report

SMOKE = os.environ.get("REPRO_OPT_SMOKE") == "1"
pytestmark = [] if SMOKE else [pytest.mark.slow]

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_optimizer.json"
)

if SMOKE:
    SAMEGEN_DEPTHS = (4,)
    SCALES = (1,)
else:
    SAMEGEN_DEPTHS = (6, 7)
    SCALES = (1, 2)

WORKLOADS = [
    *(
        (
            f"samegen d{d}",
            lambda d=d: balanced_same_generation(depth=d, fanout=2),
        )
        for d in SAMEGEN_DEPTHS
    ),
    *(
        (f"regular s{s}", lambda s=s: regular_workload(scale=s))
        for s in SCALES
    ),
    *(
        (f"acyclic s{s}", lambda s=s: acyclic_workload(scale=s))
        for s in SCALES
    ),
    *(
        (f"cyclic s{s}", lambda s=s: cyclic_workload(scale=s))
        for s in SCALES
    ),
]


def _rewrites(query):
    """The rewrite-emitted programs the optimizer targets."""
    program = query.to_program()
    yield "magic", magic_rewrite(program)
    yield "supplementary", supplementary_magic_rewrite(program)
    yield "mc-integrated", method_program(
        query, Strategy.MULTIPLE, Mode.INTEGRATED
    )


def _measure(query, program):
    database = query.database()
    answers = answer_tuples(program, database)
    return answers, database.counter.retrievals


def _cells():
    rows = []
    for workload_name, make_query in WORKLOADS:
        query = make_query()
        for rewrite_name, program in _rewrites(query):
            report = optimize_program(program, query.database())
            base_answers, base_cost = _measure(query, program)
            opt_answers, opt_cost = _measure(query, report.program)
            assert opt_answers == base_answers, (
                workload_name, rewrite_name,
            )
            rows.append(
                {
                    "workload": workload_name,
                    "rewrite": rewrite_name,
                    "rules_before": len(program.rules),
                    "rules_after": len(report.program.rules),
                    "rules_removed": report.rules_removed,
                    "literals_removed": report.literals_removed,
                    "retrievals_before": base_cost,
                    "retrievals_after": opt_cost,
                    "saved": base_cost - opt_cost,
                }
            )
    return rows


def test_optimizer_wins_and_never_regresses():
    rows = _cells()

    # Monotonicity everywhere: the optimizer never makes a cell worse.
    for row in rows:
        assert row["retrievals_after"] <= row["retrievals_before"], row

    # Headline strict wins.  Supplementary rewrites always emit the
    # sup_i_0 chain rules, so inlining must fire and save retrievals on
    # the same-generation workloads; integrated magic-counting programs
    # on regular graphs have RM = ∅, so the dead P_M cascade must fall.
    samegen_sup = [
        row for row in rows
        if row["rewrite"] == "supplementary"
        and row["workload"].startswith("samegen")
    ]
    assert samegen_sup
    for row in samegen_sup:
        assert row["rules_removed"] > 0, row
        assert row["retrievals_after"] < row["retrievals_before"], row

    regular_mc = [
        row for row in rows
        if row["rewrite"] == "mc-integrated"
        and row["workload"].startswith("regular")
    ]
    assert regular_mc
    for row in regular_mc:
        assert row["rules_removed"] > 0, row
        assert row["retrievals_after"] < row["retrievals_before"], row

    total_saved = sum(row["saved"] for row in rows)
    document = {
        "unit": "tuple retrievals (before/after optimizing the rewrite "
        "output)",
        "mode": "smoke" if SMOKE else "full",
        "total_saved": total_saved,
        "cells": rows,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")

    lines = ["program optimizer: retrievals before -> after", ""]
    for row in rows:
        marker = " *" if row["saved"] else ""
        lines.append(
            f"  {row['workload']:<12} {row['rewrite']:<14} "
            f"{row['retrievals_before']:>6} -> {row['retrievals_after']:>6} "
            f"(-{row['saved']}, {row['rules_removed']} rules gone){marker}"
        )
    lines.append("")
    lines.append(f"  total retrievals saved: {total_saved}")
    add_report("optimizer", "\n".join(lines))

    assert total_saved > 0
