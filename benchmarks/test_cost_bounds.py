"""Tightness and plan-quality benchmark for the cost-bound analyzer.

Two questions the unit suites cannot answer:

* **Tightness** — a sound bound is only useful if it is not absurdly
  loose.  For every Table 1-5 workload family (plus same-generation and
  the adversarial Step-1 graphs) we measure the certified-bound /
  measured-retrievals ratio per method and persist the distribution to
  ``benchmarks/results/BENCH_cost_bounds.json`` so looseness regressions
  are tracked across PRs.
* **Plan quality** — does ranking by certified bound actually pick good
  plans?  On every workload, the bound-ranked choice's *measured* cost
  must match or beat the regime heuristic's measured cost.

Two modes, mirroring the engine benchmark:

* full (default, ``slow``-marked): all scales, tightness ceilings
  asserted;
* smoke (``REPRO_COST_SMOKE=1``, not ``slow``-marked — what the CI
  cost-bound-parity job runs): small scales, soundness + plan-quality
  assertions only.
"""

import json
import os
import pathlib

import pytest

from repro.analysis.cost import certify_cost
from repro.core.classification import MagicGraphClass, classify_nodes
from repro.core.methods import recommended_plan
from repro.core.solver import adaptive_solve, solve
from repro.workloads import (
    acyclic_workload,
    balanced_same_generation,
    chorded_cycle,
    cyclic_workload,
    deep_single_branch_with_early_multiple,
    diamond_ladder_into_cycle,
    overlapping_descent_chain,
    regular_workload,
)

from .conftest import add_report
from tests.test_cost_soundness import RUNNERS

SMOKE = os.environ.get("REPRO_COST_SMOKE") == "1"
pytestmark = [] if SMOKE else [pytest.mark.slow]

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_cost_bounds.json"
)

if SMOKE:
    SCALES = (1,)
    SAMEGEN_DEPTHS = (4,)
else:
    SCALES = (1, 2)
    SAMEGEN_DEPTHS = (4, 6)

WORKLOADS = [
    *(
        (f"table1 regular s{s}", lambda s=s: regular_workload(scale=s))
        for s in SCALES
    ),
    *(
        (f"table1 acyclic s{s}", lambda s=s: acyclic_workload(scale=s))
        for s in SCALES
    ),
    *(
        (f"table1 cyclic s{s}", lambda s=s: cyclic_workload(scale=s))
        for s in SCALES
    ),
    *(
        (
            f"samegen d{d}",
            lambda d=d: balanced_same_generation(depth=d, fanout=2),
        )
        for d in SAMEGEN_DEPTHS
    ),
    ("chorded cycle", lambda: chorded_cycle(8)),
    ("diamond ladder", lambda: diamond_ladder_into_cycle(4)),
    ("descent chain", lambda: overlapping_descent_chain(6)),
    ("single branch", lambda: deep_single_branch_with_early_multiple(10)),
]

# The analyzer intentionally over-approximates the answer-descent sweep
# and the rule-3 transfer; on these families the slack stays within one
# order of magnitude — except extended counting, whose certified bound
# IS the [MPS] product-graph cap and is honestly loose on every graph
# that never reaches it (the paper's Θ(m × n³) footnote, restated as a
# certificate).  Ratcheted down as the formulas tighten.
MAX_TIGHTNESS_RATIO = 25.0
# Grows with scale by design: the cap is quadratic in the region while
# the measured cost on safe graphs stays linear.
MAX_EXTENDED_COUNTING_RATIO = 2000.0


def _tightness_rows():
    rows = []
    for name, make_query in WORKLOADS:
        query = make_query()
        certificate = certify_cost(query)
        methods = {}
        for method, entry in certificate.bounds.items():
            runner = RUNNERS.get(method)
            if entry.bound is None or runner is None:
                continue
            measured = runner(query).cost.retrievals
            assert measured <= entry.bound, (name, method)
            methods[method] = {
                "bound": entry.bound,
                "measured": measured,
                "ratio": round(entry.bound / max(1, measured), 2),
            }
        rows.append(
            {
                "workload": name,
                "widened": certificate.widened,
                "methods": methods,
            }
        )
    return rows


def test_bound_tightness():
    rows = _tightness_rows()
    ratios = [
        entry["ratio"]
        for row in rows
        for method, entry in row["methods"].items()
        if method != "extended_counting"
    ]
    extended = [
        row["methods"]["extended_counting"]["ratio"]
        for row in rows
        if "extended_counting" in row["methods"]
    ]
    document = {
        "unit": "certified bound / measured retrievals (lower is tighter)",
        "max_ratio": max(ratios),
        "median_ratio": sorted(ratios)[len(ratios) // 2],
        "max_extended_counting_ratio": max(extended),
        "workloads": rows,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(document, indent=2) + "\n")

    lines = ["cost-bound tightness (bound / measured)", ""]
    for row in rows:
        worst = max(entry["ratio"] for entry in row["methods"].values())
        best = min(entry["ratio"] for entry in row["methods"].values())
        lines.append(
            f"  {row['workload']:<20} best {best:>7.2f}x  worst "
            f"{worst:>8.2f}x  ({len(row['methods'])} methods certified)"
        )
    add_report("cost_bound_tightness", "\n".join(lines))

    assert max(ratios) <= MAX_TIGHTNESS_RATIO
    assert max(extended) <= MAX_EXTENDED_COUNTING_RATIO
    # Every workload certifies the whole always-terminating family.
    assert all(len(row["methods"]) >= 11 for row in rows)


#: The regime rule's row per graph class: the ranking's tie-break, run
#: by name here so the ranking is measured against something else.
REGIME_ROW = {
    MagicGraphClass.REGULAR: "counting",
    MagicGraphClass.ACYCLIC: "mc_multiple_integrated",
    MagicGraphClass.CYCLIC: "mc_recurring_integrated_scc",
}


def test_bound_ranked_plans_match_or_beat_the_heuristic():
    for name, make_query in WORKLOADS:
        query = make_query()
        ranked = adaptive_solve(query)
        regime_row = REGIME_ROW[classify_nodes(query).graph_class]
        heuristic = solve(query, regime_row)
        assert ranked.answers == heuristic.answers, name
        assert (
            ranked.cost.retrievals <= heuristic.cost.retrievals
        ), (
            f"{name}: bound-ranked {ranked.method} cost "
            f"{ranked.cost.retrievals} > heuristic {heuristic.method} "
            f"cost {heuristic.cost.retrievals}"
        )


def test_certified_answers_are_correct():
    """The ranked plan is still a *correct* plan: spot-check answers
    against the reference solver on the adversarial graphs."""
    for name, make_query in WORKLOADS[-4:]:
        query = make_query()
        ranked = adaptive_solve(query)
        assert ranked.answers == solve(query).answers, name


def test_ranking_provenance_is_certified_everywhere():
    for name, make_query in WORKLOADS:
        query = make_query()
        plan = recommended_plan(certify_cost(query), classify_nodes(query))
        assert plan.provenance == "certified-bound", name
