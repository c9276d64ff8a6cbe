"""Per-update cost of plan maintenance vs full re-solve (PR 6 tentpole).

A live :class:`~repro.service.SolverService` keeps its cached plans'
materialized pair sets exact under EDB churn instead of recompiling.
This module measures what that buys: for single-fact updates (delete an
existing pair, re-insert it — both ``l`` and ``e``) on the
same-generation workload of Section 1 and a Table 1 workload family,
it records the maintenance retrievals charged per update next to the
retrievals of a from-scratch solve of the same goal, asserting

* the served answers after every update equal a full re-solve on the
  post-update relations (exactness), and
* the per-update retrieval cost sits at least ``MIN_RATIO``x below the
  full re-solve (the maintenance dividend).

A second row measures what a version bump costs the *decision* layer on
the ``churn_derived``-shaped forest (2,000 people, 200 extra parents):
bringing the next version's adjacency index and condensation into
being — the predecessor's patched successor with its condensation
carried across — against a from-scratch build plus a Tarjan pass over
the same pair sets, and the cold per-source decision that follows.
``REPRO_MAINTENANCE_SMOKE=1`` shrinks that row and keeps only its parity
assertions (what CI runs); the full row also gates the ratio.

Results are **appended** to ``benchmarks/results/BENCH_maintenance.json``
— one stamped record (commit, python, cores, loadavg) per run and row,
earlier records never rewritten — so the per-update cost trajectory is
tracked across PRs.
"""

import os
import pathlib
import random
import statistics
import time

import pytest

from repro.analysis.cost import analyze_cost_query
from repro.core.csl import CSLQuery
from repro.core.graph_index import GraphIndex
from repro.core.solver import solve
from repro.datalog.evaluation import seminaive_evaluate
from repro.datalog.maintenance import MaintenanceState
from repro.datalog.relation import CostCounter
from repro.service import SolverService
from repro.workloads.generators import regular_workload
from repro.workloads.samegen import (
    balanced_same_generation,
    random_forest_parent,
)

from .conftest import add_report, append_record

pytestmark = [pytest.mark.slow]

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "BENCH_maintenance.json"
)
MIN_RATIO = 10.0

SMOKE = os.environ.get("REPRO_MAINTENANCE_SMOKE") == "1"
MODE = "smoke" if SMOKE else "full"
#: people, extra parents, remove/re-add rounds of the succession row
FOREST = (200, 20, 10) if SMOKE else (2000, 200, 100)
#: the successor index must beat a rebuild + Tarjan by at least this
MIN_SUCCESSION_RATIO = 5.0


WORKLOADS = [
    ("samegen d6", lambda: balanced_same_generation(depth=6, fanout=2)),
    ("table1 regular s2", lambda: regular_workload(scale=2)),
]


def full_resolve(left, exit_pairs, right, source):
    """Retrievals and answers of a from-scratch solve of the goal."""
    counter = CostCounter()
    result = solve(
        CSLQuery(left, exit_pairs, right, source), counter=counter
    )
    return counter.retrievals, result.answers


def churn_schedule(query):
    """Four single-fact updates: delete then re-insert one existing
    ``l`` pair and one existing ``e`` pair (deterministic picks)."""
    l_pair = max(query.left)
    e_pair = max(query.exit)
    return [
        ("delete", "l", l_pair),
        ("insert", "l", l_pair),
        ("delete", "e", e_pair),
        ("insert", "e", e_pair),
    ]


def run_workload(name, make_query):
    query = make_query()
    service = SolverService(query.database())
    program = query.to_program()
    source = query.source
    service.solve_batch(program, [source])  # compile + warm the plan

    edb = {
        "l": set(query.left),
        "e": set(query.exit),
        "r": set(query.right),
    }
    updates = []
    for op, relation, pair in churn_schedule(query):
        started = time.perf_counter()
        if op == "insert":
            result = service.mutate(inserts={relation: [pair]})
            edb[relation].add(pair)
        else:
            result = service.mutate(deletes={relation: [pair]})
            edb[relation].discard(pair)
        elapsed = time.perf_counter() - started
        assert result.plans_maintained == 1, (name, op, relation)
        assert result.plans_invalidated == 0, (name, op, relation)

        scratch_retrievals, scratch_answers = full_resolve(
            edb["l"], edb["e"], edb["r"], source
        )
        served = service.solve_batch(program, [source])
        assert served.cache_hit is True, (name, op, relation)
        assert served.answers[source] == scratch_answers, (
            name, op, relation,
        )

        maintain_retrievals = result.maintenance["retrievals"]
        assert maintain_retrievals * MIN_RATIO <= scratch_retrievals, (
            name, op, relation, maintain_retrievals, scratch_retrievals,
        )
        updates.append(
            {
                "op": op,
                "relation": relation,
                "maintain_retrievals": maintain_retrievals,
                "full_resolve_retrievals": scratch_retrievals,
                "facts_touched": result.maintenance["facts_touched"],
                "overdeleted": result.maintenance["overdeleted"],
                "rederived": result.maintenance["rederived"],
                "maintain_seconds": round(elapsed, 6),
            }
        )

    stats = service.stats()
    assert stats["plans_maintained"] == len(updates)
    assert stats["maintenance_fallbacks"] == 0
    return {
        "workload": name,
        "sizes": {k: len(v) for k, v in edb.items()},
        "updates": updates,
    }


def run_model_maintenance(name, make_query):
    """Datalog-layer counterpart: maintain the *full materialized model*
    of the canonical program with :class:`MaintenanceState` and compare
    each update's retrievals to a from-scratch ``seminaive_evaluate``.

    This is where the counting/DRed machinery pays its real costs
    (over-deletion, re-derivation), so unlike the plan-level projection
    updates the retrievals here are non-trivial.  Each update must still
    be strictly cheaper than half a re-evaluation.
    """
    query = make_query()
    program = query.to_program()
    program.query = None
    maintained = query.database()
    seminaive_evaluate(program, maintained)

    scratch = query.database()
    scratch.reset_cost()
    seminaive_evaluate(program, scratch)
    full = scratch.total_cost()

    state = MaintenanceState(program, maintained)
    updates = []
    for op, relation, pair in churn_schedule(query):
        if op == "insert":
            report = state.apply(inserts={relation: [pair]})
        else:
            report = state.apply(deletes={relation: [pair]})
        assert report.retrievals * 2 < full, (name, op, relation)
        updates.append(
            {
                "op": op,
                "relation": relation,
                "maintain_retrievals": report.retrievals,
                "full_evaluate_retrievals": full,
                "facts_touched": report.facts_touched,
                "overdeleted": report.overdeleted,
                "rederived": report.rederived,
            }
        )
    # The churn netted out to the original EDB: the maintained model
    # must be bit-identical to the from-scratch one.
    for predicate in program.idb_predicates():
        assert maintained.facts(predicate) == scratch.facts(predicate)
    return {"workload": name, "updates": updates}


def test_maintenance_dividend():
    rows = [run_workload(name, make) for name, make in WORKLOADS]
    model_rows = [run_model_maintenance(name, make) for name, make in WORKLOADS]
    append_record(
        RESULTS_PATH,
        "dividend",
        MODE,
        {"workloads": rows, "materialized_model": model_rows},
    )

    lines = [
        "incremental maintenance: per-update retrievals vs full re-solve",
        "",
        "serving stack (plan pair-set maintenance)",
        f"{'workload':<20} {'update':<12} {'maintain':>9} {'re-solve':>9} "
        f"{'ratio':>8}",
    ]
    for row in rows:
        for update in row["updates"]:
            maintain = update["maintain_retrievals"]
            scratch = update["full_resolve_retrievals"]
            ratio = scratch / maintain if maintain else float("inf")
            label = f"{update['op']} {update['relation']}"
            lines.append(
                f"{row['workload']:<20} {label:<12} {maintain:>9} "
                f"{scratch:>9} {ratio:>8.1f}"
            )
    lines += [
        "",
        "materialized model (counting + DRed over the canonical program)",
        f"{'workload':<20} {'update':<12} {'maintain':>9} {'re-eval':>9} "
        f"{'ratio':>8} {'over':>5} {'reder':>6}",
    ]
    for row in model_rows:
        for update in row["updates"]:
            maintain = update["maintain_retrievals"]
            scratch = update["full_evaluate_retrievals"]
            ratio = scratch / maintain if maintain else float("inf")
            label = f"{update['op']} {update['relation']}"
            lines.append(
                f"{row['workload']:<20} {label:<12} {maintain:>9} "
                f"{scratch:>9} {ratio:>8.1f} {update['overdeleted']:>5} "
                f"{update['rederived']:>6}"
            )
    add_report("maintenance_dividend", "\n".join(lines))


def _adjacency(index):
    return (
        index.l_successors,
        {c: sorted(bs) for c, bs in index.l_predecessors.items()},
        {b: sorted(cs) for b, cs in index.e_successors.items()},
        {y1: sorted(ys) for y1, ys in index.r_predecessors.items()},
    )


def run_index_succession():
    """Remove one parent pair, re-add it, ``rounds`` times, as
    ``churn_derived`` does: per delta, the milliseconds until the next
    version's index and condensation exist (``CSLQuery.patched``, then
    whatever its ``index.condensation`` still has to do), a from-scratch
    ``GraphIndex`` + Tarjan over the same pair sets, and one cold
    decision on the successor."""
    people, extra_parents, rounds = FOREST
    parent = sorted(
        random_forest_parent(people, seed=0, extra_parents=extra_parents)
    )
    persons = sorted({value for pair in parent for value in pair})
    rng = random.Random(0)
    query = CSLQuery.same_generation(parent, persons[-1], persons=persons)
    query.index.condensation
    succession, rebuild, decision = [], [], []
    for _round in range(rounds):
        pair = rng.choice(parent)
        for delta in ((set(), {pair}), ({pair}, set())):
            source = rng.choice(persons)
            started = time.perf_counter()
            query = query.patched(left=delta, right=delta)
            condensation = query.index.condensation
            succession.append(time.perf_counter() - started)

            started = time.perf_counter()
            fresh = GraphIndex(query.left, query.exit, query.right)
            fresh.condensation
            rebuild.append(time.perf_counter() - started)

            sibling = query.with_source(source)
            started = time.perf_counter()
            report = analyze_cost_query(sibling)
            decision.append(time.perf_counter() - started)

            # Parity: the successor is the from-scratch build, its
            # condensation is one of this graph, and decides alike.
            assert _adjacency(query.index) == _adjacency(fresh)
            assert condensation.cores == fresh.condensation.cores == frozenset()
            assert set(condensation.rank) == set(fresh.condensation.rank)
            assert all(
                condensation.rank[b] > condensation.rank[c]
                for b, c in query.left
            )
            scratch = analyze_cost_query(
                CSLQuery(query.left, query.exit, query.right, source)
            )
            assert report.certificate.to_json() == scratch.certificate.to_json()
            assert vars(report.recommendation) == vars(scratch.recommendation)
    assert query.left == frozenset(parent)

    def median_ms(seconds):
        return round(statistics.median(seconds) * 1000.0, 4)

    return {
        "workload": (
            f"samegen forest {people} people, {extra_parents} extra parents"
        ),
        "sizes": {
            "l": len(query.left), "e": len(query.exit), "r": len(query.right),
        },
        "deltas": len(succession),
        "succession_ms": median_ms(succession),
        "rebuild_ms": median_ms(rebuild),
        "cold_decision_ms": median_ms(decision),
    }


def test_index_succession_on_the_churn_forest():
    row = run_index_succession()
    append_record(RESULTS_PATH, "index_succession", MODE, row)
    add_report(
        "maintenance_index_succession",
        "\n".join(
            [
                "next version's index + condensation, per one-arc delta "
                f"({row['workload']}; median of {row['deltas']})",
                "",
                f"{'CSLQuery.patched + index.condensation':<42} "
                f"{row['succession_ms']:>9.4f} ms",
                f"{'from-scratch build + Tarjan':<42} "
                f"{row['rebuild_ms']:>9.4f} ms",
                f"{'cold decision on the successor':<42} "
                f"{row['cold_decision_ms']:>9.4f} ms",
            ]
        ),
    )
    if not SMOKE:
        assert (
            row["succession_ms"] * MIN_SUCCESSION_RATIO <= row["rebuild_ms"]
        ), row
