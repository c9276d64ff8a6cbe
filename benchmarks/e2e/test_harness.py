"""Tests of the benchmark harness itself.

``slow``-marked and outside tier-1 ``testpaths``: run with
``PYTHONPATH=src python -m pytest benchmarks/e2e -m slow``.
"""

import json
import random

import pytest

from . import ROOT
from .diff import verdict
from .layers import PER_LAYER, build_trace
from .loadgen import check_connection_budget
from .report import END_TO_END, driver_line, run_one
from .stats import (
    MIN_SAMPLES_BEYOND,
    covered,
    percentile,
    self_times,
    sliced,
    spread,
    unattributed_share,
)
from .workloads import NAMES, build, inputs_digest

pytestmark = pytest.mark.slow


# --- the one command, at tiny scale --------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_run_reports_every_layer(name):
    result = run_one(name, seed=0, seconds=0.2, trace=True, tiny=True)
    assert result["correct"], result
    assert result["attempted"] > 0 and result["failed"] == 0
    assert set(result["per_layer"]) == set(PER_LAYER)
    assert not result["notes"]
    line = json.loads(driver_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(
        isinstance(metric["value"], (int, float))
        for metric in line["metrics"].values()
    )
    spans = json.loads(
        (ROOT / "benchmarks/e2e/results" / f"trace_{name}.json").read_text()
    )
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    result = run_one("churn_derived", seed=0, seconds=0.2, trace=False, tiny=True)
    assert result["correct"], result
    metrics = json.loads(driver_line(result))["metrics"]
    assert set(metrics) == set(END_TO_END)
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert result["mutate_samples"]["count"] > 0


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == PER_LAYER
    assert spec["paths"] == ["benchmarks/e2e"]


# --- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_inputs_and_op_streams(name):
    first, second = build(name, tiny=True), build(name, tiny=True)
    assert inputs_digest(first, 7) == inputs_digest(second, 7)
    assert inputs_digest(first, 7) != inputs_digest(first, 8)
    if first.kind == "served":
        assert first.facts_text == second.facts_text
        one = first.steps(random.Random(7))
        two = second.steps(random.Random(7))
        assert [next(one) for _ in range(100)] == [next(two) for _ in range(100)]


def test_a_whole_epoch_visits_every_source_once_whatever_the_seed():
    workload = build("point_acyclic", tiny=True)
    for seed in (1, 2):
        stream = workload.steps(random.Random(seed))
        epoch = [next(stream)[0][1] for _ in range(workload.retrieval_steps)]
        assert len(set(epoch)) == workload.retrieval_steps


# --- the arithmetic --------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 1) == 1
    assert percentile([], 50) is None
    assert percentile([3.0], 50) == 3.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    # p95 of 200 samples is rank 190: exactly ten beyond.
    assert percentile(list(range(200)), 95) == 189
    assert percentile(list(range(199)), 95) is None
    # p99 needs 1,000.
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) == 989
    assert MIN_SAMPLES_BEYOND == 10


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1.0]) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_a_run_reports_its_quietest_fifth_slice():
    # Ten one-operation slices; a stalled host doubles three of them.
    durations = [1.0, 1.0, 2.0, 1.1, 2.0, 1.0, 1.2, 2.0, 1.0, 1.3]
    slices, clock = [], 0.0
    for duration in durations:
        slices.append([(clock, clock + duration, duration)])
        clock += duration
    quiet = sliced(slices)
    assert quiet["slices"] == 10
    assert quiet["p50_s"] == 1.0 and quiet["p95_s"] == 1.0
    assert quiet["ops_per_s"] == pytest.approx(1.0)
    # a mutation counts for throughput, not for latency
    mixed = sliced([[(0.0, 1.0, 1.0), (1.0, 2.0, None)]])
    assert mixed["ops_per_s"] == pytest.approx(1.0) and mixed["p50_s"] == 1.0


def test_self_time_is_span_minus_covered_children():
    spans = [
        {"id": 0, "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "start": 1.0, "end": 4.0, "parent": 0},
        # overlaps its sibling: the overlap is subtracted once
        {"id": 2, "start": 3.0, "end": 6.0, "parent": 0},
        # sticks out of its parent: clipped
        {"id": 3, "start": 9.0, "end": 12.0, "parent": 0},
        {"id": 4, "start": 1.5, "end": 2.0, "parent": 1},
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.5)
    assert own[2] == pytest.approx(3.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_attribution_share():
    assert unattributed_share(10.0, 9.5) == pytest.approx(0.05)
    assert unattributed_share(10.0, 9.5) <= 0.10
    assert unattributed_share(10.0, 8.0) > 0.10
    assert unattributed_share(0.0, 0.0) == 0.0


def test_server_spans_attach_to_the_requests_they_served():
    def record(step, op, arg, start, end):
        return {"step": step, "op": op, "arg": arg, "start": start,
                "end": end, "ok": True}

    raw = {
        "clock": (100.0, 0.0),  # the child's clock runs 100 s ahead
        "records": [
            record(0, "solve", "a", 0.0, 1.0),
            record(0, "solve", "b", 0.0, 1.1),
            record(1, "remove", ("f", ("x", "y")), 2.0, 2.5),
        ],
        "child": {
            "spans": [
                # warm-up traffic before the first measured step
                {"id": 0, "name": "service.service.solve_batch",
                 "start": 98.0, "end": 99.0, "parent": None, "sources": ["a"]},
                {"id": 1, "name": "service.service.solve_batch",
                 "start": 100.2, "end": 100.9, "parent": None,
                 "sources": ["a", "b"]},
                {"id": 2, "name": "core.magic_method.fixpoint",
                 "start": 100.3, "end": 100.8, "parent": 1},
                {"id": 3, "name": "service.service.mutate",
                 "start": 102.1, "end": 102.4, "parent": None},
            ]
        },
    }
    trace = build_trace(raw)
    by_name = {}
    for span in trace:
        by_name.setdefault(span["name"], []).append(span)
    (batch,) = by_name["service.service.solve_batch"]
    assert batch["requests"] == [0, 1] and batch["parent"] == 0
    assert batch["start"] == pytest.approx(0.2)
    (fixpoint,) = by_name["core.magic_method.fixpoint"]
    assert fixpoint["parent"] == batch["id"]
    (mutate,) = by_name["service.service.mutate"]
    assert mutate["requests"] == [2]
    own = self_times(trace)
    assert own[batch["id"]] == pytest.approx(0.7 - 0.5)


# --- load hygiene and the diff ----------------------------------------------


def test_refuses_more_connections_than_cores():
    check_connection_budget(2, cores=2)
    with pytest.raises(RuntimeError, match="refusing to open 3 connections"):
        check_connection_budget(3, cores=2)


def test_diff_verdicts():
    steady_old, steady_new = [100.0, 101.0, 99.0, 100.0], [103.0, 104.0, 103.0, 102.0]
    assert verdict(steady_old, steady_new, 0.10, "lower")[0] == "ok"
    assert verdict(steady_old, [120.0, 121.0, 119.0, 120.0], 0.10, "lower")[0] == "regressed"
    # higher is better: a drop beyond the bound regresses
    assert verdict(steady_old, [80.0, 81.0, 80.0, 79.0], 0.10, "higher")[0] == "regressed"
    noisy = [60.0, 100.0, 140.0, 100.0]
    assert verdict(noisy, [130.0, 90.0, 150.0, 110.0], 0.10, "lower")[0] == "unresolved"
    # noisy, but every new value beats every old one
    assert verdict(noisy, [50.0, 40.0, 55.0, 45.0], 0.10, "lower")[0] == "ok"
