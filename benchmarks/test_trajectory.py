"""The pair-log reader: the committed log folds whole, the readings past
PRs claimed print from the file alone, and a verdict is read from a PR's
own pairs: the sign-test interval of their log-ratios."""

import dataclasses
import json
import math
import random

import pytest

from benchmarks import trajectory


def _row(tables, pr, workload, metric):
    table = next(t for t in tables if (t.pr, t.workload) == (pr, workload))
    return dict(zip(trajectory._HEADER, next(r for r in table.rows if r[0] == metric)))


def test_the_committed_log_reads_whole(capsys):
    assert trajectory.main([]) == 0
    assert "PR 30 · wave_cyclic" in capsys.readouterr().out


@pytest.mark.parametrize("pr, workload, metric, parent, change, verdict", [
    (30, "wave_cyclic", "solve_p50_ms", "14.64", "7.01", "better"),
    (29, "engine_samegen", "solve_p95_ms", "56.75", "31.59", "better"),
    (27, "churn_derived", "solve_p95_ms", "9.58", "3.95", "better"),
    (35, "churn_derived", "solve_p95_ms", "5.06", "5.15", "unresolved"),
])
def test_past_claims_print_with_their_floor(pr, workload, metric, parent, change, verdict):
    row = _row(trajectory.summarize(trajectory.load()), pr, workload, metric)
    assert row["parent median [q1, q3]"].split()[0] == parent
    assert row["change median [q1, q3]"].split()[0] == change
    assert row["verdict"] == verdict
    assert row["floor"].startswith("±")


def test_a_seven_pair_churn_table_reads_from_its_extremes():
    # Seven pairs give the extremes as the interval (98.4% coverage).
    # The timings straddle 1 and reach past the 25% bound, except
    # ops_per_s, whose interval sits inside it; retrievals and memory
    # are steady enough to be read as unchanged.
    tables = trajectory.summarize(trajectory.load())
    table = next(t for t in tables if (t.pr, t.workload) == (35, "churn_derived"))
    verdicts = {row[0]: row[-1] for row in table.rows}
    assert verdicts == {
        "setup_s": "unresolved", "ops_per_s": "no change",
        "solve_p50_ms": "unresolved", "solve_p95_ms": "unresolved",
        "retrievals_per_op": "no change", "peak_rss_mb": "no change",
    }
    assert table.traced == 6 and len(table.pairs) == 7


@pytest.mark.parametrize("pr, workload, metric", [
    (27, "churn_derived", "solve_p50_ms"),    # -19%, 14/14 pairs
    (29, "engine_samegen", "ops_per_s"),      # +46%, 10/10 pairs
    (41, "wave_cyclic", "solve_p50_ms"),      # the P_M fixpoint on bitmasks
])
def test_claims_won_on_every_pair_read_better(pr, workload, metric):
    row = _row(trajectory.summarize(trajectory.load()), pr, workload, metric)
    assert row["verdict"] == "better"


def test_workloads_off_a_changed_path_never_read_better():
    # The log's pr 36 records measure a recurring_step1 change, which
    # these four workloads never run.
    tables = trajectory.summarize(trajectory.load())
    for workload in ("point_acyclic", "wave_cyclic", "churn_derived", "engine_samegen"):
        table = next(t for t in tables if (t.pr, t.workload) == (36, workload))
        assert {row[-1] for row in table.rows} <= {"no change", "unresolved"}


@pytest.mark.parametrize("n, k", [(5, 0), (6, 1), (8, 1), (9, 2), (10, 2), (14, 3)])
def test_the_sign_interval_is_the_exact_order_statistic(n, k):
    # k: the largest with 2·P(Bin(n, 1/2) < k) <= 5%
    logs = [float(i) for i in range(n)]
    random.Random(n).shuffle(logs)
    interval = trajectory.sign_interval(logs)
    if k == 0:
        assert interval is None
    else:
        assert interval == (float(k - 1), float(n - k))
        assert 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n <= trajectory.ALPHA
        assert 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n > trajectory.ALPHA


def test_two_pairs_never_resolve(tmp_path):
    records = []
    for seed in (1, 2):
        for side, value in (("parent", 2.0), ("change", 1.0)):
            record = _record(side, 100.0, seed=seed)
            record["metrics"]["solve_p50_ms"] = value
            records.append(record)
    (table,) = trajectory.summarize(trajectory.load(_write(tmp_path, *records)))
    assert {row[-1] for row in table.rows} == {"unresolved"}


def test_an_aa_relabelling_stays_within_the_error_rate():
    # Swap the sides of each committed pair with probability 1/2: the
    # log-ratios lose their sign, so no metric may read "better" or
    # "worse" more often than ALPHA, over the tables that can resolve.
    runs = trajectory.load()
    rng = random.Random(17)
    readings = {metric: [] for metric in trajectory.END_TO_END}
    swap = {"parent": "change", "change": "parent"}
    pairs = sorted({(run.pr, run.workload, run.seed) for run in runs})
    for _draw in range(60):
        flipped = {pair for pair in pairs if rng.random() < 0.5}
        relabelled = [
            dataclasses.replace(run, side=swap.get(run.side, run.side))
            if (run.pr, run.workload, run.seed) in flipped else run
            for run in runs
        ]
        for table in trajectory.summarize(relabelled):
            if len(table.pairs) >= 6:
                for row in table.rows:
                    readings[row[0]].append(row[-1] in ("better", "worse"))
    for metric, hits in readings.items():
        assert hits and sum(hits) / len(hits) <= trajectory.ALPHA, metric


def _record(side, retrievals, **extra):
    metrics = dict.fromkeys(trajectory.END_TO_END, 1.0)
    metrics[trajectory.RETRIEVALS] = retrievals
    return {"pr": 1, "workload": "w", "side": side, "commit": "c", "seed": 7,
            "attempted": 10, "failed": 0, "correct": True, "trace": 0,
            "metrics": metrics, **extra}


def _write(tmp_path, *records):
    log = tmp_path / "pairs.jsonl"
    log.write_text("".join(json.dumps(record) + "\n" for record in records))
    return str(log)


def test_unmarked_retrieval_drift_fails(tmp_path, capsys):
    log = _write(tmp_path, _record("parent", 100.0), _record("change", 90.0))
    assert trajectory.main(["--log", log]) == 1
    assert "seeds [7]" in capsys.readouterr().err

    marked = _record("change", 90.0, intended="fewer batches split")
    assert trajectory.main(["--log", _write(tmp_path, _record("parent", 100.0), marked)]) == 0


@pytest.mark.parametrize("damage", [
    lambda r: r.update(trace="yes"),               # a mistyped trace
    lambda r: r["metrics"].pop("solve_p95_ms"),    # an end-to-end metric missing
    lambda r: r.update(seed="7"),                  # a mistyped field
    lambda r: r.update(side="other"),              # an unknown side
    lambda r: r.update(intented="typo"),           # an unknown key
    lambda r: r.pop("metrics"),                    # no readings
])
def test_malformed_records_fail(tmp_path, damage):
    record = _record("parent", 100.0)
    damage(record)
    assert trajectory.main(["--log", _write(tmp_path, record)]) == 1


def test_traced_runs_stay_out_of_the_medians(tmp_path):
    traced = _record("change", 100.0, trace=1,
                     metrics={"core.step1.recurring_ms": 2.0})
    runs = trajectory.load(_write(tmp_path, _record("parent", 100.0), traced))
    assert [run.traced for run in runs] == [False, True]
    assert trajectory.summarize(runs) == []  # no untraced pair
