"""The pair-log reader: the committed log folds whole, and the readings
past PRs claimed print from the file alone, each against a noise floor."""

import json

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


def test_a_floor_wider_than_the_bound_leaves_pr35_churn_unresolved():
    # The host spreads churn_derived's timings by more than the 25% the
    # benchmark tolerates, so a change inside that spread is not read as
    # unchanged; its retrievals and memory are steady enough to be.
    tables = trajectory.summarize(trajectory.load())
    table = next(t for t in tables if (t.pr, t.workload) == (35, "churn_derived"))
    verdicts = {row[0]: row[-1] for row in table.rows}
    assert verdicts == {
        "setup_s": "unresolved", "ops_per_s": "unresolved",
        "solve_p50_ms": "unresolved", "solve_p95_ms": "unresolved",
        "retrievals_per_op": "no change", "peak_rss_mb": "no change",
    }
    assert table.traced == 6 and len(table.pairs) == 7


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
