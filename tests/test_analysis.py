"""Tests for the measurement harness and table rendering."""

import pytest

from repro.analysis.runner import ALL_METHODS, Measurement, measure, sweep
from repro.analysis.tables import format_cell, render_ratio_sweep, render_table
from repro.core.solver import fact2_answer, solve
from repro.errors import EvaluationError
from repro.workloads.generators import cyclic_workload, regular_workload


class TestRunMethod:
    def test_every_named_method_runs(self, samegen_query):
        oracle = fact2_answer(samegen_query)
        for method in ALL_METHODS:
            result = solve(samegen_query, method)
            assert result.answers == oracle, method

    def test_unknown_method(self, samegen_query):
        with pytest.raises(EvaluationError):
            solve(samegen_query, "astrology")


class TestMeasure:
    def test_full_measurement(self, samegen_query):
        m = measure(samegen_query)
        assert set(m.costs) == set(ALL_METHODS)
        assert all(cost is not None for cost in m.costs.values())
        assert m.answers == fact2_answer(samegen_query)

    def test_unsafe_method_recorded_as_none(self, cyclic_query):
        m = measure(cyclic_query, methods=["counting", "magic_set"])
        assert m.costs["counting"] is None
        assert m.costs["magic_set"] is not None

    def test_ratio(self, samegen_query):
        m = measure(samegen_query, methods=["magic_set"])
        assert m.ratio("magic_set") == m.costs["magic_set"] / m.predictions["magic_set"]

    def test_ratio_none_when_unsafe(self, cyclic_query):
        m = measure(cyclic_query, methods=["counting"])
        assert m.ratio("counting") is None

    def test_sweep(self):
        queries = [regular_workload(scale=s, seed=0) for s in (1, 2)]
        measurements = sweep(queries, methods=["counting"])
        assert len(measurements) == 2
        assert measurements[0].costs["counting"] < measurements[1].costs["counting"]


class TestHarnessIntegrity:
    def test_wrong_answers_rejected(self, samegen_query, monkeypatch):
        """The harness must refuse to report costs for wrong answers."""
        import repro.analysis.runner as runner_module
        from repro.core.cost import AnswerResult
        from repro.datalog.relation import CostCounter

        def lying_method(query, method):
            return AnswerResult(
                answers=frozenset({"wrong"}),
                method=method,
                cost=CostCounter(),
            )

        monkeypatch.setattr(runner_module, "solve", lying_method)
        with pytest.raises(AssertionError):
            runner_module.measure(samegen_query, methods=["magic_set"])


class TestTables:
    def test_format_cell(self):
        assert format_cell(None) == "unsafe"
        assert format_cell(42) == "42"

    def test_render_table_contains_rows(self):
        m = measure(regular_workload(scale=1, seed=0), methods=["counting", "magic_set"])
        text = render_table("Table 1", ["counting", "magic_set"], [m])
        assert "Table 1" in text
        assert "counting" in text and "magic_set" in text
        assert "regular meas/pred" in text

    def test_render_table_unsafe_cell(self):
        m = measure(cyclic_workload(scale=1, seed=0), methods=["counting"])
        text = render_table("t", ["counting"], [m])
        assert "unsafe" in text

    def test_render_ratio_sweep(self):
        ms = [
            measure(regular_workload(scale=s, seed=0), methods=["magic_set"])
            for s in (1, 2)
        ]
        text = render_ratio_sweep("ratios", ["magic_set"], ms, ["s1", "s2"])
        assert "ratios" in text and "magic_set" in text

    def test_columns_aligned(self):
        m = measure(regular_workload(scale=1, seed=0), methods=["counting"])
        text = render_table("t", ["counting"], [m])
        lines = [l for l in text.splitlines() if "|" in l]
        pipe_positions = {tuple(i for i, c in enumerate(l) if c == "|") for l in lines}
        assert len(pipe_positions) == 1
