"""Tests for the EXPLAIN facility (core.explain + REPL .plan)."""

import pytest

from repro.analysis.cost import analyze_cost_query
from repro.core.explain import explain_evaluation
from repro.core.methods import METHODS
from repro.repl import Repl
from repro.workloads.figures import figure2_query
from repro.workloads.generators import cyclic_workload, regular_workload


class TestExplainEvaluation:
    def test_regular_plan(self):
        text = explain_evaluation(regular_workload(scale=1, seed=0))
        assert "class: regular" in text
        assert "CS[0]" in text
        assert "adaptive choice: counting" in text

    def test_cyclic_plan(self):
        query = cyclic_workload(scale=1, seed=0)
        text = explain_evaluation(query)
        assert "class: cyclic" in text
        assert "UNSAFE" in text
        # The plan is the certified-bound ranking's pick, with its reason
        # (no row name: the cyclic generator follows the hash seed).
        recommendation = analyze_cost_query(query).recommendation
        assert not METHODS[recommendation.method].needs_acyclic
        assert f"adaptive choice: {recommendation.method} " in text
        assert f"why: {recommendation.details['reason']}" in text
        assert "unsafe" in text  # the counting prediction cell

    def test_figure2_plan_mentions_classes(self):
        text = explain_evaluation(figure2_query())
        assert "2 multiple" in text
        assert "4 recurring" in text
        assert "i_x = 2" in text

    def test_reduced_sets_listed_per_strategy(self):
        text = explain_evaluation(figure2_query())
        for strategy in ("basic", "single", "multiple", "recurring"):
            assert strategy in text

    def test_level_rows_truncated(self):
        from repro.core.csl import CSLQuery

        left = {("a", "n0")} | {(f"n{i}", f"n{i+1}") for i in range(30)}
        query = CSLQuery(left, set(), set(), "a")
        text = explain_evaluation(query, max_level_rows=5)
        assert "more levels" in text

    def test_value_set_truncated(self):
        from repro.core.csl import CSLQuery

        left = {("a", f"n{i}") for i in range(20)}
        left |= {(f"n{i}", "sink") for i in range(20)}
        left |= {("sink", "n0")}  # cycle => all recurring downstream
        query = CSLQuery(left, set(), set(), "a")
        text = explain_evaluation(query)
        assert "(+" in text  # the "… (+N)" truncation marker


class TestReplPlan:
    def test_plan_command(self):
        shell = Repl()
        for line in (
            "parent(ann, mona).",
            "flat(mona, mona).",
            "sg(X, Y) :- flat(X, Y).",
            "sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).",
        ):
            shell.execute(line)
        out = shell.execute(".plan sg(ann, Y)")
        assert any("== magic graph ==" in line for line in out)
        assert any("adaptive choice" in line for line in out)

    def test_plan_on_non_csl_reports_error(self):
        shell = Repl()
        shell.execute("e(1, 2).")
        shell.execute("t(X, Y) :- e(X, Y).")
        shell.execute("t(X, Y) :- t(X, Z), t(Z, Y).")
        out = shell.execute(".plan t(1, Y)")
        assert out[0].startswith("error:")
