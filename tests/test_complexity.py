"""Tests for graph statistics and the Θ cost formulas."""

import pytest

from repro.core.classification import MagicGraphClass
from repro.core.complexity import (
    all_method_predictions,
    compute_statistics,
    predicted_cost,
)
from repro.core.csl import CSLQuery
from repro.core.methods import METHODS
from repro.workloads.figures import figure2_query


def stats_of(left, exit_pairs=None, right=None, source="a"):
    return compute_statistics(
        CSLQuery(left, exit_pairs or set(), right or set(), source)
    )


class TestStatistics:
    def test_regular_chain(self):
        stats = stats_of({("a", "b"), ("b", "c")}, {("c", "r")}, {("s", "r")})
        assert stats.graph_class is MagicGraphClass.REGULAR
        assert (stats.n_l, stats.m_l) == (3, 2)
        assert (stats.n_r, stats.m_r) == (2, 1)
        assert stats.n_s == 3 and stats.m_s == 2
        # No trouble anywhere: hatted sets cover everything.
        assert stats.n_i_hat == 3 and stats.n_m_hat == 3
        assert stats.n_m == 3

    def test_i_x_on_regular(self):
        stats = stats_of({("a", "b"), ("b", "c")})
        assert stats.i_x == 3
        assert stats.n_x == 3

    def test_acyclic_statistics(self):
        # a -> b -> c plus skip a -> c; d hangs off a (clean).
        stats = stats_of({("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")})
        assert stats.graph_class is MagicGraphClass.ACYCLIC
        assert stats.n_s == 3  # a, b, d
        assert stats.n_m == 4  # everything (no recurring)
        assert stats.n_m_hat == 4
        # b reaches the multiple node c; d does not; a reaches it.
        assert stats.n_i_hat == 1

    def test_figure2_reference_values(self):
        stats = compute_statistics(figure2_query())
        assert (stats.i_x, stats.n_x, stats.m_x) == (2, 4, 3)
        assert (stats.n_j_hat, stats.m_j_hat) == (1, 1)
        assert (stats.n_s, stats.m_s, stats.n_i_hat, stats.m_i_hat) == (6, 6, 2, 3)
        assert (stats.n_m, stats.m_m, stats.m_m_hat) == (8, 9, 8)

    def test_as_dict_keys(self):
        d = compute_statistics(figure2_query()).as_dict()
        assert {"n_L", "m_L", "i_x", "n_m̂"} <= set(d)


class TestPredictedCost:
    def test_counting_unsafe_on_cyclic(self):
        stats = stats_of({("a", "a")})
        assert predicted_cost("counting", stats) is None

    def test_counting_regular_formula(self):
        stats = stats_of({("a", "b")}, {("b", "r")}, {("s", "r")})
        assert predicted_cost("counting", stats) == stats.m_l + stats.n_l * stats.m_r

    def test_magic_set_formula(self):
        stats = stats_of({("a", "b")}, {("b", "r")}, {("s", "r")})
        assert (
            predicted_cost("magic_set", stats)
            == stats.m_l + stats.m_l * stats.m_r
        )

    def test_all_mc_methods_collapse_on_regular(self):
        stats = stats_of({("a", "b")}, {("b", "r")}, {("s", "r")})
        values = {
            predicted_cost(m, stats)
            for m in (
                "mc_basic_independent",
                "mc_basic_integrated",
                "mc_single_independent",
                "mc_single_integrated",
                "mc_multiple_independent",
                "mc_multiple_integrated",
                "mc_recurring_independent",
                "mc_recurring_integrated",
            )
        }
        assert values == {stats.m_l + stats.n_l * stats.m_r}

    def test_integrated_never_above_independent(self):
        stats = compute_statistics(figure2_query())
        for strategy in ("single", "multiple", "recurring"):
            ind = predicted_cost(f"mc_{strategy}_independent", stats)
            integ = predicted_cost(f"mc_{strategy}_integrated", stats)
            assert integ <= ind, strategy

    def test_strategy_order_on_proportioned_workload(self):
        # The paper's ordering is asymptotic and assumes m_R of the same
        # order as m_L (Figure 3's dotted arcs); on such instances the
        # formulas order pointwise up to a whisker of slack (n_x can
        # exceed m_x by one on tree-shaped regions).
        from repro.workloads.generators import acyclic_workload

        stats = compute_statistics(acyclic_workload(scale=3, seed=7))
        basic = predicted_cost("mc_basic_integrated", stats)
        single = predicted_cost("mc_single_integrated", stats)
        multiple = predicted_cost("mc_multiple_integrated", stats)
        assert multiple <= 1.1 * single
        assert single <= 1.1 * basic

    def test_unknown_method_rejected(self):
        stats = stats_of({("a", "b")})
        with pytest.raises(ValueError):
            predicted_cost("bogus", stats)

    def test_all_method_predictions_covers_everything(self):
        predictions = all_method_predictions(compute_statistics(figure2_query()))
        assert list(predictions) == list(METHODS)
        for method, value in predictions.items():
            # cyclic: "unsafe" exactly for the methods that need acyclicity
            assert (value is None) == METHODS[method].needs_acyclic, method

    def test_extended_counting_on_cyclic(self):
        stats = compute_statistics(figure2_query())
        value = predicted_cost("extended_counting", stats)
        assert value == stats.n_l * stats.n_r * (stats.m_l + stats.m_r)

    def test_scc_step1_prediction_smaller_on_cyclic_chain(self):
        chain = {(f"n{i}", f"n{i+1}") for i in range(30)}
        chain |= {("a", "n0"), ("n30", "n29")}
        stats = stats_of(chain, {("n30", "r")}, {("s", "r")})
        naive = predicted_cost("mc_recurring_integrated", stats)
        smart = predicted_cost("mc_recurring_integrated_scc", stats)
        assert smart < naive
