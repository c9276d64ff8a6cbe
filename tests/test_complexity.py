"""Tests for graph statistics and the Θ cost formulas.

``compute_statistics`` reads every quantity off the cost analyzer's
region walk; :class:`TestAgainstPaperDefinitions` holds it to the
paper's definitions evaluated over the explicit query graph and exact
``I_b`` sets (``build_query_graph`` → ``classify_graph``, the oracle).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cost import DEFAULT_NODE_BUDGET, collect_statistics, interpret
from repro.core.classification import (
    MagicGraphClass,
    boundary_index,
    classify_graph,
)
from repro.core.complexity import (
    GraphStatistics,
    all_method_predictions,
    compute_statistics,
    predicted_cost,
)
from repro.core.csl import CSLQuery
from repro.core.graph_index import closure
from repro.core.methods import METHODS
from repro.core.query_graph import build_query_graph
from repro.workloads.adversarial import (
    chorded_cycle,
    deep_single_branch_with_early_multiple,
    diamond_ladder_into_cycle,
    overlapping_descent_chain,
)
from repro.workloads.figures import (
    figure1_acyclic_query,
    figure1_cyclic_query,
    figure1_query,
    figure2_query,
)
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)
from repro.workloads.random_graphs import random_csl
from repro.workloads.samegen import (
    accidentally_cyclic_family,
    balanced_same_generation,
)
from repro.workloads.tight import layered_complete


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


def paper_statistics(query: CSLQuery) -> GraphStatistics:
    """The Table 1-5 quantities by their definitions (module docstring of
    :mod:`repro.core.complexity`), over the explicit query graph."""
    graph = build_query_graph(query)
    classification = classify_graph(graph)
    predecessors = {b: set() for b in graph.l_nodes}
    for b, c in graph.l_arcs:
        predecessors[c].add(b)

    def reaching(targets):
        """Nodes with an L path of length >= 1 to ``targets``."""
        return closure(
            {p for target in targets for p in predecessors[target]},
            predecessors,
        )

    def within(nodes):
        return sum(1 for b, c in graph.l_arcs if b in nodes and c in nodes)

    def entering(nodes):
        return sum(1 for _b, c in graph.l_arcs if c in nodes)

    single = classification.single
    multiple = classification.multiple
    recurring = classification.recurring
    distance = classification.shortest_distance
    i_x = boundary_index(classification)
    below = {b for b in single if distance[b] < i_x}
    above = reaching({b for b in graph.l_nodes if distance[b] >= i_x})
    j_hat = below - above
    i_hat = single - reaching(multiple | recurring)
    finite = single | multiple
    m_hat = finite - reaching(recurring)
    return GraphStatistics(
        n_l=graph.n_l, m_l=graph.m_l, n_r=graph.n_r, m_r=graph.m_r,
        m_e=graph.m_e, graph_class=classification.graph_class,
        i_x=i_x, n_x=len(below), m_x=within(below),
        n_j_hat=len(j_hat), m_j_hat=entering(j_hat),
        n_s=len(single), m_s=within(single),
        n_i_hat=len(i_hat), m_i_hat=entering(i_hat),
        n_m=len(finite), m_m=within(finite),
        n_m_hat=len(m_hat), m_m_hat=entering(m_hat),
    )


def assert_matches_oracle(query: CSLQuery) -> None:
    """Statistics and node classes off the region walk equal the
    paper's, from ``query``'s own source."""
    assert compute_statistics(query) == paper_statistics(query)
    abstract = interpret(collect_statistics(query, node_budget=None))
    truth = classify_graph(build_query_graph(query))
    assert abstract.provably_single == truth.single
    assert abstract.finite - abstract.provably_single == truth.multiple
    assert abstract.recurring == truth.recurring


def assert_matches_oracle_everywhere(query: CSLQuery) -> None:
    """:func:`assert_matches_oracle` from every source with an L arc."""
    for source in sorted({b for b, _c in query.left}, key=repr):
        assert_matches_oracle(query.with_source(source))


FAMILIES = {
    f"{family.__name__}-s{scale}-seed{seed}": (family, scale, seed)
    for family in (regular_workload, acyclic_workload, cyclic_workload)
    for scale in (2, 4)
    for seed in range(3)
}

NAMED = {
    "layered_complete": lambda: layered_complete(4, 3),
    "layered_complete_cyclic": lambda: layered_complete(4, 3, with_cycle=True),
    "chorded_cycle": lambda: chorded_cycle(12),
    "diamond_ladder_into_cycle": lambda: diamond_ladder_into_cycle(5),
    "deep_single_branch": lambda: deep_single_branch_with_early_multiple(8),
    "overlapping_descent_chain": lambda: overlapping_descent_chain(10),
    "balanced_same_generation": lambda: balanced_same_generation(4),
    "accidentally_cyclic_family": lambda: accidentally_cyclic_family(60),
    "figure1": figure1_query,
    "figure1_acyclic": figure1_acyclic_query,
    "figure1_cyclic": figure1_cyclic_query,
    "figure2": figure2_query,
}


class TestAgainstPaperDefinitions:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_csl(self, seed):
        assert_matches_oracle_everywhere(random_csl(seed))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_table1_families(self, name):
        family, scale, seed = FAMILIES[name]
        assert_matches_oracle_everywhere(family(scale=scale, seed=seed))

    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_instances(self, name):
        assert_matches_oracle_everywhere(NAMED[name]())

    def test_region_above_the_budget_is_not_widened(self):
        size = DEFAULT_NODE_BUDGET + 10
        chain = {(f"n{i}", f"n{i + 1}") for i in range(size)}
        query = CSLQuery(chain, {(f"n{size}", "r")}, {("s", "r")}, "n0")
        assert collect_statistics(query).widened
        stats = compute_statistics(query)
        assert stats == paper_statistics(query)
        assert (stats.n_l, stats.m_l, stats.n_s) == (size + 1, size, size + 1)
        assert stats.graph_class is MagicGraphClass.REGULAR
