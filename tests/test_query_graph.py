"""Tests for query-graph construction (Section 3)."""

from repro.core.csl import CSLQuery
from repro.core.query_graph import build_query_graph


class TestLSide:
    def test_only_reachable_nodes(self):
        q = CSLQuery({("a", "b"), ("z", "w")}, set(), set(), "a")
        g = build_query_graph(q)
        assert g.l_nodes == {"a", "b"}
        assert g.l_arcs == {("a", "b")}

    def test_magic_set_equals_l_nodes(self):
        q = CSLQuery({("a", "b"), ("b", "c"), ("c", "a")}, set(), set(), "a")
        g = build_query_graph(q)
        assert g.magic_set == q.magic_set()

    def test_source_alone(self):
        q = CSLQuery(set(), set(), set(), "a")
        g = build_query_graph(q)
        assert g.l_nodes == {"a"} and g.m_l == 0

    def test_counts(self):
        q = CSLQuery({("a", "b"), ("a", "c"), ("b", "c")}, set(), set(), "a")
        g = build_query_graph(q)
        assert (g.n_l, g.m_l) == (3, 3)


class TestESide:
    def test_e_arcs_only_from_reachable(self):
        q = CSLQuery(
            {("a", "b")}, {("a", "u"), ("b", "v"), ("z", "w")}, set(), "a"
        )
        g = build_query_graph(q)
        assert g.e_arcs == {("a", "u"), ("b", "v")}
        assert g.r_nodes == {"u", "v"}

    def test_e_target_without_r_occurrence_is_node(self):
        # DESIGN.md note: E targets become R-nodes even if R never
        # mentions them.
        q = CSLQuery({("a", "b")}, {("b", "orphan")}, {("p", "q")}, "a")
        g = build_query_graph(q)
        assert "orphan" in g.r_nodes


class TestRSide:
    def test_arcs_reversed(self):
        # R pair (Y, Y1) gives the graph arc (Y1, Y).
        q = CSLQuery({("a", "b")}, {("b", "c")}, {("d", "c")}, "a")
        g = build_query_graph(q)
        assert g.r_arcs == {("c", "d")}
        assert g.r_nodes == {"c", "d"}

    def test_r_closure(self):
        q = CSLQuery(
            {("a", "b")},
            {("b", "r0")},
            {("r1", "r0"), ("r2", "r1"), ("x", "unrelated")},
            "a",
        )
        g = build_query_graph(q)
        assert g.r_nodes == {"r0", "r1", "r2"}
        assert g.m_r == 2

    def test_l_and_r_value_spaces_independent(self):
        # The same value as L-node and R-node stays two distinct nodes.
        q = CSLQuery({("a", "b")}, {("a", "b")}, {("c", "b")}, "a")
        g = build_query_graph(q)
        assert "b" in g.l_nodes and "b" in g.r_nodes

    def test_adjacency_views(self):
        q = CSLQuery(
            {("a", "b"), ("a", "c")}, {("a", "u")}, {("v", "u")}, "a"
        )
        g = build_query_graph(q)
        assert g.l_successors()["a"] == {"b", "c"}

    def test_total_counts(self):
        q = CSLQuery(
            {("a", "b")}, {("a", "u"), ("b", "u")}, {("v", "u")}, "a"
        )
        g = build_query_graph(q)
        assert g.n == g.n_l + g.n_r == 2 + 2
        assert g.m == g.m_l + g.m_e + g.m_r == 1 + 2 + 1
