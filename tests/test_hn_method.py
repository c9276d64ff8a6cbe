"""Tests for the reconstructed Henschen-Naqvi iterative method."""

import pytest
from hypothesis import given, settings

from repro.core.counting_method import counting_method
from repro.core.csl import CSLQuery
from repro.core.hn_method import hn_method
from repro.core.solver import fact2_answer, solve
from repro.errors import UnsafeQueryError

from .conftest import acyclic_csl_queries


class TestCorrectness:
    def test_simple(self, samegen_query):
        assert hn_method(samegen_query).answers == fact2_answer(samegen_query)

    def test_unsafe_on_cycles(self, cyclic_query):
        with pytest.raises(UnsafeQueryError):
            hn_method(cyclic_query)

    def test_truncation_escape_hatch(self, cyclic_query):
        result = hn_method(cyclic_query, max_level=40)
        assert result.answers == fact2_answer(cyclic_query)

    def test_exposed_via_solve(self, samegen_query):
        result = solve(samegen_query, method="henschen_naqvi")
        assert result.method == "henschen_naqvi"
        assert result.answers == fact2_answer(samegen_query)

    @settings(max_examples=80, deadline=None)
    @given(acyclic_csl_queries())
    def test_correct_on_all_acyclic(self, query):
        assert hn_method(query).answers == fact2_answer(query)


class TestCostStructure:
    def _deep_chain(self, depth):
        """A chain magic graph whose per-level descents overlap (the R
        side is a small cycle): the counting method's shared downward
        cascade collapses the overlap, [HN] re-walks it per level."""
        left = {("a", "n0")} | {(f"n{i}", f"n{i+1}") for i in range(depth - 1)}
        exit_pairs = {(f"n{i}", "r0") for i in range(depth)}
        right = {("r1", "r0"), ("r0", "r1")}
        return CSLQuery(left, exit_pairs, right, "a")

    def test_comparable_on_shallow_graphs(self):
        """The [BR] observation: on shallow data HN and counting are in
        the same ballpark."""
        query = self._deep_chain(4)
        hn = hn_method(query).cost.retrievals
        cnt = counting_method(query).cost.retrievals
        assert hn <= 3 * cnt

    def test_quadratic_gap_on_deep_graphs(self):
        """Counting shares the downward cascade; HN re-walks it per
        level, so the ratio grows with depth."""
        ratios = []
        for depth in (8, 16, 32):
            query = self._deep_chain(depth)
            hn = hn_method(query).cost.retrievals
            cnt = counting_method(query).cost.retrievals
            ratios.append(hn / cnt)
        assert ratios[-1] > ratios[0]
        assert ratios[-1] > 3.0

    def test_details_levels(self, samegen_query):
        result = hn_method(samegen_query)
        assert result.details["levels"] >= 1
