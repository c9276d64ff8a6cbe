"""Tests for the reconstructed Henschen-Naqvi iterative method."""

import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings

import repro
from repro.core.counting_method import counting_method
from repro.core.csl import CSLQuery
from repro.core.hn_method import hn_method
from repro.core.solver import fact2_answer, solve
from repro.errors import UnsafeQueryError
from repro.workloads.generators import cyclic_workload

from .conftest import acyclic_csl_queries


class TestCorrectness:
    def test_simple(self, samegen_query):
        assert hn_method(samegen_query).answers == fact2_answer(samegen_query)

    def test_unsafe_on_cycles(self, cyclic_query):
        with pytest.raises(UnsafeQueryError):
            hn_method(cyclic_query)

    def test_refuses_where_counting_does(self):
        # Both consume one level walk, so both see the repeated frontier
        # at the same level; [HN] used to carry only the coarse
        # ``level > |seen|`` backstop and kept walking long after it.
        query = cyclic_workload(scale=8, seed=0)
        levels = []
        for method in (counting_method, hn_method):
            with pytest.raises(UnsafeQueryError, match="repeated at level") as info:
                method(query)
            levels.append(re.search(r"level (\d+)", str(info.value)).group(1))
        assert "[HN]" in str(info.value)
        assert levels[0] == levels[1]

    def test_refusal_cost_on_table1_cyclic_s8(self):
        # The generated graph follows the hash seed, so the exact charge
        # is pinned in a child at PYTHONHASHSEED=0: level 43 for both,
        # 4,055 retrievals for counting, 14,513 for [HN] (107,210 at
        # level 202 before the shared walk).
        script = (
            "from repro.core.counting_method import counting_method\n"
            "from repro.core.hn_method import hn_method\n"
            "from repro.datalog.relation import CostCounter\n"
            "from repro.errors import UnsafeQueryError\n"
            "from repro.workloads.generators import cyclic_workload\n"
            "query = cyclic_workload(scale=8, seed=0)\n"
            "for method in (counting_method, hn_method):\n"
            "    counter = CostCounter()\n"
            "    try:\n"
            "        method(query, counter=counter)\n"
            "    except UnsafeQueryError as refusal:\n"
            "        print(counter.retrievals, 'level 43;' in str(refusal))\n"
        )
        source_root = pathlib.Path(repro.__file__).parents[1]
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(source_root)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert child.stdout.split() == ["4055", "True", "14513", "True"]

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
