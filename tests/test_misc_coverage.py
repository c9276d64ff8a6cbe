"""Targeted tests for corners the focused suites do not reach."""

import pytest

from repro.datalog.atom import Atom, Literal
from repro.datalog.builtins import comparison
from repro.datalog.database import Database
from repro.datalog.evaluation import _evaluate_body
from repro.datalog.relation import CostCounter, Relation
from repro.datalog.rule import Rule
from repro.errors import EvaluationError


class TestTernaryRelations:
    def test_multicolumn_index_patterns(self):
        counter = CostCounter()
        relation = Relation(
            "t3", 3,
            [("a", 1, "x"), ("a", 2, "y"), ("b", 1, "x")],
            counter,
        )
        assert set(relation.lookup(("a", None, None))) == {
            ("a", 1, "x"), ("a", 2, "y")
        }
        assert set(relation.lookup((None, 1, "x"))) == {
            ("a", 1, "x"), ("b", 1, "x")
        }
        assert list(relation.lookup(("a", 2, "y"))) == [("a", 2, "y")]
        assert list(relation.lookup(("a", 2, "z"))) == []

    def test_zero_arity_relation(self):
        relation = Relation("flag", 0, [()])
        assert list(relation.lookup(())) == [()]
        assert len(relation) == 1


class TestBodyEvaluationErrors:
    def test_unsafe_leftover_builtin(self):
        items = [(comparison("<", "X", "Y"), None)]
        with pytest.raises(EvaluationError, match="unsafe"):
            list(_evaluate_body(items, {}))

    def test_unbound_negation_reported_unsafe(self):
        # A negated literal whose variable nothing binds never becomes
        # evaluable: the scheduler reports the rule as unsafe without
        # ever probing the (non-ground) pattern.
        counter = CostCounter()
        reader = Relation("q", 1, [(1,)], counter)
        items = [(Literal(Atom("q", ("X",)), negated=True), reader)]
        with pytest.raises(EvaluationError, match="unsafe"):
            list(_evaluate_body(items, {}))
        assert counter.retrievals == 0


class TestReprs:
    """__repr__ must never crash and should carry the key facts —
    these strings end up in test failures and debug logs."""

    def test_core_reprs(self, samegen_query):
        from repro.core.methods import magic_counting
        from repro.core.query_graph import build_query_graph
        from repro.core.reduced_sets import Mode, Strategy
        from repro.core.step1 import multiple_step1

        assert "CSLQuery" in repr(samegen_query)
        assert "n_L=" in repr(build_query_graph(samegen_query))
        reduced = multiple_step1(samegen_query.instance())
        assert "|RC|" in repr(reduced)
        result = magic_counting(samegen_query, Strategy.BASIC, Mode.INDEPENDENT)
        assert "retrievals=" in repr(result)

    def test_datalog_reprs(self):
        counter = CostCounter()
        assert "retrievals=0" in repr(counter)
        relation = Relation("e", 2, [(1, 2)], counter)
        assert "size=1" in repr(relation)
        db = Database()
        db.add_facts("e", [(1, 2)])
        assert "e/2:1" in repr(db)
        rule = Rule(Atom("p", ("X",)), (Atom("q", ("X",)),))
        assert "'p'" in repr(rule)
        assert str(rule) == "p(X) :- q(X)."


class TestAnswerResultAccessors:
    def test_retrievals_property(self, samegen_query):
        from repro.core.magic_method import magic_set_method

        result = magic_set_method(samegen_query)
        assert result.retrievals == result.cost.retrievals


class TestClassificationAccessors:
    def test_node_class_and_indices(self):
        from repro.core.classification import NodeClass, classify_nodes
        from repro.core.csl import CSLQuery

        query = CSLQuery(
            {("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")},
            set(), set(), "a",
        )
        c = classify_nodes(query)
        assert c.node_class("a") is NodeClass.SINGLE
        assert c.node_class("b") is NodeClass.SINGLE
        assert c.node_class("c") is NodeClass.RECURRING
        assert c.indices("c") is None
        assert c.indices("b") == frozenset({1})

    def test_graph_class_acyclic(self):
        from repro.core.classification import MagicGraphClass, classify_nodes
        from repro.core.csl import CSLQuery

        c = classify_nodes(
            CSLQuery({("a", "b"), ("b", "c"), ("a", "c")}, set(), set(), "a")
        )
        assert c.graph_class is MagicGraphClass.ACYCLIC
        assert not c.is_regular and not c.is_cyclic
