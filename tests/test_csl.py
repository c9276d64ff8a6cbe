"""Tests for CSLQuery construction, bridges, and materialization."""

import pytest

from repro.core.csl import CSLQuery, charged_image, left_image
from repro.core.graph_index import GraphIndex
from repro.core.magic_method import compute_magic_set
from repro.core.methods import METHODS
from repro.core.solver import fact2_answer, solve
from repro.datalog.database import Database
from repro.datalog.evaluation import answer_tuples
from repro.datalog.parser import parse_program
from repro.datalog.relation import CostCounter
from repro.errors import NotCSLError
from repro.service import SolverService
from repro.service.plan import compile_program_plan

from .test_graph_index import _snapshot
from .test_service import sg_database, sg_program


class TestConstruction:
    def test_frozen_and_hashable(self):
        q = CSLQuery({("a", "b")}, set(), set(), "a")
        assert hash(q) == hash(CSLQuery({("a", "b")}, set(), set(), "a"))

    def test_same_generation_defaults(self):
        q = CSLQuery.same_generation({("c", "p")}, source="c")
        assert q.left == q.right == frozenset({("c", "p")})
        assert ("c", "c") in q.exit and ("p", "p") in q.exit

    def test_same_generation_explicit_persons(self):
        q = CSLQuery.same_generation({("c", "p")}, source="c", persons=["z"])
        assert ("z", "z") in q.exit
        assert ("c", "c") in q.exit  # the source is always a person

    def test_magic_set(self):
        q = CSLQuery({("a", "b"), ("b", "c"), ("z", "w")}, set(), set(), "a")
        assert q.magic_set() == {"a", "b", "c"}

    def test_left_successors(self):
        q = CSLQuery({("a", "b"), ("a", "c")}, set(), set(), "a")
        assert q.left_successors() == {"a": {"b", "c"}}


class TestProgramBridges:
    def test_to_program_answers_match_fact2(self, samegen_query):
        from repro.core.solver import fact2_answer

        program = samegen_query.to_program()
        db = samegen_query.database()
        tuples = answer_tuples(program, db)
        assert {v for (v,) in tuples} == set(fact2_answer(samegen_query))

    def test_database_relations(self, samegen_query):
        db = samegen_query.database()
        assert db.facts("l") == set(samegen_query.left)
        assert db.facts("e") == set(samegen_query.exit)
        assert db.facts("r") == set(samegen_query.right)

    def test_instance_shares_counter(self, samegen_query):
        counter = CostCounter()
        instance = samegen_query.instance(counter)
        compute_magic_set(instance)
        assert instance.counter is counter
        assert counter.retrievals > 0


def _count_index_builds(monkeypatch):
    builds = []
    build = GraphIndex.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(GraphIndex, "__init__", counted)
    return builds


class TestOneIndex:
    """``CSLQuery.index`` is the one copy of the pair sets every method
    reads: an instance is a query and a counter of its own."""

    def test_instances_never_charge_each_other(self, acyclic_query):
        first, second = CostCounter(), CostCounter()
        one = acyclic_query.instance(first)
        other = acyclic_query.with_source("b").instance(second)
        assert one.index is other.index
        bits = other.index.bits
        charged = []
        for _ in range(3):
            left_image(one, ["a"])
            charged.append((first.retrievals, second.retrievals))
            charged_image(other, "r", bits, bits.encode(["u", "v"]))
            charged.append((first.retrievals, second.retrievals))
        assert charged == [(3, 0), (3, 4), (6, 4), (6, 8), (9, 8), (9, 12)]
        assert set(first.per_relation) == {"l"}
        assert set(second.per_relation) == {"r"}

    def test_fifty_solves_build_one_graph_index(self, monkeypatch, cyclic_query):
        builds = _count_index_builds(monkeypatch)
        sources = sorted({v for pair in cyclic_query.left for v in pair})
        names = [n for n, row in METHODS.items() if not row.needs_acyclic]
        for turn in range(50):
            sibling = cyclic_query.with_source(sources[turn % len(sources)])
            result = solve(sibling, names[turn % len(names)])
            assert result.answers == fact2_answer(sibling)
        assert builds == [cyclic_query.index]

    def test_a_patch_succeeds_the_index_and_never_reaches_old_siblings(self):
        service = SolverService(sg_database())
        program = sg_program("a")
        plan = service.compile(program)
        assert service.solve(program).answers == {"a1", "y2"}
        before = plan.query_for("d")
        index = before.index
        assert plan.query_for("a").index is index

        service.mutate(inserts={"flat": [("b", "b1")], "down": [("z", "b1")]})
        after = plan.query_for("d")
        assert after._shared.index is not None  # succeeded at the mutation
        assert after.index is not index
        assert ("b", "b1") in after.exit and ("b", "b1") not in before.exit
        assert solve(after, "magic_set").answers == {"y2", "z"}
        # The old sibling answers for its own pair sets, from its own
        # index: it never reads what the mutation changed.
        assert before.index is index
        assert solve(before, "magic_set").answers == {"y2"}
        assert _snapshot(index) == _snapshot(
            GraphIndex(before.left, before.exit, before.right)
        )

        service.mutate(deletes={"flat": [("b", "b1")], "down": [("z", "b1")]})
        fresh = compile_program_plan(program, service.database).query_for("d")
        patched = plan.query_for("d")
        assert patched._shared.index is not None
        assert patched == fresh
        assert _snapshot(patched.index) == _snapshot(fresh.index)
        assert service.solve(program).answers == {"a1", "y2"}


class TestFromProgram:
    def test_round_trip_canonical(self, samegen_query):
        program = samegen_query.to_program()
        database = samegen_query.database()
        recovered = CSLQuery.from_program(program, database=database)
        assert recovered == samegen_query

    def test_requires_database(self):
        program = parse_program(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y, Y1).
            ?- sg(a, Y).
            """
        )
        with pytest.raises(NotCSLError):
            CSLQuery.from_program(program)

    def test_materializes_derived_left(self):
        program = parse_program(
            """
            up(X, Y) :- father(X, Y).
            up(X, Y) :- mother(X, Y).
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), up(Y, Y1).
            ?- sg(a, Y).
            """
        )
        db = Database()
        db.add_facts("father", [("a", "f"), ("b", "f")])
        db.add_facts("mother", [("a", "m"), ("c", "m")])
        db.add_facts("flat", [("f", "f"), ("m", "m")])
        query = CSLQuery.from_program(program, database=db)
        assert query.left == frozenset(
            {("a", "f"), ("b", "f"), ("a", "m"), ("c", "m")}
        )
        from repro.core.solver import fact2_answer

        assert fact2_answer(query) == {"a", "b", "c"}

    def test_materializes_conjunctive_left(self):
        program = parse_program(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- f(X, Z), g(Z, X1), sg(X1, Y1), down(Y, Y1).
            ?- sg(s, Y).
            """
        )
        db = Database()
        db.add_facts("f", [("s", "m")])
        db.add_facts("g", [("m", "t")])
        db.add_facts("flat", [("t", "out")])
        db.add_facts("down", [("home", "out")])
        query = CSLQuery.from_program(program, database=db)
        assert query.left == frozenset({("s", "t")})
        from repro.core.solver import fact2_answer

        assert fact2_answer(query) == {"home"}

    def test_multi_column_bound_part_becomes_tuples(self):
        program = parse_program(
            """
            p(A, B, Y) :- flat(A, B, Y).
            p(A, B, Y) :- step(A, B, A1, B1), p(A1, B1, Y1), down(Y, Y1).
            ?- p(u, v, Y).
            """
        )
        db = Database()
        db.add_facts("step", [("u", "v", "u2", "v2")])
        db.add_facts("flat", [("u2", "v2", "top")])
        db.add_facts("down", [("bot", "top")])
        query = CSLQuery.from_program(program, database=db)
        assert query.source == ("u", "v")
        assert (("u", "v"), ("u2", "v2")) in query.left
        from repro.core.solver import fact2_answer

        assert fact2_answer(query) == {"bot"}

    def test_fully_bound_goal_degenerates_to_product(self):
        """With both arguments bound the adornment is 'bb': the whole
        recursive rule becomes the 'left' part (a product construction)
        and the answer is the boolean {()} / {}."""
        program = parse_program(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y, Y1).
            ?- sg(a, y2).
            """
        )
        db = Database()
        db.add_facts("up", [("a", "b"), ("b", "c")])
        db.add_facts("flat", [("c", "c1")])
        db.add_facts("down", [("y", "c1"), ("y2", "y")])
        query = CSLQuery.from_program(program, database=db)
        assert query.source == ("a", "y2")
        from repro.core.solver import fact2_answer, solve

        assert fact2_answer(query) == {()}   # true
        assert solve(query).answers == {()}

        false_program = parse_program(
            """
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y, Y1).
            ?- sg(a, y).
            """
        )
        false_query = CSLQuery.from_program(false_program, database=db)
        # sg(a, y) needs equal depths: a is 2 up-steps from c, y is only
        # 1 down-step from c1 — false.
        assert fact2_answer(false_query) == frozenset()

    def test_agrees_with_datalog_oracle_on_derived(self):
        source = """
        up(X, Y) :- father(X, Y).
        up(X, Y) :- mother(X, Y).
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), up(Y, Y1).
        ?- sg(g1, Y).
        """
        program = parse_program(source)
        db = Database()
        db.add_facts(
            "father",
            [("c1", "p1"), ("c2", "p1"), ("g1", "c1"), ("g2", "c2")],
        )
        db.add_facts("mother", [("g3", "c2")])
        db.add_facts("flat", [(p, p) for p in ("p1", "c1", "c2", "g1", "g2", "g3")])
        query = CSLQuery.from_program(program, database=db)
        from repro.core.solver import fact2_answer

        datalog = {v for (v,) in answer_tuples(program, db.copy())}
        assert set(fact2_answer(query)) == datalog


# (program text, {relation: rows}, expected L, expected E, expected R):
# the derived same-generation program of the benchmark's churn_derived
# workload, two exit rules, and two bound columns (tuple-valued pairs).
PART_RULE_CASES = {
    "derived_samegen": (
        """
        sg(X, Y) :- self(X, Y).
        sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
        parent(X, Y) :- mother(X, Y).
        parent(X, Y) :- father(X, Y).
        ?- sg(c, Y).
        """,
        {
            "mother": [("c", "m"), ("d", "m")],
            "father": [("c", "f")],
            "self": [("m", "m"), ("f", "f")],
        },
        {("c", "m"), ("d", "m"), ("c", "f")},
        {("m", "m"), ("f", "f")},
        {("c", "m"), ("d", "m"), ("c", "f")},
    ),
    "two_exit_rules": (
        """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- twin(Y, X).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y, Y1).
        ?- sg(a, Y).
        """,
        {
            "up": [("a", "b")],
            "flat": [("b", "b1")],
            "twin": [("t", "b"), ("b1", "b")],
            "down": [("y", "b1"), ("z", "t")],
        },
        {("a", "b")},
        {("b", "b1"), ("b", "t")},
        {("y", "b1"), ("z", "t")},
    ),
    "two_bound_columns": (
        """
        p(A, B, Y) :- flat(A, B, Y).
        p(A, B, Y) :- step(A, B, A1, B1), p(A1, B1, Y1), down(Y, Y1).
        ?- p(u, v, Y).
        """,
        {
            "step": [("u", "v", "u2", "v2"), ("u2", "v2", "u3", "v3")],
            "flat": [("u2", "v2", "top"), ("u3", "v3", "top")],
            "down": [("bot", "top")],
        },
        {(("u", "v"), ("u2", "v2")), (("u2", "v2"), ("u3", "v3"))},
        {(("u2", "v2"), "top"), (("u3", "v3"), "top")},
        {("bot", "top")},
    ),
}


class TestPartRulesThroughBothEngines:
    """``datalog.linear.part_rules`` is the one definition of what
    ``L``/``E``/``R`` are; the kernel materializer and the maintained
    program are the two engines that compute it."""

    @pytest.mark.parametrize("case", sorted(PART_RULE_CASES))
    def test_plan_query_and_maintainer_agree_with_the_expectation(self, case):
        text, facts, left, exit, right = PART_RULE_CASES[case]
        program = parse_program(text)
        db = Database()
        for name, rows in facts.items():
            db.add_facts(name, rows)
        query = CSLQuery.from_program(program, database=db)
        plan = compile_program_plan(program, db)
        compiled = plan.query_for(plan.default_source)
        assert plan.maintainer is not None
        for part, expected in (("left", left), ("exit", exit), ("right", right)):
            assert getattr(query, part) == expected, part
            assert getattr(compiled, part) == expected, part
            assert plan.maintainer.pairs(part) == expected, part

    def test_part_rules_lists_one_rule_per_conjunction(self):
        from repro.datalog.linear import analyze_linear, part_rules

        program = parse_program(PART_RULE_CASES["two_exit_rules"][0])
        support, parts = part_rules(program, analyze_linear(program))
        assert support == []
        assert [(part, split) for part, split, _rule in parts] == [
            ("left", 1), ("right", 1), ("exit", 1), ("exit", 1)
        ]
        assert [str(rule.head) for _part, _split, rule in parts] == [
            "__part_l(X, X1)", "__part_r(Y, Y1)",
            "__part_e(X, Y)", "__part_e(X, Y)",
        ]

    def test_unbound_projection_is_still_not_csl(self):
        program = parse_program(
            """
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
            ?- reach(a, Y).
            """
        )
        db = Database()
        db.add_facts("edge", [("a", "b")])
        with pytest.raises(NotCSLError) as raised:
            CSLQuery.from_program(program, database=db)
        assert str(raised.value) == (
            "the recursive rule reach(X, Y) :- edge(X, Z), reach(Z, Y) has "
            "no right-hand (R) conjunct"
        )

    @pytest.mark.parametrize(
        "rules, message",
        [
            (
                "p(X, Y) :- e(X, Z).\n"
                "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).",
                "the exit rule p(X, Y) :- e(X, Z) leaves Y unbound",
            ),
            (
                "p(X, Y) :- e(X, Y).\n"
                "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Z).",
                "the recursive rule p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Z) "
                "leaves Y1 unbound",
            ),
        ],
    )
    def test_an_unbound_part_variable_names_its_rule(self, rules, message):
        program = parse_program(rules + "\n?- p(a, Y).")
        db = Database()
        for name, pair in (("e", ("a", "b")), ("l", ("a", "c")), ("r", ("y", "b"))):
            db.add_facts(name, [pair])
        with pytest.raises(NotCSLError) as raised:
            CSLQuery.from_program(program, database=db)
        assert str(raised.value) == message
