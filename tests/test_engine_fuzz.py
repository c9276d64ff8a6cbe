"""Differential fuzzing of the Datalog engines and rewritings.

Hypothesis generates random *safe* programs (random bodies over EDB and
IDB predicates; head arguments drawn from the body's positive variables;
optional negation restricted to EDB predicates so stratifiability is
guaranteed) plus random databases, then checks:

* naive and semi-naive evaluation derive identical models;
* the compiled join-kernel engine, the tuple-at-a-time interpreter and
  the columnar batch engine derive identical models with bit-for-bit
  identical cost-counter snapshots, on both random
  Datalog programs and random CSL instances from
  :mod:`repro.workloads.random_graphs`;
* magic and supplementary-magic rewritten programs answer the goal
  exactly like the original program, for bound and free goals alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atom import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.evaluation import (
    answer_tuples,
    naive_evaluate,
    seminaive_evaluate,
)
from repro.datalog.magic_rewrite import magic_rewrite
from repro.datalog.program import Program
from repro.datalog.rule import Rule
from repro.datalog.supplementary import supplementary_magic_rewrite
from repro.datalog.term import Constant, Variable

_VARIABLES = [Variable(name) for name in ("X", "Y", "Z")]
_CONSTANTS = ["a", "b", "c"]
_EDB = ["e1", "e2"]
_IDB = ["p", "q"]


@st.composite
def _body_literal(draw, allow_idb=True):
    pool = _EDB + (_IDB if allow_idb else [])
    predicate = draw(st.sampled_from(pool))
    terms = [
        draw(st.sampled_from(_VARIABLES + [Constant(c) for c in _CONSTANTS]))
        for _ in range(2)
    ]
    return Literal(Atom(predicate, terms))


@st.composite
def _safe_rule(draw, head_pred):
    body = [draw(_body_literal()) for _ in range(draw(st.integers(1, 3)))]
    positive_vars = sorted(
        {t for lit in body for t in lit.terms if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    term_pool = positive_vars + [Constant(c) for c in _CONSTANTS]
    head = Atom(head_pred, [draw(st.sampled_from(term_pool)) for _ in range(2)])
    if positive_vars and draw(st.booleans()):
        negated_terms = [
            draw(st.sampled_from(positive_vars + [Constant(_CONSTANTS[0])]))
            for _ in range(2)
        ]
        body.append(
            Literal(Atom(draw(st.sampled_from(_EDB)), negated_terms), negated=True)
        )
    return Rule(head, body)


@st.composite
def random_programs(draw):
    rules = []
    for head_pred in _IDB:
        for _ in range(draw(st.integers(1, 2))):
            rules.append(draw(_safe_rule(head_pred)))
    return Program(rules)


@st.composite
def random_databases(draw):
    db_spec = {}
    for name in _EDB:
        db_spec[name] = draw(
            st.sets(
                st.tuples(st.sampled_from(_CONSTANTS), st.sampled_from(_CONSTANTS)),
                max_size=6,
            )
        )
    return db_spec


def build_db(spec):
    db = Database()
    for name, tuples in spec.items():
        db.create(name, 2).add_all(tuples)
    return db


class TestEngineAgreement:
    @settings(max_examples=120, deadline=None)
    @given(random_programs(), random_databases())
    def test_naive_equals_seminaive(self, program, spec):
        naive_db = build_db(spec)
        semi_db = build_db(spec)
        naive_evaluate(program, naive_db)
        seminaive_evaluate(program, semi_db)
        for predicate in program.idb_predicates():
            assert naive_db.facts(predicate) == semi_db.facts(predicate), predicate


class TestCompiledEngineParity:
    """Differential check of all three semi-naive engines.

    The compiled kernels and the columnar batch executor replay the
    interpreter's one join order and read state through
    the same charged primitives, so both the derived model *and* the
    CostCounter snapshot — totals and per-relation breakdown, delta
    relations included — must be identical across the interpreter, the
    compiled engine, and the columnar engine, not merely equivalent.
    """

    @settings(max_examples=120, deadline=None)
    @given(random_programs(), random_databases())
    def test_same_model_and_same_costs(self, program, spec):
        interpreted_db = build_db(spec)
        compiled_db = build_db(spec)
        columnar_db = build_db(spec)
        seminaive_evaluate(program, interpreted_db, engine="interpreted")
        seminaive_evaluate(program, compiled_db, engine="compiled")
        seminaive_evaluate(program, columnar_db, engine="columnar")
        for predicate in program.idb_predicates():
            assert interpreted_db.facts(predicate) == compiled_db.facts(
                predicate
            ), predicate
            assert interpreted_db.facts(predicate) == columnar_db.facts(
                predicate
            ), predicate
        assert (
            interpreted_db.counter.snapshot() == compiled_db.counter.snapshot()
        )
        assert (
            interpreted_db.counter.snapshot() == columnar_db.counter.snapshot()
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_random_csl_parity(self, seed):
        """Random CSL instances: answers and snapshots agree per engine."""
        from repro.core.solver import seminaive_answer
        from repro.workloads.random_graphs import random_csl

        query = random_csl(seed)
        interpreted = seminaive_answer(query, engine="interpreted")
        compiled = seminaive_answer(query, engine="compiled")
        columnar = seminaive_answer(query, engine="columnar")
        assert interpreted.answers == compiled.answers
        assert interpreted.cost.snapshot() == compiled.cost.snapshot()
        assert interpreted.answers == columnar.answers
        assert interpreted.cost.snapshot() == columnar.cost.snapshot()


class TestRewriteAgreement:
    @settings(max_examples=100, deadline=None)
    @given(
        random_programs(),
        random_databases(),
        st.sampled_from(["p", "q"]),
        st.sampled_from([None, "a", "b"]),
    )
    def test_magic_rewrites_preserve_answers(self, program, spec, goal_pred, binding):
        first = Constant(binding) if binding else Variable("G1")
        goal = Atom(goal_pred, (first, Variable("G2")))
        program.query = goal
        expected = answer_tuples(program, build_db(spec))

        for rewrite in (magic_rewrite, supplementary_magic_rewrite):
            rewritten = rewrite(program)
            assert answer_tuples(rewritten, build_db(spec)) == expected, (
                rewrite.__name__
            )

    @settings(max_examples=80, deadline=None)
    @given(
        random_programs(),
        random_databases(),
        st.sampled_from(["p", "q"]),
        st.sampled_from([None, "a", "c"]),
    )
    def test_qsq_agrees_with_bottom_up(self, program, spec, goal_pred, binding):
        from repro.datalog.qsq import qsq_answer_tuples

        first = Constant(binding) if binding else Variable("G1")
        goal = Atom(goal_pred, (first, Variable("G2")))
        program.query = goal
        expected = answer_tuples(program, build_db(spec))
        assert qsq_answer_tuples(program, build_db(spec)) == expected
