"""Differential fuzzing of the Datalog engines and rewritings.

Hypothesis generates random *safe* programs (random bodies over EDB and
IDB predicates; head arguments drawn from the body's positive variables;
optional negation restricted to EDB predicates so stratifiability is
guaranteed) plus random databases — and a wider family that adds
comparison and ``is`` builtins, arity 1 and 3 predicates, constant
heads, constant-key literals behind binding ones, repeated variables in
the delta literal and negation of a lower-stratum IDB predicate — then
checks:

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
from repro.datalog.builtins import arithmetic, comparison
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
        db.create(name, _WIDE_ARITY.get(name, 2)).add_all(tuples)
    return db


# The wider generator: every op kind the kernel executors run.  Values
# are the integers 0-2 so comparisons and ``is`` always apply, and every
# ``is`` result is guarded back into that range, so fixpoints stay finite.
_NUMBERS = [0, 1, 2]
_WIDE_ARITY = {"e": 2, "u": 1, "t": 3, "b": 2, "p": 2, "q": 1, "r": 3}
_WIDE_EDB = ["e", "u", "t"]
#: ``b`` is the lower stratum: its rules read only EDB and ``b``, and
#: only ``b`` and EDB are negated, so every program stratifies.
_LOWER = ["b"]
_UPPER = ["p", "q", "r"]
_WIDE_TERMS = _VARIABLES + [Constant(n) for n in _NUMBERS]


@st.composite
def _wide_literal(draw, pool):
    predicate = draw(st.sampled_from(pool))
    return Literal(
        Atom(
            predicate,
            [
                draw(st.sampled_from(_WIDE_TERMS))
                for _ in range(_WIDE_ARITY[predicate])
            ],
        )
    )


def _positive_variables(body):
    return sorted(
        {
            t
            for element in body
            if isinstance(element, Literal) and not element.negated
            for t in element.terms
            if isinstance(t, Variable)
        },
        key=lambda v: v.name,
    )


@st.composite
def _wide_rule(draw, head_pred, pool, upper):
    body = [
        draw(_wide_literal(pool)) for _ in range(draw(st.integers(1, 2)))
    ]
    if upper and draw(st.booleans()):
        # A recursive literal with a repeated variable: its delta variant
        # pins it, so the delta scan carries an intra-literal check.
        predicate = draw(st.sampled_from(_UPPER))
        terms = [_VARIABLES[0]] + [
            draw(st.sampled_from(_VARIABLES[:2]))
            for _ in range(_WIDE_ARITY[predicate] - 1)
        ]
        body.insert(0, Literal(Atom(predicate, terms)))
    if draw(st.booleans()):
        # A constant-key literal after the binding ones: it shares no
        # bound variable, so an n-row frontier reads its one key n times.
        predicate = draw(st.sampled_from(pool))
        body.append(
            Literal(
                Atom(
                    predicate,
                    [Constant(draw(st.sampled_from(_NUMBERS)))]
                    + [Variable("V")] * (_WIDE_ARITY[predicate] - 1),
                )
            )
        )
    limited = _positive_variables(body)
    operands = limited + [Constant(n) for n in _NUMBERS]
    if upper and limited and draw(st.booleans()):
        body.append(
            comparison(
                draw(st.sampled_from(["<", "<=", "==", "!="])),
                draw(st.sampled_from(operands)),
                draw(st.sampled_from(operands)),
            )
        )
    if upper and limited and draw(st.booleans()):
        target = Variable("W")
        op, amount = draw(
            st.sampled_from([("+", 1), ("-", 1), ("*", 0), ("+", 0)])
        )
        body += [
            arithmetic(target, draw(st.sampled_from(limited)), op, amount),
            comparison(">=", target, 0),
            comparison("<=", target, 2),
        ]
        limited = limited + [target]
    if upper and limited and draw(st.booleans()):
        predicate = draw(st.sampled_from(_LOWER + _WIDE_EDB))
        body.append(
            Literal(
                Atom(
                    predicate,
                    [
                        draw(st.sampled_from(limited + [Constant(0)]))
                        for _ in range(_WIDE_ARITY[predicate])
                    ],
                ),
                negated=True,
            )
        )
    # A head with no variables emits one constant row per binding.
    head_pool = (
        limited if limited and draw(st.integers(0, 3)) else []
    ) + [Constant(n) for n in _NUMBERS]
    head = Atom(
        head_pred,
        [
            draw(st.sampled_from(head_pool))
            for _ in range(_WIDE_ARITY[head_pred])
        ],
    )
    return Rule(head, body)


@st.composite
def wide_programs(draw):
    rules = []
    for head_pred in _LOWER:
        for _ in range(draw(st.integers(1, 2))):
            rules.append(draw(_wide_rule(head_pred, _WIDE_EDB + _LOWER, False)))
    pool = _WIDE_EDB + _LOWER + _UPPER
    for head_pred in _UPPER:
        for _ in range(draw(st.integers(1, 2))):
            rules.append(draw(_wide_rule(head_pred, pool, True)))
    return Program(rules)


@st.composite
def wide_databases(draw):
    return {
        name: draw(
            st.sets(
                st.tuples(
                    *[st.sampled_from(_NUMBERS)] * _WIDE_ARITY[name]
                ),
                max_size=6,
            )
        )
        for name in _WIDE_EDB
    }


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

    @staticmethod
    def assert_engines_agree(program, spec):
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

    @settings(max_examples=120, deadline=None)
    @given(random_programs(), random_databases())
    def test_same_model_and_same_costs(self, program, spec):
        self.assert_engines_agree(program, spec)

    @settings(max_examples=150, deadline=None)
    @given(wide_programs(), wide_databases())
    def test_every_op_kind_same_model_and_costs(self, program, spec):
        """Builtins, arity 1 and 3, constant heads, constant-key scans
        under a wide frontier, repeated variables in the delta literal,
        negated lower-stratum IDB."""
        self.assert_engines_agree(program, spec)

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
