"""Bottom-up evaluation: naive and semi-naive fixpoints.

The evaluator computes the minimal model of a (stratified) Datalog
program over a :class:`Database`, writing derived facts back into the
database.  Two strategies are provided:

* :func:`naive_evaluate` — recompute every rule against the full
  database until nothing changes.  Slow, but its utter simplicity makes
  it the trusted reference oracle for all the optimized methods.
* :func:`seminaive_evaluate` — the differential fixpoint of [Ban, BaR]:
  within each recursive stratum, only rule instantiations that use at
  least one *new* fact (the delta) are re-derived.

:func:`seminaive_evaluate` runs on one of three engines.  The default,
``engine="compiled"``, lowers each rule once into a slot-based join
kernel (:mod:`repro.datalog.engine`) and runs its ops a binding frontier
at a time over the set-backed relations; ``engine="columnar"`` runs the
same kernels as batch joins over interned column vectors
(:mod:`repro.datalog.columnar_engine`); ``engine="interpreted"`` is the
original tuple-at-a-time interpreter in this module, retained as the
differential oracle next to :func:`naive_evaluate`.  All three produce
identical answers *and* identical
:class:`~repro.datalog.relation.CostCounter` snapshots: there is one
rule-body scheduler (:func:`_ready_element_index`, replayed statically
by the kernels), one delta differentiation (:func:`_differentiate`) and
one set-backed delta-round loop (:func:`_run_delta_rounds`, shared by
the interpreter, the compiled engine and every propagation of
:mod:`repro.datalog.maintenance`), and every read
is charged as one :meth:`Relation.lookup`/:meth:`Relation.contains` per
probe — the kernels' bulk reads charge exactly the probes they stand
for.

Both accept ``max_iterations``: recursive programs over cyclic data can
genuinely diverge when values grow without bound (this is exactly how
the counting method loses safety — Section 2 of the paper), and the
budget turns divergence into an :class:`UnsafeQueryError` rather than a
hang.

Body evaluation handles positive literals, stratified negation, and the
arithmetic/comparison builtins.  Body elements are dynamically reordered
so that tests run as soon as their variables are bound (never before).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import EvaluationError, UnsafeQueryError
from .atom import Atom, BuiltinAtom, Literal
from .builtins import evaluate_builtin, required_bound_variables
from .database import Database
from .program import Program
from .relation import Relation
from .rule import Rule
from .stratify import stratify
from .unify import ground_atom_tuple, lookup_pattern, match_tuple

DEFAULT_MAX_ITERATIONS = 100_000

# Engine selection for seminaive_evaluate.  "compiled" lowers rules to
# join kernels once per program (repro.datalog.engine); "columnar" runs
# the same kernels as batch joins over interned column vectors
# (repro.datalog.columnar_engine); "interpreted" is the
# recursive-generator evaluator below, kept as the differential oracle.
DEFAULT_ENGINE = "compiled"
SEMINAIVE_ENGINES = ("compiled", "interpreted", "columnar")


def _ready_element_index(elements: List, bound: Set) -> int:
    """Pick the next body element to evaluate.

    Preference order: any builtin or negated literal whose variables are
    already bound (cheap filters first), otherwise the first positive
    literal.  Returns -1 when nothing is evaluable (unsafe rule).
    """
    first_positive = -1
    for i, element in enumerate(elements):
        if isinstance(element, BuiltinAtom):
            if required_bound_variables(element) <= bound:
                return i
        elif element.negated:
            if set(element.variables()) <= bound:
                return i
        elif first_positive < 0:
            first_positive = i
    return first_positive


def _evaluate_body(items: List[Tuple], theta: Dict) -> Iterator[Dict]:
    """Yield all substitutions satisfying the remaining body elements.

    ``items`` pairs each body element with the reader that occurrence
    must use (``None`` for builtins): anything with charged ``lookup``
    and ``contains`` — a :class:`Relation`, or one of the maintenance
    layer's views.  Binding readers per *occurrence*, not per predicate,
    is what lets semi-naive evaluation point one recursive literal at
    the delta while its siblings read the full relation, and lets the
    telescoping delta rule read *old* state left of the pinned element
    and *new* state right of it.
    """
    if not items:
        yield theta
        return
    elements = [element for element, _reader in items]
    index = _ready_element_index(elements, set(theta))
    if index < 0:
        raise EvaluationError(
            "no evaluable body element; rule is unsafe: "
            + ", ".join(str(e) for e in elements)
        )
    element, reader = items[index]
    rest = items[:index] + items[index + 1 :]

    if isinstance(element, BuiltinAtom):
        for extended in evaluate_builtin(element, theta):
            yield from _evaluate_body(rest, extended)
        return

    pattern = lookup_pattern(element.terms, theta)
    if element.negated:
        if any(value is None for value in pattern):
            raise EvaluationError(f"negated literal {element} not ground")
        if not reader.contains(pattern):
            yield from _evaluate_body(rest, theta)
        return

    for tup in reader.lookup(pattern):
        extended = match_tuple(element.terms, tup, theta)
        if extended is not None:
            yield from _evaluate_body(rest, extended)


def _database_items(body: Sequence, database: Database) -> List[Tuple]:
    """Pair every body element with the database relation it reads."""
    return [
        (
            element,
            None
            if isinstance(element, BuiltinAtom)
            else database.relation_or_empty(element.predicate, len(element.terms)),
        )
        for element in body
    ]


def evaluate_rule(
    rule: Rule, database: Database, delta: Optional[Relation] = None
) -> List[Tuple]:
    """The head tuples one rule derives from ``database``.

    With ``delta``, the rule is a differentiated variant from
    :func:`_differentiate`: its first body element reads the delta and
    every other occurrence — of the same predicate included — the full
    relation.  The result is materialized because the body may read the
    very relation the caller is about to write the head tuples to.
    """
    items = _database_items(rule.body, database)
    if delta is not None:
        items[0] = (rule.body[0], delta)
    return [
        ground_atom_tuple(rule.head, theta)
        for theta in _evaluate_body(items, {})
    ]


def _arity_map(program: Program) -> Dict[str, int]:
    arities: Dict[str, int] = {}
    for rule in program.rules:
        arities.setdefault(rule.head.predicate, rule.head.arity)
        for element in rule.body:
            if isinstance(element, Literal):
                arities.setdefault(element.predicate, len(element.terms))
    if program.query is not None:
        arities.setdefault(program.query.predicate, program.query.arity)
    return arities


def naive_evaluate(
    program: Program,
    database: Database,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Database:
    """Naive bottom-up fixpoint (the reference oracle).

    Strata are evaluated in order; within each stratum every rule is
    re-run against the whole database until no new fact appears.
    Derived facts are added to ``database`` in place; the database is
    also returned for chaining.
    """
    program.check_safety()
    for stratum in stratify(program):
        stratum_rules = [r for r in program.rules if r.head.predicate in stratum]
        for rule in stratum_rules:
            database.relation_or_empty(rule.head.predicate, rule.head.arity)
        iterations = 0
        changed = True
        while changed:
            iterations += 1
            if iterations > max_iterations:
                raise UnsafeQueryError(
                    f"naive fixpoint exceeded {max_iterations} iterations "
                    f"on stratum {sorted(stratum)}"
                )
            changed = False
            for rule in stratum_rules:
                head_relation = database.relation_or_empty(
                    rule.head.predicate, rule.head.arity
                )
                for tup in evaluate_rule(rule, database):
                    if head_relation.add(tup):
                        changed = True
    return database


class SeminaiveRule(NamedTuple):
    """One rule as the semi-naive driver runs it.

    ``base`` evaluates the whole body against the database (round 0);
    ``delta_variants`` holds one ``(delta predicate, variant)`` per
    positive occurrence of a stratum predicate, in body order.  What a
    ``base``/variant *is* belongs to the engine: a :class:`Rule` for the
    interpreter, a join kernel for the compiled engines.
    """

    head: Atom
    base: object
    delta_variants: Tuple[Tuple[str, object], ...]


def _differentiate(rule: Rule, predicates) -> List[Tuple[str, List]]:
    """The delta variants of one rule body.

    One ``(predicate, body)`` per positive occurrence of a predicate in
    ``predicates``, in body order, with that occurrence swapped to the
    front: the scheduler then runs on the swapped list, and position 0
    is the one occurrence that reads the delta.  Every engine
    differentiates through this function, which is what keeps their
    join orders — and so their retrieval counts — the same.
    """
    variants = []
    for position, element in enumerate(rule.body):
        if (
            isinstance(element, Literal)
            and not element.negated
            and element.predicate in predicates
        ):
            body = list(rule.body)
            body[0], body[position] = body[position], body[0]
            variants.append((element.predicate, body))
    return variants


def _seminaive_strata(
    program: Program, lower: Callable
) -> List[Tuple[SeminaiveRule, ...]]:
    """The program as the semi-naive driver runs it, stratum by stratum.

    ``lower(rule, body, pinned)`` turns one body — the rule's own
    (``pinned`` is ``None``) or a delta variant from
    :func:`_differentiate` (``pinned`` names the delta predicate) — into
    whatever the engine's ``run`` callable evaluates.  Stratification
    and differentiation are thereby written once for every engine.
    """
    return [
        tuple(
            SeminaiveRule(
                rule.head,
                lower(rule, rule.body, None),
                tuple(
                    (predicate, lower(rule, body, predicate))
                    for predicate, body in _differentiate(rule, stratum)
                ),
            )
            for rule in program.rules
            if rule.head.predicate in stratum
        )
        for stratum in stratify(program)
    ]


def _run_delta_rounds(
    database: Database,
    variants: Sequence[Tuple[Atom, str, object]],
    deltas: Dict[str, Set[Tuple]],
    run: Callable,
    max_iterations: int,
    derived: Optional[Dict[str, Set[Tuple]]] = None,
) -> int:
    """The set-backed semi-naive delta loop, written once; returns the
    number of rounds it ran.

    ``deltas`` holds the facts new in the previous round (already
    stored); each round wraps them in ``Δ<pred>`` relations charged to
    the database counter and runs every ``(head, delta predicate,
    variant)`` whose predicate has a delta through ``run(variant,
    database, delta)``.  Only the pinned occurrence reads the delta;
    other occurrences see the full relation, and set semantics absorbs
    the duplicated derivations.  A round's candidates per head are
    collected as they come and flushed in bulk: :meth:`Relation.add_new`
    is the one (uncharged) dedupe, against the stored facts and within
    the batch, and what it returns is the confirmed delta.  ``derived``,
    when given, accumulates everything confirmed — it is filled round by
    round, so it is exact even when a later round raises.
    """
    iterations = 0
    while any(deltas.values()):
        iterations += 1
        if iterations > max_iterations:
            heads = sorted({head.predicate for head, _p, _v in variants})
            raise UnsafeQueryError(
                f"seminaive fixpoint exceeded {max_iterations} iterations "
                f"deriving {heads}"
            )
        delta_relations = {
            predicate: Relation(
                f"Δ{predicate}",
                len(next(iter(tuples))),
                tuples,
                counter=database.counter,
            )
            for predicate, tuples in deltas.items()
            if tuples
        }
        buckets: Dict[str, List[Tuple]] = {}
        for head, delta_predicate, variant in variants:
            delta = delta_relations.get(delta_predicate)
            if delta is None:
                continue
            database.relation_or_empty(head.predicate, head.arity)
            buckets.setdefault(head.predicate, []).extend(
                run(variant, database, delta)
            )
        deltas = {}
        for predicate, tuples in buckets.items():
            # Bulk flush: one dedupe pass against the stored tuples,
            # every lazy index extended in one sweep.
            confirmed = set(database.relation(predicate).add_new(tuples))
            deltas[predicate] = confirmed
            if derived is not None and confirmed:
                derived.setdefault(predicate, set()).update(confirmed)
    return iterations


def _run_strata(
    database: Database,
    strata: Sequence[Sequence[SeminaiveRule]],
    run: Callable,
    max_iterations: int,
) -> Database:
    """Stratum by stratum: one round-0 pass, then the delta rounds.

    ``run(base_or_variant, database, delta)`` returns the head tuples of
    one rule evaluation as a list — :func:`evaluate_rule` for the
    interpreter, :meth:`JoinKernel.run` for the compiled engine.  That
    callable is the only thing the two engines do not share.
    """
    for rules in strata:
        for rule in rules:
            database.relation_or_empty(rule.head.predicate, rule.head.arity)
        # Round 0: run every rule once against the current database (the
        # recursive predicates may already hold facts seeded by callers).
        deltas: Dict[str, Set[Tuple]] = {}
        for rule in rules:
            head_relation = database.relation(rule.head.predicate)
            deltas.setdefault(rule.head.predicate, set()).update(
                head_relation.add_new(run(rule.base, database, None))
            )
        variants = [
            (rule.head, predicate, variant)
            for rule in rules
            for predicate, variant in rule.delta_variants
        ]
        _run_delta_rounds(database, variants, deltas, run, max_iterations)
    return database


def seminaive_evaluate(
    program: Program,
    database: Database,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    engine: Optional[str] = None,
) -> Database:
    """Semi-naive (differential) bottom-up fixpoint.

    Within each stratum: rules whose bodies mention no predicate of the
    stratum run once; recursive rules are differentiated — for each
    occurrence of a stratum predicate, a delta version of the rule joins
    that occurrence against the facts new in the previous round.

    ``engine`` selects ``"compiled"`` (join kernels from
    :mod:`repro.datalog.engine`), ``"columnar"`` (the same kernels run
    as batch joins over the columnar interned backend — a set-backed
    database is converted in place), or ``"interpreted"`` (this
    module's tuple-at-a-time evaluator, the differential oracle).  When
    ``engine`` is omitted, a columnar-backed database routes to the
    columnar engine and anything else to the compiled default.  There
    is one join order — the interpreter's schedule, replayed statically
    by the kernels — so all three charge identical retrievals.
    """
    if engine is None:
        engine = "columnar" if database.backend == "columnar" else DEFAULT_ENGINE
    if engine == "compiled":
        from .engine import compiled_seminaive_evaluate

        return compiled_seminaive_evaluate(program, database, max_iterations)
    if engine == "columnar":
        from .columnar_engine import columnar_seminaive_evaluate

        return columnar_seminaive_evaluate(program, database, max_iterations)
    if engine != "interpreted":
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {SEMINAIVE_ENGINES}"
        )
    program.check_safety()
    strata = _seminaive_strata(
        program, lambda rule, body, _pinned: Rule(rule.head, body)
    )
    return _run_strata(database, strata, evaluate_rule, max_iterations)


def answer_tuples(
    program: Program,
    database: Database,
    engine: str = "seminaive",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Set[Tuple]:
    """Evaluate ``program`` and return the tuples matching its query goal.

    ``engine`` is ``"naive"``, ``"seminaive"`` (the default compiled
    semi-naive engine), or explicitly ``"compiled"`` / ``"interpreted"``
    / ``"columnar"`` to pick a semi-naive engine.  The goal may contain constants
    (selections) and variables (projected out positions keep their
    order).
    """
    if program.query is None:
        raise EvaluationError("program has no query goal")
    if engine == "naive":
        naive_evaluate(program, database, max_iterations)
    elif engine == "seminaive":
        seminaive_evaluate(program, database, max_iterations)
    elif engine in SEMINAIVE_ENGINES:
        seminaive_evaluate(program, database, max_iterations, engine=engine)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    goal = program.query
    relation = database.relation_or_empty(goal.predicate, goal.arity)
    results: Set[Tuple] = set()
    pattern = tuple(t.value if t.is_constant else None for t in goal.terms)
    variable_positions = [i for i, t in enumerate(goal.terms) if t.is_variable]
    for tup in relation.lookup(pattern):
        theta = match_tuple(goal.terms, tup, {})
        if theta is None:
            continue
        results.add(tuple(tup[i] for i in variable_positions))
    return results
