"""Compiled join-kernel execution engine for the semi-naive fixpoint.

The interpreter in :mod:`repro.datalog.evaluation` evaluates rule bodies
tuple-at-a-time through recursive generators: every matched tuple copies
a substitution dict (:func:`~repro.datalog.unify.match_tuple`), rebuilds
the remaining-element list, and re-picks the next body element.  All of
that work is redundant — the element the scheduler picks depends only on
*which* variables are bound, never on their values, so the whole join
order of a rule is a static property.  This module exploits that: each
rule body is lowered **once** per (program, stratum) into a
:class:`JoinKernel` — a flat op list over register slots.  Index
patterns, constant tests, intra-literal equality checks and head
construction are all precomputed.  Executing the kernel runs each op
over the whole binding *frontier* at once: a ``scan`` is one bulk read
(:meth:`Relation.probe_many`, or :meth:`Relation.probe_repeated` for a
constant key) for every row, a negation one :meth:`Relation.probe_many`
on all columns, and the head is one projection over the surviving rows.

There is one join order: the kernels statically replay the
interpreter's own scheduling
(:func:`~repro.datalog.evaluation._ready_element_index`) over the delta
variants :func:`~repro.datalog.evaluation._seminaive_strata` produces
for every engine.  The frontier keeps every row's multiplicity — a row
matched twice continues twice, as in the interpreter's nested loop — and
the bulk reads charge what one :meth:`Relation.probe` (or
:meth:`Relation.contains`) per row would, so a kernel issues *the same
probes with the same per-relation totals* as the interpreter: answers
**and** :class:`CostCounter` snapshots are identical.  The paper's
retrieval-cost accounting survives the compilation untouched.  A body's
schedule is a static property fixed once at compile time, not a mode a
caller picks (Stephan & Brass, arXiv 1405.5645).

The semi-naive fixpoint driver is not mirrored but *shared*:
:meth:`CompiledProgram.run` calls the interpreter's own
:func:`~repro.datalog.evaluation._run_strata` — same round-0 pass, same
per-round ``Δ<pred>`` delta relations, same :meth:`Relation.add_new`
bulk flush — with :meth:`JoinKernel.run` in place of the interpreted
rule evaluation.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import EvaluationError
from .atom import Atom, BuiltinAtom
from .builtins import evaluate_builtin, output_variables
from .database import Database
from .evaluation import (
    DEFAULT_MAX_ITERATIONS,
    _arity_map,
    _ready_element_index,
    _run_strata,
    _seminaive_strata,
)
from .program import Program
from .relation import Relation, _key_reader
from .rule import Rule
from .term import Constant, Variable


class _UnsafeTail:
    """Marker for a body suffix the scheduler could not make evaluable.

    The interpreter raises :class:`EvaluationError` when (and only when)
    evaluation actually *reaches* the stuck suffix; compiling the raise
    into the op list preserves that behaviour exactly — a rule whose
    outer joins produce no bindings never trips it.
    """

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = tuple(elements)


def _static_schedule(elements: Sequence, bound: Set[Variable]) -> List:
    """Replay the interpreter's per-binding scheduling, statically.

    ``_ready_element_index`` inspects only the *set* of bound variables.
    A positive literal always binds all its variables, an ``is`` builtin
    always binds its (statically known) target, and nothing else binds
    anything — so the interpreter's "dynamic" order is a pure function
    of the element list, computable once at compile time.
    """
    remaining = list(elements)
    ordered: List = []
    bound = set(bound)
    while remaining:
        index = _ready_element_index(remaining, bound)
        if index < 0:
            ordered.append(_UnsafeTail(remaining))
            break
        element = remaining.pop(index)
        ordered.append(element)
        if isinstance(element, BuiltinAtom):
            bound |= output_variables(element)
        elif not element.negated:
            bound.update(element.variables())
    return ordered


def _reader(template: Sequence, fills: Sequence[Tuple[int, int]]) -> Callable:
    """``row -> tuple``: ``template`` with each ``(index, slot)`` of
    ``fills`` read from the register row, chosen once per op."""
    if not fills:
        constant = tuple(template)
        return lambda row: constant
    if len(fills) == len(template):
        return _columns([slot for _index, slot in fills])
    template = list(template)

    def read(row):
        values = template.copy()
        for index, slot in fills:
            values[index] = row[slot]
        return tuple(values)

    return read


def _columns(positions: Sequence[int]) -> Callable:
    """``tup -> tuple`` of the ``positions`` entries, in that order."""
    if not positions:
        return lambda tup: ()
    return _key_reader(tuple(positions))


def _scan(relation, rows, positions, key_template, key_fills, binds, checks):
    """One positive literal over the whole frontier: one bulk read.

    Every row stays once per matched tuple (multiplicity is what the
    next op's probes are charged by) and grows by the tuple's fresh
    variables.  A repeated variable is first bound in this literal, so
    its check compares two columns of the matched tuple.
    """
    extend = _columns([position for position, _slot in binds])
    first = {slot: position for position, slot in binds}
    same = [(position, first[slot]) for position, slot in checks]

    def keep(tup):
        return all(tup[p] == tup[q] for p, q in same)

    if key_fills:
        matched = relation.probe_many(
            positions, list(map(_reader(key_template, key_fills), rows))
        )
        if same:
            return [
                row + extend(tup)
                for row, tuples in zip(rows, matched)
                for tup in tuples
                if keep(tup)
            ]
        return [
            row + extend(tup)
            for row, tuples in zip(rows, matched)
            for tup in tuples
        ]
    # A constant key reads the same tuples for every row.
    tuples = relation.probe_repeated(positions, tuple(key_template), len(rows))
    if same:
        tuples = [tup for tup in tuples if keep(tup)]
    # Without a key or a check the literal binds the whole tuple in
    # column order (the delta scan), so a tuple is its own extension.
    if positions or same:
        tuples = list(map(extend, tuples))
    if rows == [()]:
        return list(tuples)
    return [row + ext for row in rows for ext in tuples]


class JoinKernel:
    """One rule body compiled to an op list run a frontier at a time.

    ``relations`` lists the ``(predicate, arity)`` pair of every
    relation-consuming op in op order; :meth:`execute` takes the
    resolved :class:`Relation` objects in that order (the semi-naive
    driver substitutes a delta relation at ``delta_index``) and appends
    derived head tuples to ``out``.  The frontier is a list of register
    rows; slots are assigned in binding order, so an op that binds
    variables extends each row by concatenation.
    """

    __slots__ = ("rule", "order", "relations", "delta_index", "num_slots", "ops")

    def __init__(self, rule, order, relations, delta_index, num_slots, ops):
        self.rule = rule
        self.order = order
        self.relations = relations
        self.delta_index = delta_index
        self.num_slots = num_slots
        # The columnar batch executor interprets these same ops over
        # column vectors, so both engines share one compiled plan.
        self.ops = tuple(ops)

    def execute(self, relations: Sequence[Relation], out: List[Tuple]) -> None:
        """Run the kernel against resolved relations, appending to ``out``.

        An empty frontier stops the kernel: nothing after it is charged,
        and an ``unsafe`` or ``unbound_head`` op it never reaches never
        raises — as in the interpreter, whose nested loop never gets
        there.
        """
        rows: List[Tuple] = [()]
        for op in self.ops:
            kind = op[0]
            if kind == "scan":
                rows = _scan(relations[op[1]], rows, *op[2:])
            elif kind == "negcheck":
                _, rel_index, template, fills = op
                found = relations[rel_index].probe_many(
                    tuple(range(len(template))),
                    list(map(_reader(template, fills), rows)),
                )
                rows = [row for row, hit in zip(rows, found) if not hit]
            elif kind == "builtin":
                _, builtin, in_pairs, out_pairs = op
                grown = []
                for row in rows:
                    theta = {v: Constant(row[slot]) for v, slot in in_pairs}
                    for extended in evaluate_builtin(builtin, theta):
                        grown.append(
                            row
                            + tuple(extended[v].value for v, _slot in out_pairs)
                        )
                rows = grown
            elif kind == "emit":
                _, template, fills = op
                out.extend(map(_reader(template, fills), rows))
            elif kind == "unbound_head":
                _, term, head = op
                raise ValueError(f"unbound variable {term} instantiating {head}")
            elif kind == "unsafe":
                _, elements = op
                raise EvaluationError(
                    "no evaluable body element; rule is unsafe: "
                    + ", ".join(str(e) for e in elements)
                )
            else:  # pragma: no cover - compiler invariant
                raise EvaluationError(f"unknown kernel op {kind!r}")
            if not rows:
                return

    def resolve(
        self, database: Database, delta: Optional[Relation] = None
    ) -> List[Relation]:
        """The relations :meth:`execute` reads, in op order; a given
        ``delta`` stands in at ``delta_index`` and nowhere else."""
        relations = [
            database.relation_or_empty(predicate, arity)
            for predicate, arity in self.relations
        ]
        if delta is not None:
            relations[self.delta_index] = delta
        return relations

    def run(
        self, database: Database, delta: Optional[Relation] = None
    ) -> List[Tuple]:
        """Resolve relations from ``database`` and execute."""
        out: List[Tuple] = []
        self.execute(self.resolve(database, delta), out)
        return out

    def __repr__(self):
        return (
            f"JoinKernel({self.rule.head}, ops={len(self.order)}, "
            f"slots={self.num_slots})"
        )


def _atom_template(terms, slots, bound):
    """Split atom terms into a constant template plus slot fill lists."""
    template = [None] * len(terms)
    fills = []  # (position, slot): bound variable -> pattern/tuple position
    for position, term in enumerate(terms):
        if term.is_constant:
            template[position] = term.value
        elif term in bound:
            fills.append((position, slots[term]))
    return template, fills


def compile_kernel(
    rule: Rule,
    elements: Sequence,
    pinned_predicate: Optional[str] = None,
) -> JoinKernel:
    """Lower one scheduled body into a :class:`JoinKernel`.

    ``elements`` must already be in execution order (see
    :func:`_static_schedule`); ``pinned_predicate`` marks the predicate
    whose *first* relation-consuming occurrence reads the semi-naive
    delta — the occurrence :func:`~repro.datalog.evaluation._differentiate`
    swapped to the front, which the interpreter binds to the delta.
    """
    slots: Dict[Variable, int] = {}
    bound: Set[Variable] = set()
    rel_specs: List[Tuple[str, int]] = []
    delta_index: Optional[int] = None
    ops: List[Tuple] = []
    stuck = False

    for element in elements:
        if isinstance(element, _UnsafeTail):
            ops.append(("unsafe", element.elements))
            stuck = True
            break
        # Slots are handed out in binding order: the frontier executor
        # extends a row by concatenating the values an op binds.
        width = len(slots)
        if isinstance(element, BuiltinAtom):
            in_pairs = tuple(
                (v, slots[v]) for v in element.variables() if v in bound
            )
            out_pairs = []
            for v in output_variables(element):
                if v not in bound:
                    slot = slots.setdefault(v, len(slots))
                    out_pairs.append((v, slot))
                    bound.add(v)
            assert [s for _v, s in out_pairs] == list(range(width, len(slots)))
            ops.append(("builtin", element, in_pairs, tuple(out_pairs)))
            continue

        arity = len(element.terms)
        template, fills = _atom_template(element.terms, slots, bound)
        rel_index = len(rel_specs)
        rel_specs.append((element.predicate, arity))
        if (
            pinned_predicate is not None
            and delta_index is None
            and element.predicate == pinned_predicate
        ):
            delta_index = rel_index

        if element.negated:
            ops.append(("negcheck", rel_index, template, tuple(fills)))
            continue

        binds = []  # (position, slot): tuple position -> fresh register
        checks = []  # (position, slot): intra-literal repeated variable
        seen_here: Set[Variable] = set()
        for position, term in enumerate(element.terms):
            if term.is_constant or term in bound:
                continue
            if term in seen_here:
                checks.append((position, slots[term]))
            else:
                slot = slots.setdefault(term, len(slots))
                binds.append((position, slot))
                seen_here.add(term)
        bound.update(seen_here)
        assert [s for _p, s in binds] == list(range(width, len(slots)))
        # Precompute the probe plan: the (positions, key) pair that
        # Relation.lookup would derive from the pattern on every call,
        # derived here once.  ``key_fills`` maps register slots into the
        # key positions that carry join values at run time.
        fill_map = dict(fills)
        positions = []
        key_template = []
        key_fills = []
        for position, value in enumerate(template):
            if value is not None:
                positions.append(position)
                key_template.append(value)
            elif position in fill_map:
                positions.append(position)
                key_template.append(None)
                key_fills.append((len(key_template) - 1, fill_map[position]))
        ops.append(
            (
                "scan",
                rel_index,
                tuple(positions),
                key_template,
                tuple(key_fills),
                tuple(binds),
                tuple(checks),
            )
        )

    if not stuck:
        missing = [
            t for t in rule.head.terms if t.is_variable and t not in bound
        ]
        if missing:
            ops.append(("unbound_head", missing[0], rule.head))
        else:
            template, fills = _atom_template(rule.head.terms, slots, bound)
            ops.append(("emit", template, tuple(fills)))

    return JoinKernel(
        rule, tuple(elements), tuple(rel_specs), delta_index, len(slots), ops
    )


def compile_rule(rule: Rule) -> JoinKernel:
    """Compile a standalone rule body (no delta differentiation)."""
    return compile_kernel(rule, _static_schedule(rule.body, set()))


class CompiledProgram:
    """A program lowered to join kernels, once per (program, stratum).

    Construction performs the whole compile phase: safety checking,
    stratification, scheduling, and kernel lowering for every rule plus
    every semi-naive delta variant.  The result is immutable, depends on
    no database, and is reusable across them; :meth:`run` executes the
    semi-naive fixpoint against any database.
    """

    def __init__(self, program: Program):
        started = time.perf_counter()
        program.check_safety()
        self.program = program
        self.rules_signature = tuple(program.rules)
        self.arities = _arity_map(program)
        #: per stratum, one :class:`SeminaiveRule` of kernels per rule
        self.strata = _seminaive_strata(
            program,
            lambda rule, body, pinned: compile_kernel(
                rule, _static_schedule(body, set()), pinned_predicate=pinned
            ),
        )
        self.kernel_count = sum(
            1 + len(rule.delta_variants)
            for rules in self.strata
            for rule in rules
        )
        self.compile_seconds = time.perf_counter() - started

    def run(
        self,
        database: Database,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> Database:
        """Semi-naive fixpoint over the compiled kernels: the
        interpreter's driver with :meth:`JoinKernel.run` as the rule
        evaluation.  Derived facts land in ``database`` in place and the
        database is returned for chaining."""
        return _run_strata(
            database, self.strata, JoinKernel.run, max_iterations
        )

    def describe(self) -> Dict[str, object]:
        return {
            "strata": len(self.strata),
            "kernels": self.kernel_count,
            "compile_ms": self.compile_seconds * 1000.0,
        }

    def __repr__(self):
        return (
            f"CompiledProgram(strata={len(self.strata)}, "
            f"kernels={self.kernel_count})"
        )


class _KernelCache:
    """Process-wide memo of compiled programs.

    Keyed by program identity (kernels are database-independent, so one
    compilation serves every run of the same program object);
    entries are revalidated against the program's current rule tuple so
    in-place mutation — ``Program.add_rule`` — can never serve stale
    kernels.  Shared across threads: the service layer compiles from
    worker threads, so every read/insert happens under ``_lock``.

    Eviction is lazy — a dead program's entry is dropped when its id is
    revisited or when the size limit clears the table.  Deliberately no
    ``weakref.ref`` finalizer callback: the GC may run one at any
    allocation point, including while this thread already holds the
    non-reentrant ``_lock``, which self-deadlocks.
    """

    _LIMIT = 128

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[int, Tuple] = {}  # guarded-by: _lock

    def get(self, program: Program) -> Optional[CompiledProgram]:
        with self._lock:
            entry = self._entries.get(id(program))
            if entry is None:
                return None
            ref, compiled = entry
            if ref() is not program:
                # The id was recycled by a dead program; drop the entry.
                del self._entries[id(program)]
                return None
        if compiled.rules_signature != tuple(program.rules):
            with self._lock:
                self._entries.pop(id(program), None)
            return None
        return compiled

    def put(self, program: Program, compiled: CompiledProgram) -> None:
        with self._lock:
            if len(self._entries) >= self._LIMIT:
                self._entries.clear()
            self._entries[id(program)] = (weakref.ref(program), compiled)


_kernel_cache = _KernelCache()


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` to join kernels, memoized per program object.

    Kernels are independent of any database, so repeated fixpoints over
    the same :class:`Program` object (incremental maintenance, batch
    serving, test oracles) pay for lowering once.
    """
    compiled = _kernel_cache.get(program)
    if compiled is None:
        compiled = CompiledProgram(program)
        _kernel_cache.put(program, compiled)
    return compiled


def compiled_seminaive_evaluate(
    program: Program,
    database: Database,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Database:
    """Entry point used by :func:`repro.datalog.evaluation.seminaive_evaluate`."""
    return compile_program(program).run(database, max_iterations)


def materialize_conjunction(
    elements: Sequence,
    head_terms: Sequence,
    database: Database,
) -> List[Tuple]:
    """Evaluate one conjunctive body and project ``head_terms`` rows.

    Used by the CSL materializer: builds a synthetic single-use rule
    whose head carries the projection, compiles it, and runs it against
    ``database``.  Raises :class:`ValueError` (unbound projection term)
    exactly where the interpreted path would fail to ground the term.
    """
    head = Atom("$conjunction", tuple(head_terms))
    kernel = compile_rule(Rule(head, tuple(elements)))
    if database.backend == "columnar":
        # Same compiled ops, executed over column vectors: the CSL
        # materializer inherits the batch path on columnar databases
        # (identical charges — see docs/engine.md).
        from .columnar_engine import materialize_kernel_columnar

        return materialize_kernel_columnar(kernel, database)
    return kernel.run(database)
