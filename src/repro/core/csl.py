"""Canonical strongly linear (CSL) queries.

The paper's entire development is phrased over the abstract query

    P(X, Y) :- E(X, Y).
    P(X, Y) :- L(X, X1), P(X1, Y1), R(Y, Y1).
    ?- P(a, Y).

A :class:`CSLQuery` is precisely this abstraction: three binary relations
``L``, ``E``, ``R`` (as plain sets of pairs) plus the source constant
``a``.  Every method in :mod:`repro.core` consumes a ``CSLQuery``: it
reads the pairs off :attr:`CSLQuery.index` and charges the paper's unit
through :meth:`CSLInstance.charge`.

Two bridges connect it to the Datalog world:

* :meth:`CSLQuery.from_program` — recognizes a CSL-shaped Datalog
  program (via :func:`repro.datalog.linear.analyze_linear`) and
  *materializes* its ``L``/``E``/``R`` parts, which may be conjunctions
  of derived predicates (the generalisation Section 1 sketches).  Multi-
  column bound/free parts become tuple-valued constants.
* :meth:`CSLQuery.to_program` — emits the canonical Datalog program,
  used by the oracle evaluators and the rewriting round-trip tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..datalog.atom import Atom, Literal
from ..datalog.database import Database
from ..datalog.evaluation import seminaive_evaluate
from ..datalog.linear import (
    PART_PREDICATES,
    LinearRecursion,
    analyze_linear,
    part_rules,
)
from ..datalog.program import Program
from ..datalog.relation import CostCounter
from ..datalog.rule import Rule
from ..datalog.term import Constant, Variable
from ..errors import NotCSLError
from .graph_index import BitIndex, GraphIndex, Pair, closure


def row_to_pair(row: Tuple, split: int) -> Pair:
    """A materialized part row as a pair: the first ``split`` columns,
    then the rest — each a tuple-valued constant, or the bare value
    when it is a single column."""
    from_values, to_values = row[:split], row[split:]
    return (
        from_values[0] if len(from_values) == 1 else from_values,
        to_values[0] if len(to_values) == 1 else to_values,
    )


def _frozen(pairs: Iterable[Pair]) -> FrozenSet[Pair]:
    """``pairs`` as a frozenset of tuples; one that is frozen already is
    kept as it is, so queries built from the same sets share them."""
    if isinstance(pairs, frozenset):
        return pairs
    return frozenset(tuple(p) for p in pairs)


class _PerPairSets:
    """What a query builds from its pair sets alone, on first use: one
    holder per pair-set version, held by every ``with_source`` sibling."""

    __slots__ = ("index",)

    def __init__(self):
        self.index: Optional[GraphIndex] = None


@dataclass(frozen=True)
class CSLQuery:
    """A canonical strongly linear query instance.

    ``left``/``exit``/``right`` are the paper's ``L``/``E``/``R``
    relations; ``source`` is the bound constant ``a`` of the goal.
    """

    left: FrozenSet[Pair]
    exit: FrozenSet[Pair]
    right: FrozenSet[Pair]
    source: object
    _shared: _PerPairSets = field(
        default=None, init=False, repr=False, compare=False
    )

    def __init__(self, left: Iterable[Pair], exit: Iterable[Pair],
                 right: Iterable[Pair], source):
        object.__setattr__(self, "left", _frozen(left))
        object.__setattr__(self, "exit", _frozen(exit))
        object.__setattr__(self, "right", _frozen(right))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_shared", _PerPairSets())

    @property
    def index(self) -> GraphIndex:
        """The adjacency index of the pair sets (built on first use).

        It does not depend on the source: every structural analysis of
        this query, and of every :meth:`with_source` sibling, walks this
        one object.
        """
        if self._shared.index is None:
            self._shared.index = GraphIndex(self.left, self.exit, self.right)
        return self._shared.index

    def memory_bytes(self) -> int:
        """Estimated resident bytes of the :attr:`index`, if a reader has
        built it (:meth:`GraphIndex.memory_bytes`); builds nothing."""
        index = self._shared.index  # race-ok: unset or final
        arcs = 2 * len(self.left) + len(self.exit) + len(self.right)
        return 0 if index is None else index.memory_bytes(arcs)

    def with_source(self, source) -> "CSLQuery":
        """The same relations — and the same :attr:`index` — asked from
        another bound constant."""
        sibling = object.__new__(CSLQuery)
        sibling.__dict__.update(self.__dict__, source=source)
        return sibling

    def patched(self, **deltas) -> "CSLQuery":
        """The query after signed pair deltas (``left=(added, removed)``,
        likewise ``exit``/``right``).  An :attr:`index` already built is
        succeeded, not moved (:meth:`GraphIndex.patched`): this query
        and its siblings keep their own, unchanged, for whoever is still
        walking it."""
        successor = replace(
            self,
            **{
                part: frozenset((getattr(self, part) | added) - removed)
                for part, (added, removed) in deltas.items()
            },
        )
        # One a racing reader is still building is not handed over: the
        # successor builds its own.
        index = self._shared.index  # race-ok: unset or final
        if index is not None:
            successor._shared.index = index.patched(**deltas)
        return successor

    # --- constructors --------------------------------------------------

    @classmethod
    def same_generation(
        cls,
        parent: Iterable[Pair],
        source,
        persons: Optional[Iterable] = None,
    ) -> "CSLQuery":
        """The same-generation query of the introduction.

        ``parent`` holds (child, parent) pairs; ``L = R = parent`` and the
        exit relation is the identity over ``persons`` (defaults to every
        value occurring in ``parent`` plus the source) — "every person is
        of the same generation as himself".
        """
        parent = frozenset(tuple(p) for p in parent)
        if persons is None:
            person_set = {value for pair in parent for value in pair}
            person_set.add(source)
        else:
            person_set = set(persons)
            person_set.add(source)
        identity = {(p, p) for p in person_set}
        return cls(parent, identity, parent, source)

    @classmethod
    def from_program(cls, program: Program, goal: Atom = None,
                     analysis: Optional[LinearRecursion] = None,
                     database: Optional[Database] = None) -> "CSLQuery":
        """Extract a CSLQuery from a CSL-shaped Datalog program.

        ``database`` supplies the EDB facts.  Derived predicates used in
        the ``L``/``E``/``R`` conjunctions are materialized first by
        semi-naive evaluation of the non-recursive part of the program.
        Raises :class:`NotCSLError` when the program is outside the class.
        """
        from ..datalog.engine import materialize_conjunction

        if database is None:
            raise NotCSLError("a database of EDB facts is required")
        if analysis is None:
            analysis = analyze_linear(program, goal)
        if analysis.head_free_terms and not analysis.right_elements:
            # Right-linear: nothing relates the head's free terms to the
            # recursive call's (with none, R is the one empty-tuple pair).
            rule = str(analysis.recursive_rule).rstrip(".")
            raise NotCSLError(
                f"the recursive rule {rule} has no right-hand (R) conjunct"
            )
        goal = analysis.goal

        # Materialize derived predicates (everything except the recursive
        # predicate itself) into a scratch copy of the database.
        support, parts = part_rules(program, analysis)
        scratch = database.copy(CostCounter())
        if support:
            seminaive_evaluate(Program(support), scratch)

        pairs: Dict[str, Set[Pair]] = {part: set() for part in PART_PREDICATES}
        exit_rules = iter(analysis.exit_rules)  # one exit part each, in order
        for part, split, rule in parts:
            origin = next(exit_rules) if part == "exit" else analysis.recursive_rule
            # Each conjunction is lowered once into a join kernel
            # (:mod:`repro.datalog.engine`) and executed flat — the same
            # machinery the semi-naive engine uses, so materialization
            # rides the compiled hot path too.
            try:
                rows = materialize_conjunction(
                    rule.body, rule.head.terms, scratch
                )
            except ValueError as exc:
                # An unbound projection term surfaces from the kernel as
                # the head-grounding ValueError: the program is outside
                # the class, and the rule it came from says why.
                bound = set().union(*(
                    item.variables() for item in rule.body
                    if isinstance(item, Literal) and not item.negated))
                unbound = ", ".join(str(t) for t in rule.head.terms
                                    if isinstance(t, Variable) and t not in bound)
                kind = "exit" if part == "exit" else "recursive"
                raise NotCSLError(f"the {kind} rule {str(origin).rstrip('.')} "
                                  f"leaves {unbound} unbound") from exc
            pairs[part].update(row_to_pair(row, split) for row in rows)

        goal_constants = tuple(goal.terms[i].value for i in analysis.bound)
        source = goal_constants[0] if len(goal_constants) == 1 else goal_constants
        return cls(pairs["left"], pairs["exit"], pairs["right"], source)

    # --- bridges back to Datalog ---------------------------------------

    def to_program(self) -> Program:
        """The canonical Datalog program for this query instance.

        Uses predicate names ``l``, ``e``, ``r``, ``p`` and the goal
        ``?- p(a, Y)``.  Facts are *not* included; see :meth:`database`.
        """
        x, y, x1, y1 = (Variable(n) for n in ("X", "Y", "X1", "Y1"))
        program = Program()
        program.add_rule(Rule(Atom("p", (x, y)), (Literal(Atom("e", (x, y))),)))
        program.add_rule(
            Rule(
                Atom("p", (x, y)),
                (
                    Literal(Atom("l", (x, x1))),
                    Literal(Atom("p", (x1, y1))),
                    Literal(Atom("r", (y, y1))),
                ),
            )
        )
        program.query = Atom("p", (Constant(self.source), y))
        return program

    def database(self, counter: Optional[CostCounter] = None) -> Database:
        """A database holding the EDB relations ``l``, ``e``, ``r``."""
        database = Database(counter)
        database.create("l", 2).add_all(self.left)
        database.create("e", 2).add_all(self.exit)
        database.create("r", 2).add_all(self.right)
        return database

    def instance(self, counter: Optional[CostCounter] = None) -> "CSLInstance":
        """One evaluation run of this query, charging ``counter`` (a
        fresh one by default) and nothing else."""
        return CSLInstance(self, self.source, counter or CostCounter())

    # --- uncharged structural views (for analysis) ----------------------

    def left_successors(self) -> Dict[object, Set[object]]:
        """Adjacency of the L relation: b -> {c : (b, c) in L} (the
        shared :attr:`index`'s — read, do not modify)."""
        return self.index.l_successors

    def magic_set(self) -> Set[object]:
        """The magic set MS: values L-reachable from the source
        (including the source itself)."""
        return closure([self.source], self.index.l_successors)

    def __repr__(self):
        return (
            f"CSLQuery(source={self.source!r}, |L|={len(self.left)}, "
            f"|E|={len(self.exit)}, |R|={len(self.right)})"
        )


@dataclass
class CSLInstance:
    """One evaluation run: a query, its source, the counter it charges.

    Engines read ``L``/``E``/``R`` through ``query``'s uncharged
    :attr:`~CSLQuery.index` — its plain adjacency, or the bit indexes
    counting and the ``P_M`` fixpoint work on — and pay for each read
    through :meth:`charge`, so ``counter`` accumulates the paper's
    tuple-retrieval cost under the part names ``l``, ``e`` and ``r``.
    """

    query: CSLQuery
    source: object
    counter: CostCounter = field(default_factory=CostCounter)

    @property
    def index(self) -> GraphIndex:
        """The query's :attr:`CSLQuery.index` (built on first use: a run
        that never asks for it builds none)."""
        return self.query.index

    def charge(self, part: str, probes: int, tuples: int) -> None:
        """Charge one read of ``part`` (``"l"``, ``"e"`` or ``"r"``):
        ``probes`` probes — one per value, per repeat — and the
        ``tuples`` they retrieve, the sum of those values' degrees.
        Every charge of the paper's unit under ``core`` is made here
        (``docs/complexity_notes.md``)."""
        self.counter.charge_probe_batch(part, probes)
        self.counter.charge_tuples(part, tuples)


def left_image(instance: CSLInstance, frontier: Iterable) -> Set[object]:
    """The ``L`` successors of the ``frontier`` values, read off the
    index's adjacency and charged what one probe per value would cost:
    a probe each plus its out-degree."""
    successors = instance.index.l_successors
    rows = [successors.get(value, ()) for value in frontier]
    instance.charge("l", len(rows), sum(map(len, rows)))
    return set().union(*rows)


def charged_image(instance: CSLInstance, part: str, bits: BitIndex, mask: int) -> int:
    """:func:`left_image` on a mask: the image of ``mask`` through
    ``bits``' adjacency (``part``'s), charged a probe per value (a
    popcount) plus its degree (the weight masks)."""
    instance.charge(part, mask.bit_count(), bits.degree(mask))
    return bits.image(mask, {})
