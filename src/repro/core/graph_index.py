"""The one adjacency index of a CSL instance, and the walks over it.

Everything that distinguishes the paper's methods — the magic set,
single/multiple/recurring (Proposition 1), regular/acyclic/cyclic,
``i_x``, counting safety, the cost analyzer's region statistics — is a
function of the graph reachable from the source (Section 3).  The
adjacency itself does not depend on the source, so it is built here
once per plan (:attr:`repro.core.csl.CSLQuery.index` caches it and
:meth:`~repro.core.csl.CSLQuery.with_source` shares it) and every
analysis walks it from its own source: nothing below the constructor
ever iterates a whole relation.  A signed pair delta does not rebuild
it: :meth:`GraphIndex.patched` returns a *successor* index that
re-creates the entries the delta touches and shares every other one,
so an index is never mutated and an analysis that started on the
predecessor finishes on the predecessor.

Neither does the SCC condensation of ``G_L`` depend on the source: which
nodes lie on a cycle and a topological rank for every node are facts
about ``L`` alone, so :attr:`GraphIndex.condensation` pays one Tarjan
pass and a per-source analysis restricts it to its region — the
recurring nodes of a region are ``closure(region ∩ cores)`` and a
dynamic program over its finite part runs in rank order.  The successor
of an index carries the condensation across whenever the delta provably
leaves it valid (:func:`_carried`); otherwise it is unset and the next
reader pays the pass.  The bit indexes (:class:`BitIndex`) are carried
through every delta, patched only where it touches them.
"""

from __future__ import annotations

from itertools import chain, compress, count
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from ..datalog.stratify import strongly_connected_components

Node = Hashable
Pair = Tuple[Node, Node]
Adjacency = Mapping[Node, Collection[Node]]


class Condensation(NamedTuple):
    """The SCC condensation of a graph, as the analyses read it."""

    #: node -> a number of its component that is reverse topological:
    #: every arc that leaves a component leads to a lower rank, so
    #: descending rank visits predecessors first.  (A fresh pass numbers
    #: the components in Tarjan's output order; a carried one keeps the
    #: property, not the numbering.)
    rank: Dict[Node, int]
    #: the nodes on a cycle (non-trivial components and self-loops)
    cores: FrozenSet[Node]
    #: the first cyclic component in Tarjan's order (None: a DAG)
    first_cyclic: Optional[List[Node]]


def _components(
    nodes: Iterable[Node], successors: Dict[Node, Set[Node]]
) -> List[List[Node]]:
    """Tarjan SCC from the nodes in ``repr`` order (the order pins which
    witness cycle a refusal names)."""
    return strongly_connected_components(sorted(nodes, key=repr), successors)


def _is_cyclic(component: List[Node], successors) -> bool:
    return len(component) > 1 or component[0] in successors.get(
        component[0], ()
    )


def condense(
    nodes: Iterable[Node], successors: Dict[Node, Set[Node]]
) -> Condensation:
    """One Tarjan pass over ``nodes`` (closed under ``successors``)."""
    rank: Dict[Node, int] = {}
    cores: Set[Node] = set()
    first_cyclic = None
    for number, component in enumerate(_components(nodes, successors)):
        for node in component:
            rank[node] = number
        if _is_cyclic(component, successors):
            cores.update(component)
            if first_cyclic is None:
                first_cyclic = component
    return Condensation(rank, frozenset(cores), first_cyclic)


#: a part the delta does not touch
_NO_DELTA: Tuple[Iterable[Pair], Iterable[Pair]] = ((), ())


def _patched_lists(
    adjacency: Dict[Node, List[Node]],
    added: Iterable[Pair],
    removed: Iterable[Pair],
) -> Dict[Node, List[Node]]:
    """``adjacency`` after ``(key, value)`` arcs come and go, as a new
    dict whose untouched entries are the old lists."""
    patched = dict(adjacency)
    for key, value in added:
        values = patched.get(key, ())
        if value not in values:
            patched[key] = [*values, value]
    for key, value in removed:
        values = [other for other in patched.get(key, ()) if other != value]
        if values:
            patched[key] = values
        else:
            patched.pop(key, None)
    return patched


def _carried(
    condensation: Optional[Condensation],
    added: Iterable[Pair],
    removed: Iterable[Pair],
    successor: "GraphIndex",
) -> Optional[Condensation]:
    """``condensation`` after the ``L`` arcs ``added`` came and the arcs
    ``removed`` went, when that can be said of ``successor`` without a
    Tarjan pass; None when it cannot (the next reader re-condenses).

    Said only of a DAG: no deletion closes a cycle, and neither does an
    inserted arc that runs from a higher rank to a lower one — a path
    back would have to climb.  An endpoint new to ``L`` has no other
    arc yet, so a rank above (tail) or below (head) every other keeps
    the order; a node whose last arc went leaves ``rank``.  A self-loop,
    a rank inversion and every ``L`` delta on a graph with cores
    recompute.
    """
    if condensation is None or condensation.cores:
        return None
    rank = dict(condensation.rank)
    for tail, head in added:
        if tail not in rank:
            rank[tail] = max(rank.values(), default=0) + 1
        if head not in rank:
            rank[head] = min(rank.values(), default=0) - 1
        if rank[tail] <= rank[head]:
            return None
    for arc in removed:
        for node in arc:
            if (
                node not in successor.l_successors
                and node not in successor.l_predecessors
            ):
                rank.pop(node, None)
    return Condensation(rank, condensation.cores, None)


#: byte -> its bits as 0/1 flags, for ``compress``
_BYTE_FLAGS = [bytes(byte >> j & 1 for j in range(8)) for byte in range(256)]
_FLAGS = bytes.maketrans(b"01", b"\0\1")


#: rough CPython sizes in bytes, for the memory estimates: a dict slot,
#: a container per adjacency key, a reference, an ``int``'s header
_SLOT, _CONTAINER, _REF, _INT = 48, 64, 8, 28


def _mask(bits: List[int]) -> int:
    """One pass: a byte per 8 bits, then one ``int``."""
    flags = bytearray((max(bits, default=-1) >> 3) + 1)
    for i in bits:
        flags[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(flags, "little")


class BitIndex:
    """A bit per value of ``values`` and ``adjacency`` out of them as masks
    over ``target``'s bits (None: its own) — ``R⁻¹`` on the answer side,
    ``L`` and ``E`` on the ``L`` side; a value off the numbering takes the
    bit past it, which has no arcs.  Images are built on first read,
    ``row(x)`` per value and ``image(mask)`` per 8-bit chunk
    (``table[chunk << 8 | byte]``, kept while it has ``room`` bits: a few
    times the adjacency's own), filled without a lock (racing fills
    agree).  ``weights[k]``: the values whose degree has bit ``k`` set."""

    def __init__(self, values: List[Node], adjacency: Adjacency,
                 target: Optional["BitIndex"] = None,
                 bit: Optional[Dict[Node, int]] = None):
        self.values, self.adjacency = values, adjacency
        self.bit = {value: i for i, value in enumerate(values)} if bit is None else bit
        self.target = target
        self.rows: Dict[Node, int] = {}
        self.table: Dict[int, int] = {}
        self.weights: List[int] = []
        self._reweigh(range(len(values)))
        self.room = self._budget()

    def _reweigh(self, indices: Iterable[int]) -> None:
        """Re-encode the weight bits of the values at ``indices``."""
        degrees = {i: len(self.adjacency.get(self.values[i], ())) for i in indices}
        keep, old = ~_mask(list(degrees)), self.weights
        self.weights = [
            (old[k] if k < len(old) else 0) & keep
            | _mask([i for i, degree in degrees.items() if degree >> k & 1])
            for k in range(max(len(old), max(degrees.values(), default=0).bit_length()))
        ]

    def _budget(self) -> int:
        return 2048 * (len(self.values) + self.degree((1 << len(self.values)) - 1))

    def encode(self, values: Iterable[Node]) -> int:
        outside = len(self.values)
        return _mask([self.bit.get(value, outside) for value in values])

    def decode(self, mask: int) -> Set[Node]:
        bits = bin(mask)[:1:-1].encode().translate(_FLAGS)  # bit i -> 0/1
        return set(compress(self.values, bits))

    def row(self, x: Node) -> int:
        """``adjacency(x)`` as a mask (``x`` need not be numbered)."""
        mask = self.rows.get(x)
        if mask is None:
            mask = self.rows[x] = (self.target or self).encode(  # race-ok
                self.adjacency.get(x, ()))
        return mask

    def image(self, mask: int, spill: Dict[int, int]) -> int:
        """The adjacency's image of ``mask``: an entry per byte, kept in the
        table while it has room, else in ``spill`` (the caller's)."""
        image, table, values = 0, self.table, self.values
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        for chunk, byte in enumerate(data):
            if byte:
                key = chunk << 8 | byte
                part = table.get(key)
                if part is None and (part := spill.get(key)) is None:
                    sources = values[chunk << 3:(chunk + 1) << 3]
                    part = (self.target or self).encode(chain.from_iterable(
                        self.adjacency.get(x, ())
                        for x in compress(sources, _BYTE_FLAGS[byte])))
                    (table if self.room > 0 else spill)[key] = part  # race-ok
                    self.room -= part.bit_length() + 256  # race-ok: may overdraw
                image |= part
        return image

    def degree(self, mask: int) -> int:
        """Σ degree over ``mask``: a popcount per weight."""
        return sum((mask & w).bit_count() << k for k, w in enumerate(self.weights))

    def memory_bytes(self) -> int:
        """Estimated bytes of the numbering (its owner's: an index with a
        ``target`` shares one) and the masks built so far, each at the
        width of the numbering it ranges over — from ``len()``s alone."""
        own = 0 if self.target else len(self.values) * (_SLOT + _REF)
        mask = _SLOT + _INT + len((self.target or self).values) // 8
        return own + (len(self.rows) + len(self.table) + len(self.weights)) * mask

    def patched(self, adjacency: Adjacency, touched: Iterable[Node],
                values: Iterable[Node] = (), numbering: Optional["BitIndex"] = None,
                target: Optional["BitIndex"] = None) -> "BitIndex":
        """This index over ``adjacency``, changed at ``touched``: new
        ``values`` (or ``numbering``'s) take the bits past the old ones,
        and only their and the touched values' weight bits and chunk
        entries are redone — in the successor's own copies of the tables."""
        successor = object.__new__(BitIndex)
        successor.adjacency, successor.target = adjacency, target
        numbering = numbering or self
        new = [value for value in dict.fromkeys(values) if value not in numbering.bit]
        successor.values, successor.bit = numbering.values, numbering.bit
        if new:  # appended: every old bit keeps its value
            successor.values = numbering.values + new
            successor.bit = dict(numbering.bit)
            successor.bit.update(zip(new, count(len(numbering.values))))
        touched = set(touched)
        indices = {successor.bit[x] for x in touched if x in successor.bit}
        indices.update(range(len(self.values), len(successor.values)))
        successor.rows, successor.table = self.rows.copy(), self.table.copy()  # race-ok
        for x in touched:
            successor.rows.pop(x, None)
        dropped = [successor.table.pop(key, None) for chunk in {i >> 3 for i in indices}
                   for key in range(chunk << 8 | 1, (chunk + 1) << 8)]
        successor.weights = self.weights
        successor._reweigh(indices)
        successor.room = self.room + successor._budget() - self._budget() + sum(
            part.bit_length() + 256 for part in dropped if part is not None)
        return successor


class GraphIndex:
    """Source-independent adjacency of the ``L``, ``E`` and ``R`` pairs.

    It is the one copy of them the paper's methods read.  Degrees are
    the lengths of the adjacency entries.  Built once per plan,
    succeeded per delta (:meth:`patched`), never mutated: it is shared
    between every query over the same pair sets, and its entries with
    its successors.
    """

    __slots__ = (
        "l_successors", "l_predecessors", "e_successors", "r_predecessors",
        "_condensation", "_bits", "_lbits", "_ebits",
    )

    def __init__(
        self,
        left: Iterable[Pair],
        exit: Iterable[Pair] = (),
        right: Iterable[Pair] = (),
    ):
        #: ``b -> {c : (b, c) in L}``
        self.l_successors: Dict[Node, Set[Node]] = {}
        #: ``c -> [b : (b, c) in L]`` — the backward probe ``L(None, c)``
        self.l_predecessors: Dict[Node, List[Node]] = {}
        for b, c in left:
            self.l_successors.setdefault(b, set()).add(c)
            self.l_predecessors.setdefault(c, []).append(b)
        #: ``b -> [c : (b, c) in E]``
        self.e_successors: Dict[Node, List[Node]] = {}
        for b, c in exit:
            self.e_successors.setdefault(b, []).append(c)
        #: ``y1 -> [y : (y, y1) in R]`` — the ``G_R`` arcs out of ``y1``
        self.r_predecessors: Dict[Node, List[Node]] = {}
        for y, y1 in right:
            self.r_predecessors.setdefault(y1, []).append(y)
        self._condensation: Optional[Condensation] = None
        self._bits = self._lbits = self._ebits = None  # answer side, L, E

    def patched(
        self,
        left: Tuple[Iterable[Pair], Iterable[Pair]] = _NO_DELTA,
        exit: Tuple[Iterable[Pair], Iterable[Pair]] = _NO_DELTA,
        right: Tuple[Iterable[Pair], Iterable[Pair]] = _NO_DELTA,
    ) -> "GraphIndex":
        """The index of the pair sets after signed deltas (``(added,
        removed)`` per part, additions first): equal to a from-scratch
        build of ``(pairs | added) - removed``, for one dict copy per
        touched part instead of a pass over every pair.  This index is
        left as it is; the two share every entry the delta does not
        touch, the condensation when :func:`_carried` keeps it, and each
        bit index whose parts the delta leaves alone; one whose parts it
        touches is carried by :meth:`BitIndex.patched`.
        """
        successor = object.__new__(GraphIndex)
        if any(left):
            added, removed = left
            l_successors = dict(self.l_successors)
            for b, c in added:
                targets = l_successors.get(b)
                if targets is None or c not in targets:
                    l_successors[b] = {c} if targets is None else targets | {c}
            for b, c in removed:
                targets = l_successors.get(b)
                if targets is not None and c in targets:
                    if len(targets) > 1:
                        l_successors[b] = targets - {c}
                    else:
                        del l_successors[b]
            successor.l_successors = l_successors
            successor.l_predecessors = _patched_lists(
                self.l_predecessors,
                [(c, b) for b, c in added], [(c, b) for b, c in removed],
            )
            successor._condensation = _carried(
                self._condensation,  # race-ok: unset or final
                added, removed, successor,
            )
        else:
            successor.l_successors = self.l_successors
            successor.l_predecessors = self.l_predecessors
            successor._condensation = (
                self._condensation  # race-ok: unset or final
            )
        successor.e_successors = (
            _patched_lists(self.e_successors, *exit)
            if any(exit) else self.e_successors
        )
        successor.r_predecessors = (
            _patched_lists(
                self.r_predecessors,
                [(y1, y) for y, y1 in right[0]],
                [(y1, y) for y, y1 in right[1]],
            )
            if any(right) else self.r_predecessors
        )
        # Unset or final; ebits first: set, it implies the two it was built on.
        ebits, lbits, bits = self._ebits, self._lbits, self._bits  # race-ok
        if bits is not None and (any(exit) or any(right)):
            bits = bits.patched(
                successor.r_predecessors, [y1 for _y, y1 in chain(*right)],
                chain((y for _x, y in exit[0]), *right[0]))
        if lbits is not None and (any(left) or any(exit)):
            lbits = lbits.patched(successor.l_successors, [b for b, _c in chain(*left)],
                                  chain(*left[0], (x for x, _y in exit[0])))
        if ebits is not None and (any(left) or any(exit) or any(right)):
            ebits = ebits.patched(successor.e_successors, [x for x, _y in chain(*exit)],
                                  numbering=lbits, target=bits)
        successor._bits, successor._lbits, successor._ebits = bits, lbits, ebits
        return successor

    @property
    def condensation(self) -> Condensation:
        """The condensation of ``G_L`` (one Tarjan pass, on first use,
        unless :meth:`patched` carried the predecessor's across).

        Filled without a lock: the pass is a pure function of the
        adjacency, so two threads racing the first use compute equal
        values and either assignment may stand.
        """
        if self._condensation is None:  # race-ok: benign duplicate fill
            self._condensation = condense(  # race-ok: benign duplicate fill
                self.l_nodes(), self.l_successors
            )
        return self._condensation

    @property
    def bits(self) -> BitIndex:
        """The answer side (``E`` targets, ``R`` values), with ``R⁻¹``."""
        if self._bits is None:  # race-ok: benign duplicate fill
            self._bits = BitIndex(list(dict.fromkeys(chain(  # race-ok
                self.r_predecessors, *self.e_successors.values(),
                *self.r_predecessors.values()))), self.r_predecessors)
        return self._bits

    @property
    def lbits(self) -> BitIndex:
        """The ``L`` side as bits, with the ``L`` successors: ``L``'s
        values in condensation-rank order (a level walk stays in few
        chunks), then the rest of ``E``'s domain."""
        if self._lbits is None:  # race-ok: benign duplicate fill
            rank = self.condensation.rank
            self._lbits = BitIndex(sorted(rank, key=rank.__getitem__) + [  # race-ok
                x for x in self.e_successors if x not in rank], self.l_successors)
        return self._lbits

    @property
    def ebits(self) -> BitIndex:
        """``E`` from :attr:`lbits`' bits into :attr:`bits`'."""
        if self._ebits is None:  # race-ok: benign duplicate fill
            lbits = self.lbits
            self._ebits = BitIndex(  # race-ok
                lbits.values, self.e_successors, self.bits, lbits.bit)
        return self._ebits

    def memory_bytes(self, arcs: int) -> int:
        """Estimated resident bytes of the adjacency, the condensation and
        the bit indexes built so far, from ``len()``s alone (it builds
        nothing); ``arcs`` counts the adjacency entries: each ``L`` pair
        twice, each ``E`` and ``R`` pair once."""
        keys = sum(map(len, (self.l_successors, self.l_predecessors,
                             self.e_successors, self.r_predecessors)))
        condensation = self._condensation  # race-ok: unset or final
        built = (self._bits, self._lbits, self._ebits)  # race-ok: unset or final
        return (keys * (_SLOT + _CONTAINER) + arcs * _REF
                + (len(condensation.rank) * _SLOT if condensation else 0)
                + sum(bits.memory_bytes() for bits in built if bits))

    def l_nodes(self) -> Set[Node]:
        """Every value occurring in ``L``."""
        return set(self.l_successors) | set(self.l_predecessors)


def closure(
    seeds: Iterable[Node],
    successors: Mapping[Node, Iterable[Node]],
    budget: Optional[int] = None,
) -> Set[Node]:
    """Forward closure of ``seeds`` under ``successors``.

    With a ``budget`` the walk gives up as soon as it has discovered
    more nodes than that: a result larger than the budget is partial
    and MUST NOT be used (the caller widens); a complete closure never
    is.
    """
    seen = set(seeds)
    stack = list(seen)
    while stack:
        if budget is not None and len(seen) > budget:
            break
        node = stack.pop()
        for successor in successors.get(node, ()):
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


def recurring_closure(
    nodes: Iterable[Node], successors: Dict[Node, Set[Node]]
) -> Tuple[List[List[Node]], Set[Node]]:
    """The recurring nodes among ``nodes`` (Proposition 1(c)).

    Tarjan SCC finds the cyclic cores — non-trivial components and
    self-loops; their forward closure is the set of nodes some path
    reaches through a cycle.  ``nodes`` must be closed under
    ``successors``.  Also returns the components, which are in reverse
    topological order of the condensation.
    """
    components = _components(nodes, successors)
    cores = {
        node
        for component in components
        if _is_cyclic(component, successors)
        for node in component
    }
    return components, closure(cores, successors)


def bfs_depths(
    source: Node,
    successors: Mapping[Node, Iterable[Node]],
    budget: Optional[int] = None,
) -> Dict[Node, int]:
    """Shortest distance from ``source`` to every node it reaches (its
    keys are :func:`closure` of the source).  A ``budget`` is
    :func:`closure`'s: a result larger than it is partial and MUST NOT
    be used."""
    depths = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for node in frontier:
            if budget is not None and len(depths) > budget:
                return depths
            for successor in successors.get(node, ()):
                if successor not in depths:
                    depths[successor] = depth
                    next_frontier.append(successor)
        frontier = next_frontier
    return depths
