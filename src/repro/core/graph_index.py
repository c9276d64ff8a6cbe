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
reader pays the pass.
"""

from __future__ import annotations

from typing import (
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
                and node not in successor.l_in_degree
            ):
                rank.pop(node, None)
    return Condensation(rank, condensation.cores, None)


class GraphIndex:
    """Source-independent adjacency of the ``L``, ``E`` and ``R`` pairs.

    Degrees are the lengths of the adjacency entries; only the ``L``
    in-degree (the backward probe ``L(None, x1)`` charges every
    predecessor) needs its own count.  Built once per plan, succeeded
    per delta (:meth:`patched`), never mutated: it is shared between
    every query over the same pair sets, and its entries with its
    successors.
    """

    __slots__ = (
        "l_successors", "l_in_degree", "e_successors", "r_predecessors",
        "_condensation",
    )

    def __init__(
        self,
        left: Iterable[Pair],
        exit: Iterable[Pair] = (),
        right: Iterable[Pair] = (),
    ):
        #: ``b -> {c : (b, c) in L}``
        self.l_successors: Dict[Node, Set[Node]] = {}
        #: ``c -> |{b : (b, c) in L}|``
        self.l_in_degree: Dict[Node, int] = {}
        for b, c in left:
            self.l_successors.setdefault(b, set()).add(c)
            self.l_in_degree[c] = self.l_in_degree.get(c, 0) + 1
        #: ``b -> [c : (b, c) in E]``
        self.e_successors: Dict[Node, List[Node]] = {}
        for b, c in exit:
            self.e_successors.setdefault(b, []).append(c)
        #: ``y1 -> [y : (y, y1) in R]`` — the ``G_R`` arcs out of ``y1``
        self.r_predecessors: Dict[Node, List[Node]] = {}
        for y, y1 in right:
            self.r_predecessors.setdefault(y1, []).append(y)
        self._condensation: Optional[Condensation] = None

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
        touch, and the condensation when :func:`_carried` keeps it.
        """
        successor = object.__new__(GraphIndex)
        if any(left):
            added, removed = left
            l_successors = dict(self.l_successors)
            l_in_degree = dict(self.l_in_degree)
            for b, c in added:
                targets = l_successors.get(b)
                if targets is None or c not in targets:
                    l_successors[b] = {c} if targets is None else targets | {c}
                    l_in_degree[c] = l_in_degree.get(c, 0) + 1
            for b, c in removed:
                targets = l_successors.get(b)
                if targets is not None and c in targets:
                    if len(targets) > 1:
                        l_successors[b] = targets - {c}
                    else:
                        del l_successors[b]
                    if l_in_degree[c] > 1:
                        l_in_degree[c] -= 1
                    else:
                        del l_in_degree[c]
            successor.l_successors = l_successors
            successor.l_in_degree = l_in_degree
            successor._condensation = _carried(
                self._condensation,  # race-ok: unset or final
                added, removed, successor,
            )
        else:
            successor.l_successors = self.l_successors
            successor.l_in_degree = self.l_in_degree
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

    def l_nodes(self) -> Set[Node]:
        """Every value occurring in ``L``."""
        return set(self.l_successors) | set(self.l_in_degree)


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
