"""Stratification of Datalog programs with negation.

A program is stratifiable when no predicate depends on itself through a
negated literal.  We compute strongly connected components of the
predicate dependency graph (iterative Tarjan — also reused for the magic
graph analysis in :mod:`repro.core.classification`), reject negative
edges inside a component, and emit strata in dependency order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, Tuple

from ..errors import StratificationError
from .program import Program


def strongly_connected_components(
    nodes: Iterable[Hashable], successors: Dict[Hashable, Set[Hashable]]
) -> List[List[Hashable]]:
    """Tarjan's SCC algorithm, iterative (no recursion-depth limits).

    Returns components in reverse topological order (every component
    precedes the components it depends on being *later* in the list —
    i.e. the returned order is a valid evaluation order).
    """
    index_counter = 0
    index: Dict[Hashable, int] = {}
    lowlink: Dict[Hashable, int] = {}
    on_stack: Set[Hashable] = set()
    stack: List[Hashable] = []
    components: List[List[Hashable]] = []

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[Hashable, Iterable]] = [(root, iter(successors.get(root, ())))]
        index[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successor_iter = work[-1]
            advanced = False
            for successor in successor_iter:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def stratify(program: Program) -> List[Set[str]]:
    """Partition the IDB predicates of ``program`` into evaluation strata.

    Returns a list of predicate sets; stratum ``i`` may be evaluated once
    all strata ``< i`` are complete.  EDB predicates belong to no stratum.
    Raises :class:`StratificationError` when a predicate depends on itself
    through negation.
    """
    idb = program.idb_predicates()
    successors: Dict[str, Set[str]] = {p: set() for p in idb}
    negative_edges: Set[Tuple[str, str]] = set()
    for head, body, negated in program.dependency_edges():
        if body in idb:
            successors[head].add(body)
            if negated:
                negative_edges.add((head, body))

    components = strongly_connected_components(sorted(idb), successors)
    component_of: Dict[str, int] = {}
    for component_index, component in enumerate(components):
        for predicate in component:
            component_of[predicate] = component_index

    for head, body in negative_edges:
        if component_of[head] == component_of[body]:
            raise StratificationError(
                f"predicate {head!r} depends on {body!r} through negation "
                "within a recursive component; the program is not stratifiable"
            )

    # Tarjan's output order is already a valid evaluation order; merge
    # consecutive components freely or keep them separate.  Keeping each
    # component as its own stratum is simplest and always valid.
    return [set(component) for component in components]
