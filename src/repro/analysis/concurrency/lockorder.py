"""Lock-order analysis: acquisition graph, deadlock cycles, re-locks.

The pass builds a directed graph over lock identities
(``ClassName.attr``, threading locks only).  An edge ``A -> B`` means
some code path acquires ``B`` while holding ``A`` — either directly
(nested ``with`` statements) or transitively (a call made under ``A``
reaches a method whose transitive acquisition set contains ``B``,
resolved through ``self`` calls and typed attributes; see
:attr:`~repro.analysis.concurrency.facts.CodebaseFacts.method_acquires`).

Two rule families fall out:

* **relock** — an edge ``A -> A`` on a *non-reentrant* lock: the path
  re-acquires a lock it already holds and self-deadlocks.  Reentrant
  locks (``threading.RLock``) are exempt.
* **lock-order-cycle** — a cycle through two or more distinct locks:
  two threads running the witness paths in opposite orders can each
  hold one lock while waiting for the other.  Reported once per
  strongly-connected component, with the witness edge list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...datalog.stratify import strongly_connected_components
from ...diagnostics import Diagnostic
from .facts import CodebaseFacts, LockToken
from .framework import CONCURRENCY_PASSES
from .model import ClassSummary

#: edge -> (path, line, human description), first witness wins.
EdgeMap = Dict[Tuple[LockToken, LockToken], Tuple[str, int, str]]


def _held_tokens(
    facts: CodebaseFacts, cls: ClassSummary, held
) -> List[Tuple[LockToken, bool]]:
    tokens = []
    for name in held:
        token = facts.lock_token(cls, name)
        if token is not None:
            tokens.append(token)
    return tokens


def _collect(
    facts: CodebaseFacts,
) -> Tuple[EdgeMap, List[Diagnostic]]:
    edges: EdgeMap = {}
    relocks: List[Diagnostic] = []
    acquires = facts.method_acquires
    for module in facts.modules:
        for cls in module.classes.values():
            for method_name, method in cls.methods.items():
                context = f"{cls.name}.{method_name}"
                for enter in method.lock_enters:
                    entered = facts.lock_token(cls, enter.name)
                    if entered is None:
                        continue
                    token, reentrant = entered
                    for held, _ in _held_tokens(
                        facts, cls, enter.held_before
                    ):
                        if held == token:
                            if not reentrant:
                                relocks.append(
                                    Diagnostic(
                                        "error",
                                        "relock",
                                        f"{context} re-acquires non-"
                                        f"reentrant {token} while "
                                        f"already holding it",
                                        path=module.path,
                                        line=enter.line,
                                    )
                                )
                            continue
                        edges.setdefault(
                            (held, token),
                            (
                                module.path,
                                enter.line,
                                f"{context} acquires {token} while "
                                f"holding {held}",
                            ),
                        )
                for call in method.calls:
                    if not call.held:
                        continue
                    callee = facts.resolve_call(cls, call.chain)
                    if callee is None:
                        continue
                    held_tokens = _held_tokens(facts, cls, call.held)
                    if not held_tokens:
                        continue
                    callee_name = ".".join(callee)
                    for token, reentrant in acquires.get(callee, set()):
                        for held, _ in held_tokens:
                            if held == token:
                                if not reentrant:
                                    relocks.append(
                                        Diagnostic(
                                            "error",
                                            "relock",
                                            f"{context} calls "
                                            f"{callee_name}, which re-"
                                            f"acquires non-reentrant "
                                            f"{token} already held here",
                                            path=module.path,
                                            line=call.line,
                                        )
                                    )
                                continue
                            edges.setdefault(
                                (held, token),
                                (
                                    module.path,
                                    call.line,
                                    f"{context} calls {callee_name} "
                                    f"(acquires {token}) while holding "
                                    f"{held}",
                                ),
                            )
    return edges, relocks


def lock_graph_edges(facts: CodebaseFacts) -> EdgeMap:
    """The acquisition graph alone (reporting/inspection hook)."""
    edges, _relocks = _collect(facts)
    return edges


def _witness_cycle(
    component: List[LockToken],
    adjacency: Dict[LockToken, List[LockToken]],
) -> Optional[List[LockToken]]:
    """One concrete cycle inside an SCC, as a node path a -> ... -> a."""
    members = set(component)
    start = component[0]
    path = [start]
    seen = {start}
    node = start
    while True:
        successors = [
            s for s in adjacency.get(node, []) if s in members
        ]
        if not successors:
            return None  # should not happen inside a non-trivial SCC
        nxt = next((s for s in successors if s == start), successors[0])
        if nxt == start:
            path.append(start)
            return path
        if nxt in seen:
            # Fell into a sub-cycle not through start; report that one.
            tail = path[path.index(nxt):] + [nxt]
            return tail
        seen.add(nxt)
        path.append(nxt)
        node = nxt


@CONCURRENCY_PASSES.register(
    "lock-order",
    "acquisition-graph cycles (deadlocks) and non-reentrant re-locks",
)
def check_lock_order(facts: CodebaseFacts) -> List[Diagnostic]:
    edges, diagnostics = _collect(facts)
    adjacency: Dict[LockToken, List[LockToken]] = {}
    for (a, b) in sorted(edges):
        adjacency.setdefault(a, []).append(b)
    nodes = sorted({node for edge in edges for node in edge})
    for component in strongly_connected_components(nodes, adjacency):
        component = sorted(component)
        if len(component) < 2:
            continue
        cycle = _witness_cycle(component, adjacency) or component
        steps = []
        first_edge = None
        for a, b in zip(cycle, cycle[1:]):
            witness = edges.get((a, b))
            if witness is None:
                continue
            path, line, description = witness
            if first_edge is None:
                first_edge = (path, line)
            steps.append(f"{description} [{path}:{line}]")
        path, line = first_edge if first_edge else ("<unknown>", 1)
        diagnostics.append(
            Diagnostic(
                "error",
                "lock-order-cycle",
                "lock-acquisition cycle "
                + " -> ".join(cycle)
                + "; witness: "
                + "; ".join(steps),
                path=path,
                line=line,
            )
        )
    return diagnostics
