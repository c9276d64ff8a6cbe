"""Stable fingerprints for plan-cache keys.

A compiled plan is valid for exactly one (program, EDB state) pair, so
the cache key has two components:

* the **program fingerprint** — a digest of the rule set plus the
  *shape* of the goal (predicate and bound/free positions) with the
  bound constant masked out.  Batches answer the same query shape for
  many bound constants, so the constant itself must not key the plan;
* the **database fingerprint** — a digest of every relation's sorted
  fact set.  The :class:`~repro.service.service.SolverService` pairs it
  with a cheap monotone version number: mutations routed through the
  service bump the version (and explicitly invalidate the cache), while
  the content digest identifies the EDB in metrics and reports.  The
  version counter cannot see out-of-band edits to the caller's
  ``Database``; constructing the service with ``verify_database=True``
  re-checks this digest on every cache hit and recompiles on mismatch,
  at the cost of re-hashing the EDB per lookup.

Digests are truncated SHA-256 over canonical (sorted) renderings, so
they are stable across processes and insertion orders.  Computing one
is O(m log m) in the target's size, so :func:`target_fingerprint`
memoizes digests per target object for repeat batches.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, Iterable, Tuple

_DIGEST_LENGTH = 16


def _digest(parts: Iterable[str]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()[:_DIGEST_LENGTH]


def program_fingerprint(program) -> str:
    """Digest of the rule set and the goal shape (source masked).

    Two programs that differ only in the goal's bound constant — the
    batch case ``?- p(a_1, Y)`` vs ``?- p(a_2, Y)`` — share one
    fingerprint and therefore one compiled plan.
    """
    parts = sorted(str(rule) for rule in program.rules)
    goal = getattr(program, "query", None)
    if goal is not None:
        shape = ",".join(
            "b" if term.is_constant else "f" for term in goal.terms
        )
        parts.append(f"?- {goal.predicate}/{shape}")
    return _digest(parts)


def pairs_fingerprint(left, exit_pairs, right) -> str:
    """Digest of raw ``L``/``E``/``R`` pair sets (direct CSL plans)."""
    parts = []
    for tag, pairs in (("L", left), ("E", exit_pairs), ("R", right)):
        parts.append(tag)
        parts.extend(sorted(repr(pair) for pair in pairs))
    return _digest(parts)


# id(target) -> (validation token, fingerprint): by identity, as a Program
# has __eq__ but no __hash__; a weakref.finalize drops the entry before the
# id can be reused.  The token catches in-place Program mutations.
_target_memo: Dict[int, Tuple[object, str]] = {}


def target_fingerprint(target) -> str:
    """Memoized plan fingerprint for a Program or CSLQuery target.

    ``program_fingerprint`` re-renders every rule and
    ``pairs_fingerprint`` sorts the repr of every pair — O(m log m) per
    call, which would erode cache amortization if paid on every batch.
    Repeat batches over the same target object pay the digest once.
    CSLQuery is frozen so its digest never goes stale; Program is
    mutable, so the memo entry is revalidated against a cheap token and
    recomputed when the rule set or goal visibly changed.
    """
    from ..core.csl import CSLQuery

    is_query = isinstance(target, CSLQuery)
    token = None if is_query else (len(target.rules), id(target.query))
    key = id(target)
    cached = _target_memo.get(key)
    if cached is not None and cached[0] == token:
        return cached[1]
    if is_query:
        fingerprint = pairs_fingerprint(target.left, target.exit, target.right)
    else:
        fingerprint = program_fingerprint(target)
    if cached is None:
        try:
            weakref.finalize(target, _target_memo.pop, key, None)
        except TypeError:
            return fingerprint  # not weakrefable: no memo
    _target_memo[key] = (token, fingerprint)
    return fingerprint


def database_fingerprint(database) -> str:
    """Digest of the full EDB contents of ``database``."""
    parts = []
    for name in database.names():
        facts = database.facts(name)
        parts.append(f"{name}/{len(facts)}")
        parts.extend(sorted(repr(fact) for fact in facts))
    return _digest(parts)


PlanKey = Tuple[str, int]
