"""Static race detection: certify the lock discipline before serving.

The serving stack (PR 3) is thread-safe by a set of invariants — which
attribute is protected by which lock, which state is event-loop
confined, which helpers assume a lock is held.  This package checks
those invariants **statically**, the same way
:mod:`repro.analysis.static` certifies counting-safety without running
a fixpoint: declarative annotations in the runtime modules
(``# guarded-by: <lock>`` comments or :class:`GuardedBy` markers), an
AST-based analyzer that never imports the analyzed code, and a CI gate
(``repro lint-py src/repro --fail-on error``).

Pipeline (see ``CONCURRENCY_PASSES.passes()``):

* ``guarded-by`` — guarded attributes only under their declared lock,
  with interprocedural propagation through ``*_locked`` helpers;
* ``loop-confined`` — ``@loop`` attributes never touched from
  thread-dispatched code;
* ``structured-acquisition`` — locks taken only via ``with``;
* ``lock-order`` — acquisition-graph cycles (deadlock witnesses) and
  non-reentrant re-locks;
* ``asyncio-hygiene`` — no blocking calls in ``async def`` bodies, no
  ``await`` while a sync lock is held.

One call runs everything::

    from repro.analysis.concurrency import run_concurrency_analysis

    report = run_concurrency_analysis(["src/repro"])
    report.has_errors          # the CI gate
    report.to_sarif()          # SARIF 2.1.0
"""

from .annotations import GuardedBy, LOOP_GUARD
from .facts import CodebaseFacts
from .framework import (
    CONCURRENCY_PASSES,
    RULE_METADATA,
    ConcurrencyReport,
    iter_python_files,
    run_concurrency_analysis,
)
from .model import ModuleModel, build_module_model

# Importing the pass modules registers the default pipeline, in order.
from . import guards as _guards  # noqa: F401  (registration side effect)
from . import lockorder as _lockorder  # noqa: F401
from . import hygiene as _hygiene  # noqa: F401

from .lockorder import lock_graph_edges

__all__ = [
    "CONCURRENCY_PASSES",
    "CodebaseFacts",
    "ConcurrencyReport",
    "GuardedBy",
    "LOOP_GUARD",
    "ModuleModel",
    "RULE_METADATA",
    "build_module_model",
    "iter_python_files",
    "lock_graph_edges",
    "run_concurrency_analysis",
]
