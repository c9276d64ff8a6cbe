"""Asyncio hygiene: keep the event loop unblocked and locks await-free.

Two rules over every ``async def`` body in the analyzed set:

* **blocking-in-async** — a call that blocks the calling thread stalls
  the whole event loop: sync lock acquisition (``with`` or bare
  ``.acquire()`` on a ``threading`` lock), ``time.sleep``, blocking
  file/socket/subprocess I/O.  CPU-bound or blocking work belongs on an
  executor (``loop.run_in_executor``), which is exactly how the server
  runs batch executions.  Code inside nested sync callables (e.g. the
  lambda handed to an executor) is *not* event-loop code and is exempt.
* **await-under-lock** — an ``await`` while holding a sync
  (``threading``) lock parks the lock across arbitrary scheduler
  interleavings: any other task (or thread) contending for it stalls,
  and lock-order assumptions stop being local.  ``async with`` on
  ``asyncio`` locks is the correct tool and is exempt.

The blocking-call list is deliberately a precise blocklist, not a
heuristic sweep — the analyzer gates CI, so false positives cost more
than modest blind spots (cross-function blocking is out of scope; the
lock passes cover the lock half interprocedurally).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...diagnostics import Diagnostic
from .facts import CodebaseFacts
from .framework import CONCURRENCY_PASSES
from .model import FunctionSummary, ModuleModel

#: Exact dotted calls that block the calling thread.
_BLOCKING_CHAINS = {
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("socket", "create_connection"),
    ("urllib", "request", "urlopen"),
    ("requests", "get"),
    ("requests", "post"),
    ("requests", "request"),
}

#: Bare builtins that open blocking file I/O.
_BLOCKING_BARE = {"open", "input"}


def _blocking_reason(chain: Optional[Tuple[str, ...]]) -> Optional[str]:
    if chain is None:
        return None
    if chain in _BLOCKING_CHAINS:
        return f"{'.'.join(chain)}() blocks the event loop"
    if len(chain) == 1 and chain[0] in _BLOCKING_BARE:
        return f"{chain[0]}() performs blocking I/O"
    return None


def _check_function(
    module: ModuleModel,
    owner: str,
    function: FunctionSummary,
    out: List[Diagnostic],
) -> None:
    for call in function.calls:
        if not call.in_async or call.escaped:
            continue
        reason = _blocking_reason(call.chain)
        if reason is not None:
            out.append(
                Diagnostic(
                    "error",
                    "blocking-in-async",
                    f"{reason} inside async {owner}; run it on an "
                    f"executor (loop.run_in_executor) instead",
                    path=module.path,
                    line=call.line,
                    col=call.col,
                )
            )
    for raw in function.raw_acquires:
        if raw.in_async and raw.method == "acquire" and raw.kind != "asyncio":
            out.append(
                Diagnostic(
                    "error",
                    "blocking-in-async",
                    f"threading-lock acquire() inside async {owner} "
                    f"blocks the event loop; use an asyncio.Lock with "
                    f"'async with'",
                    path=module.path,
                    line=raw.line,
                )
            )
    for enter in function.lock_enters:
        if enter.in_async and not enter.is_async_with and (
            enter.kind == "threading"
        ):
            out.append(
                Diagnostic(
                    "error",
                    "blocking-in-async",
                    f"'with' on a threading lock inside async {owner} "
                    f"blocks the event loop; use an asyncio.Lock with "
                    f"'async with'",
                    path=module.path,
                    line=enter.line,
                )
            )
    for point in function.awaits:
        if point.held_sync:
            held = ", ".join(sorted(point.held_sync))
            out.append(
                Diagnostic(
                    "error",
                    "await-under-lock",
                    f"await inside async {owner} while holding sync "
                    f"lock(s) {held}; the lock is parked across "
                    f"arbitrary task interleavings",
                    path=module.path,
                    line=point.line,
                )
            )


@CONCURRENCY_PASSES.register(
    "asyncio-hygiene",
    "no blocking calls in async bodies; no await under a sync lock",
)
def check_asyncio_hygiene(facts: CodebaseFacts) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module in facts.modules:
        for cls in module.classes.values():
            for name, method in cls.methods.items():
                _check_function(module, f"{cls.name}.{name}", method, out)
        for name, function in module.functions.items():
            _check_function(module, name, function, out)
    return out
