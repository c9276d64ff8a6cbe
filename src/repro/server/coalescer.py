"""Request coalescing: micro-batch concurrent solves into shared batches.

The paper's economics one level up: :class:`~repro.service.SolverService`
already amortizes the reachability sweep and the ``P_M`` fixpoint across
the sources of one batch, so *concurrent network clients* asking for
sources of the same query shape should ride in one batch too.  Every
request for the same ``(program, method)`` group that arrives while the
group is open joins its batch, and one ``solve_batch`` call answers
them all — N clients pay one shared sweep instead of N.

A group closes on evidence, not on a clock:

* opened while nothing is queued or executing (``pending == 0``), it is
  flushed at the first event-loop iteration in which no request joined
  it.  Every frame already read off a socket is handed to the
  coalescer within one iteration, so a burst a client wrote at once —
  a pipelined wave — is one batch, and a lone caller is not held at
  all;
* opened while a batch is queued or executing, it is held for the
  **window** (default 5 ms), so requests that arrive under load still
  share a sweep.

Either way the window is the longest a request is held, and
``max_batch`` flushes a group as soon as it is full.

Three serving guarantees live here, not in the transport:

* **admission control** — at most ``max_pending`` requests may be
  queued or executing; request N+1 is rejected immediately with
  :class:`OverloadedError` (a structured ``overloaded`` response on the
  wire), never queued unboundedly;
* **deadlines** — a request with a deadline that expires while waiting
  is dropped from its batch (its waiter gets
  :class:`DeadlineExceededError`); a source wanted only by expired
  requests is not executed at all.  Cancellation is cooperative at
  batch boundaries: a batch already running is not interrupted;
* **draining** — :meth:`drain` flushes every open window immediately,
  awaits the in-flight batches (window flushes AND explicit
  :meth:`submit_batch` runs — both are tracked), and rejects new
  arrivals with :class:`ShuttingDownError`, which is exactly the
  graceful-shutdown sequence the server needs.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple

from .protocol import (
    DeadlineExceededError,
    OverloadedError,
    ShuttingDownError,
)

#: ``execute(key, sources) -> {source: frozenset}`` — the coalescer is
#: transport- and engine-agnostic; the server supplies the callable.
ExecuteFn = Callable[[object, List], Awaitable[Dict[object, frozenset]]]


class _Group:
    """One open coalescing window: entries waiting for a flush."""

    __slots__ = ("key", "entries", "timer", "closes")

    def __init__(self, key, closes: float):
        self.key = key
        self.entries: List[Tuple[object, asyncio.Future]] = []
        #: the pending flush: a quiet-iteration check or the window
        self.timer: Optional[asyncio.Handle] = None
        #: loop time at which the window ends
        self.closes = closes


class RequestCoalescer:
    """Micro-batches concurrent requests per ``(program, method)`` group."""

    def __init__(
        self,
        execute: ExecuteFn,
        window: float = 0.005,
        max_batch: int = 64,
        max_pending: int = 256,
    ):
        if window < 0:
            raise ValueError("coalescing window must be >= 0")
        if max_batch < 1 or max_pending < 1:
            raise ValueError("max_batch and max_pending must be >= 1")
        self._execute = execute
        self.window = window
        self.max_batch = max_batch
        self.max_pending = max_pending
        self._groups: Dict[object, _Group] = {}  # guarded-by: @loop
        self._flushes: Set[asyncio.Task] = set()  # guarded-by: @loop
        self._draining = False  # guarded-by: @loop
        self.pending = 0  # guarded-by: @loop
        # Lifetime counters, surfaced on /metrics.  Everything above and
        # below is event-loop-confined: the coalescer is called only
        # from coroutines and loop callbacks, never from worker threads.
        self.requests = 0  # guarded-by: @loop
        self.batches = 0  # guarded-by: @loop
        self.coalesced = 0  # guarded-by: @loop
        self.largest_batch = 0  # guarded-by: @loop
        self.overloaded = 0  # guarded-by: @loop
        self.expired = 0  # guarded-by: @loop
        # groups opened on an idle coalescer: flushed when quiet, not held
        self.immediate = 0  # guarded-by: @loop

    # --- admission ------------------------------------------------------

    def _admit(self, slots: int) -> None:
        if self._draining:
            raise ShuttingDownError("server is draining; request rejected")
        if self.pending + slots > self.max_pending:
            self.overloaded += 1
            raise OverloadedError(
                f"pending queue full ({self.pending}/{self.max_pending}); "
                "retry with backoff"
            )

    # --- the coalesced path --------------------------------------------

    async def submit(self, key, source, deadline: Optional[float] = None):
        """Queue one source under ``key``; returns its answer set.

        ``deadline`` is seconds from now (None = no deadline).  The
        request waits at most one window before its batch runs; it rides
        an earlier flush when the group hits ``max_batch``, or when the
        group opened on an idle coalescer and a loop iteration passes
        that brings it nobody new.
        """
        self._admit(1)
        if deadline is not None and deadline <= 0:
            self.expired += 1
            raise DeadlineExceededError("deadline expired before admission")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        group = self._groups.get(key)
        if group is None:
            group = _Group(key, loop.time() + self.window)
            self._groups[key] = group
            if self.pending == 0:
                self.immediate += 1
                group.timer = loop.call_soon(self._flush_when_quiet, group, 1)
            else:
                group.timer = loop.call_later(self.window, self._flush, key)
        group.entries.append((source, future))
        self.requests += 1
        self.pending += 1
        if len(group.entries) >= self.max_batch:
            self._flush(key)
        try:
            if deadline is None:
                return await future
            try:
                return await asyncio.wait_for(future, deadline)
            except asyncio.TimeoutError:
                # wait_for cancelled the future, so the flush skips this
                # entry — cooperative cancellation at the batch boundary.
                self.expired += 1
                raise DeadlineExceededError(
                    f"deadline of {deadline * 1000:.0f}ms exceeded"
                ) from None
        finally:
            self.pending -= 1

    # --- the explicit-batch path ---------------------------------------

    async def submit_batch(
        self, key, sources: List, deadline: Optional[float] = None
    ) -> Dict[object, frozenset]:
        """Run an explicit multi-source batch, bypassing the window but
        sharing admission control and the execution path.

        Each source takes one admission slot, so a huge explicit batch
        cannot starve coalesced traffic past ``max_pending``.
        """
        slots = max(1, len(sources))
        self._admit(slots)
        if deadline is not None and deadline <= 0:
            self.expired += 1
            raise DeadlineExceededError("deadline expired before admission")
        self.requests += slots
        self.pending += slots
        self.batches += 1
        self.largest_batch = max(self.largest_batch, len(sources))
        try:
            task = asyncio.ensure_future(self._execute(key, list(sources)))
            # Tracked like a window flush: drain() must hold shutdown
            # open until this batch answers too, or a SIGTERM with a
            # short grace would drop an accepted explicit batch that is
            # mid-fixpoint on the worker pool.
            self._flushes.add(task)
            task.add_done_callback(self._flushes.discard)
            if deadline is None:
                return await task
            try:
                return await asyncio.wait_for(asyncio.shield(task), deadline)
            except asyncio.TimeoutError:
                # The batch keeps running on its worker thread (it
                # cannot be interrupted mid-fixpoint); consume its
                # eventual result so nothing warns about it.
                task.add_done_callback(_swallow_result)
                self.expired += 1
                raise DeadlineExceededError(
                    f"deadline of {deadline * 1000:.0f}ms exceeded"
                ) from None
        finally:
            self.pending -= slots

    # --- flushing -------------------------------------------------------

    def _flush_when_quiet(self, group: _Group, joined: int) -> None:
        """Look at ``group`` again one loop iteration later while requests
        keep joining it (it had ``joined`` entries at the last look) and
        its window is open; flush it otherwise."""
        grown = len(group.entries) > joined
        loop = asyncio.get_running_loop()
        if grown and loop.time() < group.closes:
            group.timer = loop.call_soon(
                self._flush_when_quiet, group, len(group.entries)
            )
        else:
            self._flush(group.key)

    def _flush(self, key) -> None:
        """Close the window for ``key`` and start its batch."""
        group = self._groups.pop(key, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
        task = asyncio.ensure_future(self._run_batch(group))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _run_batch(self, group: _Group) -> None:
        # Entries whose future is already done were cancelled by their
        # deadline; drop them, and dedupe sources so M requests for one
        # source cost one slot in the batch.
        entries = [
            (source, future)
            for source, future in group.entries
            if not future.done()
        ]
        if not entries:
            return
        try:
            # Deduping hashes the sources: an unhashable one must fail
            # this window's waiters like any execution error — raised
            # outside the try it would kill the task and strand them.
            sources = list(dict.fromkeys(source for source, _future in entries))
            self.batches += 1
            self.coalesced += len(entries)
            self.largest_batch = max(self.largest_batch, len(sources))
            by_source = await self._outcomes(group.key, sources)
            outcomes = [by_source[source] for source, _future in entries]
        except Exception as exc:  # noqa: BLE001 - forwarded to every waiter
            outcomes = [exc] * len(entries)
        for (source, future), outcome in zip(entries, outcomes):
            if future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome.get(source, frozenset()))

    async def _outcomes(self, key, sources: List) -> Dict[object, object]:
        """``{source: the answer map of the batch that served it, or the
        exception its waiters are owed}`` for one window's sources."""
        try:
            return dict.fromkeys(sources, await self._execute(key, sources))
        except Exception as exc:  # noqa: BLE001 - forwarded to the waiters
            if len(sources) == 1:
                return {sources[0]: exc}
        # A window mixes callers, and a batch fails as a whole (one
        # certified-unsafe counting source refuses all of it): rerun each
        # source as its own batch, so a waiter gets its own answer or its
        # own error, never a neighbour's.
        self.batches += len(sources)
        alone = await asyncio.gather(
            *(self._execute(key, [source]) for source in sources),
            return_exceptions=True,
        )
        return dict(zip(sources, alone))

    # --- shutdown -------------------------------------------------------

    async def drain(self) -> None:
        """Reject new arrivals, flush every open window, await batches."""
        self._draining = True
        for key in list(self._groups):
            self._flush(key)
        while self._flushes:
            await asyncio.gather(*list(self._flushes), return_exceptions=True)

    # --- reporting ------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "window_ms": self.window * 1000.0,
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
            "pending": self.pending,
            "open_windows": len(self._groups),
            "requests": self.requests,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "largest_batch": self.largest_batch,
            "overloaded": self.overloaded,
            "expired": self.expired,
            "immediate": self.immediate,
        }

    def __repr__(self):
        return (
            f"RequestCoalescer(window={self.window * 1000:.1f}ms, "
            f"pending={self.pending}/{self.max_pending}, "
            f"batches={self.batches})"
        )


def _swallow_result(task: asyncio.Task) -> None:
    if not task.cancelled():
        task.exception()
