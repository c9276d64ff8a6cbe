"""Client libraries for the NDJSON serving protocol.

Two clients over one wire format and one operation table
(:class:`_Operations`: each op's request parameters and result decoder,
written once); a client adds only its transport:

* :class:`SolverClient` — synchronous, one blocking socket, one request
  in flight at a time.  The right tool for scripts, shells, and tests
  that drive the server from ordinary code;
* :class:`AsyncSolverClient` — asyncio, pipelines any number of
  concurrent requests on one connection and routes responses by ``id``.
  Twenty ``solve()`` coroutines fired together leave in one write and
  come back as one shared batch.

Both raise the structured protocol errors
(:class:`~repro.server.protocol.OverloadedError`,
:class:`~repro.server.protocol.DeadlineExceededError`, ...) so callers
implement backoff with ``except`` clauses, not string matching.

Both clients are also failover-aware: an **idempotent** request
(``ping``/``solve``/``solve_batch``/``stats``/``epoch``) that fails
with ``worker_failed`` (a cluster worker died mid-request) or a
connection reset is retried once — reconnecting first when the
transport died — before the typed error is re-raised.  Mutations are
NEVER retried: a reset after ``add_fact`` leaves the write's fate
unknown, and blind replay could double-apply it; callers must
reconcile via ``db_version`` instead.  Tune with
``failover_retries=0`` to disable.

``http_get`` / ``async_http_get`` fetch the operational endpoints
(``/health``, ``/metrics``) that live on the same port.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .protocol import (
    IDEMPOTENT_OPS,
    MAX_FRAME_BYTES,
    ProtocolError,
    WorkerFailedError,
    decode_answer_map,
    decode_answers,
    decode_value,
    encode_frame,
    encode_rows,
    encode_value,
    error_from_payload,
)


class _Operations:
    """The protocol's operations, each defined once as request
    parameters plus a result decoder over an abstract ``_call``.

    :class:`SolverClient` completes the call inline and returns the
    decoded result — the type each docstring names;
    :class:`AsyncSolverClient` returns an awaitable of it.  The async
    client's op methods are therefore plain functions returning the
    ``_call`` coroutine, not ``async def``: ``await client.solve(...)``
    works, ``asyncio.iscoroutinefunction(client.solve)`` is False.
    """

    def _call(
        self, op: str, params: Optional[Dict], decode: Callable[[Any], Any]
    ) -> Any:
        raise NotImplementedError

    def ping(self):
        """``bool``: True when the server answers."""
        return self._call("ping", None, lambda result: result == "pong")

    def solve(
        self,
        source=None,
        method: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        program: Optional[str] = None,
    ):
        """``FrozenSet`` of answers for one bound goal; rides a coalesced
        batch server-side."""
        return self._call(
            "solve",
            _solve_params(source, method, deadline_ms, program),
            lambda result: decode_answers(result["answers"]),
        )

    def solve_batch(
        self,
        sources: Iterable,
        method: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        program: Optional[str] = None,
    ):
        """``Dict[source, FrozenSet]``: the answer set of every source, as
        one explicit batch."""
        params = _solve_params(None, method, deadline_ms, program)
        params["sources"] = [encode_value(source) for source in sources]
        return self._call(
            "solve_batch",
            params,
            lambda result: decode_answer_map(result["answers"]),
        )

    def add_fact(self, name: str, *values):
        """Insert one fact; ``bool``: True when it was new."""
        return self._call(
            "add_fact",
            {"name": name, "values": [encode_value(v) for v in values]},
            lambda result: bool(result["added"]),
        )

    def add_facts(self, name: str, tuples: Iterable[Tuple]):
        """Bulk insert; ``int``: the number of new facts."""
        return self._call(
            "add_facts",
            {"name": name, "tuples": encode_rows(tuples)},
            lambda result: int(result["added"]),
        )

    def remove_fact(self, name: str, *values):
        """Delete one fact; ``bool``: True when it was present."""
        return self._call(
            "remove_fact",
            {"name": name, "values": [encode_value(v) for v in values]},
            lambda result: bool(result["removed"]),
        )

    def remove_facts(self, name: str, tuples: Iterable[Tuple]):
        """Bulk delete; ``int``: the number of facts that were present."""
        return self._call(
            "remove_facts",
            {"name": name, "tuples": encode_rows(tuples)},
            lambda result: int(result["removed"]),
        )

    def stats(self):
        """``Dict``: the server's metrics snapshot."""
        return self._call("stats", None, lambda result: result)


class SolverClient(_Operations):
    """Synchronous client: one socket, one request in flight."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = 30.0,
        failover_retries: int = 1,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.failover_retries = failover_retries
        self.retries = 0  #: lifetime count of failover retries taken
        self._ids = itertools.count(1)
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def _reconnect(self) -> None:
        try:
            self.close()
        except OSError:
            pass
        self._connect()

    # --- transport ------------------------------------------------------

    def request(self, op: str, params: Optional[Dict] = None):
        """One round trip; returns ``result`` or raises the mapped error.

        Idempotent ops get ``failover_retries`` extra attempts on
        ``worker_failed`` or a dead connection (reconnecting first);
        mutations fail fast — replaying a write whose fate is unknown
        could double-apply it.
        """
        budget = self.failover_retries if op in IDEMPOTENT_OPS else 0
        while True:
            try:
                return self._request_once(op, params)
            except WorkerFailedError:
                if budget <= 0:
                    raise
                budget -= 1
                self.retries += 1
            except ConnectionError:
                if budget <= 0:
                    raise
                budget -= 1
                self.retries += 1
                self._reconnect()

    def _request_once(self, op: str, params: Optional[Dict] = None):
        request_id = next(self._ids)
        frame = encode_frame(
            {"id": request_id, "op": op, "params": params or {}}
        )
        self._file.write(frame)
        self._file.flush()
        while True:
            line = self._file.readline(MAX_FRAME_BYTES)
            if not line:
                raise ConnectionError("server closed the connection")
            response = json.loads(line)
            # A sync client has one request outstanding, but tolerate
            # stray frames (e.g. a late response after a timeout).
            if response.get("id") == request_id:
                break
        if response.get("ok"):
            return response.get("result")
        raise error_from_payload(response.get("error", {}))

    def _call(self, op, params, decode):
        return decode(self.request(op, params))

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SolverClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self):
        return f"SolverClient({self.host}:{self.port})"


class AsyncSolverClient(_Operations):
    """Asyncio client: pipelines concurrent requests on one connection.

    The frames issued during one event-loop iteration leave in a single
    ``write`` at its end, so a burst — ``gather`` over N ``solve`` calls
    — reaches the server as one read and coalesces into one batch.
    Each request then awaits ``drain()``, so backpressure holds.  A
    frame is written at most once: one queued for a transport that died
    fails its request with :class:`ConnectionError` (which the failover
    policy may retry as a new request); the queue is never replayed.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        host: Optional[str] = None,
        port: Optional[int] = None,
        failover_retries: int = 1,
    ):
        """``host``/``port`` enable reconnect-on-failover; a client
        built from a bare stream pair cannot redial and only retries
        ``worker_failed`` responses (the connection is still alive)."""
        self._reader = reader
        self._writer = writer
        self._host = host
        self._port = port
        self.failover_retries = failover_retries
        self.retries = 0  # guarded-by: @loop
        self._closed = False  # guarded-by: @loop
        self._conn_lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}  # guarded-by: @loop
        # Frames issued this loop iteration, and the future their one
        # write resolves (None: nothing queued).
        self._outbox: List[bytes] = []  # guarded-by: @loop
        self._written: Optional[asyncio.Future] = None  # guarded-by: @loop
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        failover_retries: int = 1,
    ) -> "AsyncSolverClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES
        )
        return cls(
            reader,
            writer,
            host=host,
            port=port,
            failover_retries=failover_retries,
        )

    # --- transport ------------------------------------------------------

    async def _read_loop(self) -> None:
        error: Exception = ConnectionError("server closed the connection")
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is None or future.done():
                    continue
                if response.get("ok"):
                    future.set_result(response.get("result"))
                else:
                    future.set_exception(
                        error_from_payload(response.get("error", {}))
                    )
        except Exception as exc:  # noqa: BLE001 - forwarded to waiters
            error = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def request(self, op: str, params: Optional[Dict] = None):
        """One pipelined round trip, with the same failover policy as
        the sync client: idempotent ops retry ``worker_failed`` and
        dead connections (redialling when possible), mutations never.
        """
        budget = self.failover_retries if op in IDEMPOTENT_OPS else 0
        while True:
            try:
                return await self._request_once(op, params)
            except WorkerFailedError:
                if budget <= 0:
                    raise
                budget -= 1
                self.retries += 1
            except ConnectionError:
                if budget <= 0 or self._closed or self._host is None:
                    raise
                budget -= 1
                self.retries += 1
                await self._ensure_connected()

    async def _request_once(self, op: str, params: Optional[Dict] = None):
        if self._closed:
            raise ConnectionError("client is closed")
        if self._reader_task.done():
            raise ConnectionError("server closed the connection")
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            await self._send(
                encode_frame(
                    {"id": request_id, "op": op, "params": params or {}}
                )
            )
            await self._writer.drain()
            return await future
        finally:
            self._pending.pop(request_id, None)
            _forget(future)

    def _send(self, frame: bytes) -> asyncio.Future:
        """Queue ``frame`` for this iteration's write; the future
        resolves once it is written (shielded: a cancelled request does
        not cancel its neighbours' write)."""
        if self._written is None:
            loop = asyncio.get_running_loop()
            self._written = loop.create_future()
            loop.call_soon(self._write_outbox)
        self._outbox.append(frame)
        return asyncio.shield(self._written)

    def _write_outbox(self) -> None:
        frames, self._outbox = self._outbox, []
        written, self._written = self._written, None
        if self._reader_task.done() or self._writer.is_closing():
            written.set_exception(
                ConnectionError("server closed the connection")
            )
            written.exception()  # raised to every awaiter, logged by none
        else:
            self._writer.write(b"".join(frames))
            written.set_result(None)

    async def _call(self, op, params, decode):
        return decode(await self.request(op, params))

    async def _ensure_connected(self) -> None:
        """Redial after the transport died.  Serialized so concurrent
        retries of pipelined requests share ONE reconnect."""
        async with self._conn_lock:
            if self._closed:
                raise ConnectionError("client is closed")
            if not self._reader_task.done():
                return  # a sibling retry already reconnected
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            reader, writer = await asyncio.open_connection(
                self._host, self._port, limit=MAX_FRAME_BYTES
            )
            self._reader = reader
            self._writer = writer
            self._reader_task = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "AsyncSolverClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


def _forget(future: asyncio.Future) -> None:
    """Drop a response nobody awaits any more: cancel it if unsettled,
    and mark an error it already holds as seen."""
    if not future.cancel() and not future.cancelled():
        future.exception()


def _solve_params(source, method, deadline_ms, program) -> Dict[str, object]:
    params: Dict[str, object] = {}
    if source is not None:
        params["source"] = encode_value(source)
    if method is not None:
        params["method"] = method
    if deadline_ms is not None:
        params["deadline_ms"] = deadline_ms
    if program is not None:
        params["program"] = program
    return params


# --- the HTTP operational surface ------------------------------------------


def _parse_http(data: bytes):
    head, _sep, body = data.partition(b"\r\n\r\n")
    try:
        status = int(head.split(None, 2)[1])
    except (IndexError, ValueError) as exc:
        raise ProtocolError(f"malformed HTTP response: {head[:80]!r}") from exc
    payload = json.loads(body) if body else None
    return status, payload


def http_get(
    host: str, port: int, path: str, timeout: float = 10.0
) -> Tuple[int, object]:
    """Fetch ``/health`` or ``/metrics``; returns (status, parsed JSON)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("ascii")
        )
        chunks: List[bytes] = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _parse_http(b"".join(chunks))


async def async_http_get(
    host: str, port: int, path: str
) -> Tuple[int, object]:
    """Asyncio twin of :func:`http_get` for use inside the event loop."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return _parse_http(data)
