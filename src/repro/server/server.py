"""The asyncio network server over one :class:`SolverService`.

One TCP listener speaks both protocols: connections whose first line is
an NDJSON frame enter the request loop, connections whose first line is
an HTTP request line get the minimal operational surface (``GET
/health``, ``GET /metrics``) and are closed — no second port, no HTTP
dependency.

Every NDJSON frame is handled in its own task, so ``solve`` requests
pipelined on a single connection coalesce into shared batches exactly
like requests from separate connections (responses are matched by
``id``, not by order).  Batch execution runs on a small thread pool —
the engine is synchronous CPU-bound Python — while the event loop keeps
accepting, coalescing, and timing out requests; the
:class:`~repro.service.SolverService` locks added for this layer make
the overlap safe.

Shutdown (:meth:`SolverServer.stop`) is graceful by construction:
close the listener (stop accepting), drain the coalescer (open windows
flush immediately, in-flight batches complete, their waiters get
answers), give connection handlers a grace period to write the queued
responses, then close the transports and the worker pool.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..datalog.parser import parse_program
from ..datalog.program import Program
from ..service import SolverService, target_fingerprint
from ..service.metrics import LatencyHistogram
from ..service.service import ADAPTIVE, BATCH_METHODS, _target_source
from .coalescer import RequestCoalescer
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_request,
    decode_rows,
    decode_value,
    encode_answer_map,
    encode_answers,
    encode_frame,
    encode_value,
    error_for_exception,
    error_response,
    ok_response,
)

_PROGRAM_CACHE_LIMIT = 64


@dataclass(frozen=True)
class ServedProgram:
    """A resolved program, as a coalescing window is keyed by it.

    Equality and hash are the ``key``'s, so requests for one program
    share a window; the window executes the ``program`` (and a cluster
    front forwards the ``text``) it was admitted with — nothing is
    looked up again at flush time, when the parse cache may have moved
    on.
    """

    key: str
    program: Program = field(compare=False)
    #: Source text — what the cluster front forwards to workers so both
    #: sides agree on the key for one program.
    text: str = field(compare=False)


class SolverServer:
    """Serve a :class:`SolverService` over NDJSON/TCP with coalescing."""

    def __init__(
        self,
        service: SolverService,
        program: Optional[Program] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        window_ms: float = 5.0,
        max_batch: int = 64,
        max_pending: int = 256,
        default_deadline_ms: Optional[float] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        executor_workers: int = 2,
    ):
        """``program`` is the default query shape served to requests
        that do not carry their own ``program`` text; ``port=0`` binds
        an ephemeral port (read it back from ``self.port`` after
        :meth:`start`).  ``window_ms`` is the coalescing window (the
        longest a request is held; see :mod:`repro.server.coalescer`),
        ``max_pending`` the admission-control bound, and
        ``default_deadline_ms`` the deadline applied to requests that
        do not set one (None = wait forever)."""
        self.service = service
        self.host = host
        self.port = port
        self.default_deadline_ms = default_deadline_ms
        self.max_frame_bytes = max_frame_bytes
        self.coalescer = RequestCoalescer(
            self._execute_batch,
            window=window_ms / 1000.0,
            max_batch=max_batch,
            max_pending=max_pending,
        )
        #: Parse cache of wire programs; dropping an entry is always safe.
        self._programs: Dict[str, ServedProgram] = {}  # guarded-by: @loop
        self._default: Optional[ServedProgram] = None
        if program is not None:
            self._default = ServedProgram(
                target_fingerprint(program), program, str(program)
            )
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-batch"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()  # guarded-by: @loop
        self._writers: Set[asyncio.StreamWriter] = set()  # guarded-by: @loop
        self._inflight_frames = 0  # guarded-by: @loop
        self._stopping = False  # guarded-by: @loop
        # Lifetime counters, surfaced on /metrics.  All of them are
        # event-loop-confined (mutated only from coroutines), so they
        # need no lock; request_latency has its own because the summary
        # may be read from other threads via metrics_snapshot callers.
        self.request_latency = LatencyHistogram()
        self.connections = 0  # guarded-by: @loop
        self.http_requests = 0  # guarded-by: @loop
        self.requests = 0  # guarded-by: @loop
        self.responses = 0  # guarded-by: @loop
        self.errors = 0  # guarded-by: @loop
        self.error_codes: Dict[str, int] = {}  # guarded-by: @loop

    # --- lifecycle ------------------------------------------------------

    async def start(self) -> "SolverServer":
        """Bind and start accepting; resolves the ephemeral port."""
        self._server = await asyncio.start_server(
            self._on_connection,
            self.host,
            self.port,
            limit=self.max_frame_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, grace: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain, close.

        In-flight requests (queued in a coalescing window or executing
        on the worker pool) are answered; requests arriving during the
        drain get a structured ``shutting_down`` error.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping = True
        await self.coalescer.drain()
        # The drained futures resolve waiters on other tasks; give the
        # frame handlers the grace period to write their responses.
        deadline = time.monotonic() + grace
        while self._inflight_frames and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=grace)
        self._executor.shutdown(wait=False)

    def run(self) -> int:
        """Blocking convenience for the CLI: serve until SIGINT/SIGTERM."""
        try:
            return asyncio.run(self._serve_until_signalled())
        except KeyboardInterrupt:  # pragma: no cover - signal fallback
            return 0

    async def _serve_until_signalled(self) -> int:
        await self.start()
        print(
            f"repro server listening on {self.host}:{self.port} "
            f"(window {self.coalescer.window * 1000:.1f}ms, "
            f"max pending {self.coalescer.max_pending})",
            file=sys.stderr,
        )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop_event.wait()
        finally:
            print(
                "shutting down: draining in-flight batches", file=sys.stderr
            )
            await self.stop()
        return 0

    # --- connection handling -------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self.connections += 1
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        frame_tasks: Set[asyncio.Task] = set()
        try:
            line = await reader.readline()
            if line and line.split(None, 1)[:1] in ([b"GET"], [b"HEAD"]):
                await self._handle_http(line, reader, writer)
                return
            while line:
                if line.strip():
                    frame = asyncio.ensure_future(
                        self._handle_frame(line, writer, write_lock)
                    )
                    frame_tasks.add(frame)
                    frame.add_done_callback(frame_tasks.discard)
                line = await reader.readline()
        except ValueError:
            # readline() overran the frame limit; the stream cannot be
            # re-synchronized, so report and drop the connection.
            await self._send(
                writer,
                error_response(
                    None,
                    "bad_request",
                    f"frame exceeds {self.max_frame_bytes} bytes",
                ),
                write_lock,
            )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if frame_tasks:
                await asyncio.gather(*frame_tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_frame(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        started = time.perf_counter()
        self.requests += 1
        self._inflight_frames += 1
        request_id = None
        try:
            try:
                request = decode_request(line)
                request_id = request.get("id")
                result = await self._dispatch(request)
                payload = ok_response(request_id, result)
            except Exception as exc:  # noqa: BLE001 - reported on the wire
                code, message = error_for_exception(exc)
                self.errors += 1
                self.error_codes[code] = self.error_codes.get(code, 0) + 1
                payload = error_response(request_id, code, message)
            await self._send(writer, payload, write_lock)
            self.responses += 1
        finally:
            self._inflight_frames -= 1
            self.request_latency.observe(time.perf_counter() - started)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        payload: Dict[str, object],
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            async with write_lock:
                writer.write(encode_frame(payload))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # --- dispatch -------------------------------------------------------

    async def _dispatch(self, request: Dict[str, object]):
        op = request["op"]
        params = request.get("params", {})
        if op == "ping":
            return "pong"
        if op == "stats":
            return self.metrics_snapshot()
        if op == "add_fact":
            name, values = _fact_params(params)
            result = await self._mutate(inserts={name: [tuple(values)]})
            return {"added": bool(result.changed), **_mutation_fields(result)}
        if op == "add_facts":
            name, rows = _rows_params(params)
            result = await self._mutate(inserts={name: rows})
            return {"added": result.changed, **_mutation_fields(result)}
        if op == "remove_fact":
            name, values = _fact_params(params)
            result = await self._mutate(deletes={name: [tuple(values)]})
            return {
                "removed": bool(result.changed),
                **_mutation_fields(result),
            }
        if op == "remove_facts":
            name, rows = _rows_params(params)
            result = await self._mutate(deletes={name: rows})
            return {"removed": result.changed, **_mutation_fields(result)}
        if op == "solve":
            return await self._solve(params)
        if op == "solve_batch":
            return await self._solve_batch(params)
        raise ProtocolError(
            f"op {op!r} is not served here (cluster control ops are "
            "answered only by repro.cluster processes)"
        )

    async def _mutate(self, inserts=None, deletes=None):
        """The single write path behind the four mutation ops.

        Overridable: the cluster front replaces this with its
        replicated single-writer protocol (apply locally, broadcast the
        delta, reconcile stale workers); a worker replica overrides it
        to reject client mutations with ``read_only``.
        """
        return self.service.mutate(inserts=inserts, deletes=deletes)

    async def _solve(self, params: Dict[str, object]):
        served, method, deadline = self._serve_params(params)
        source = decode_value(params.get("source"))
        if source is None:
            source = _target_source(served.program)
        if source is None:
            raise ProtocolError(
                "solve needs a 'source' (the program goal has no bound "
                "constant to default to)"
            )
        answers = await self.coalescer.submit(
            (served, method), source, deadline
        )
        return {
            "source": encode_value(source),
            "answers": encode_answers(answers),
        }

    async def _solve_batch(self, params: Dict[str, object]):
        served, method, deadline = self._serve_params(params)
        raw = params.get("sources")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("'sources' must be a non-empty list")
        sources = [decode_value(source) for source in raw]
        answers = await self.coalescer.submit_batch(
            (served, method), sources, deadline
        )
        return {"answers": encode_answer_map(answers)}

    def _serve_params(self, params: Dict[str, object]):
        method = params.get("method", ADAPTIVE)
        if method not in BATCH_METHODS:
            raise ProtocolError(
                f"unknown method {method!r}; expected one of "
                f"{', '.join(BATCH_METHODS)}"
            )
        deadline_ms = params.get("deadline_ms", self.default_deadline_ms)
        deadline = None
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)):
                raise ProtocolError("'deadline_ms' must be a number")
            deadline = deadline_ms / 1000.0
        return self._resolve_program(params.get("program")), method, deadline

    def _resolve_program(self, text) -> ServedProgram:
        if text is None:
            if self._default is None:
                raise ProtocolError(
                    "server has no default program; pass 'program' text"
                )
            return self._default
        if not isinstance(text, str):
            raise ProtocolError("'program' must be Datalog source text")
        key = f"wire:{hash_text(text)}"
        served = self._programs.get(key)
        if served is None:
            served = ServedProgram(key, _parse_wire_program(text), text)
            if len(self._programs) >= _PROGRAM_CACHE_LIMIT:
                # Everything here can reparse, and an open window holds
                # its own entry, not this cache's.
                self._programs.clear()
            self._programs[key] = served
        return served

    # --- execution ------------------------------------------------------

    async def _execute_batch(self, key, sources):
        """The coalescer's execute hook: one solve_batch per flush, run
        on the worker pool so the event loop stays responsive."""
        served, method = key
        # Bind the CURRENT service before handing off: a cluster
        # worker's load_snapshot that lands mid-execution must not
        # switch a running batch to the new state halfway through.
        service = self.service
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            self._executor,
            lambda: service.solve_batch(served.program, sources, method=method),
        )
        return result.answers

    # --- HTTP operational surface --------------------------------------

    async def _handle_http(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.http_requests += 1
        try:
            http_method, path = first_line.decode("ascii").split()[:2]
        except (UnicodeDecodeError, ValueError):
            await _http_reply(writer, 400, {"error": "malformed request"})
            return
        # Drain the header block; the endpoints take no body.
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        if http_method != "GET":
            await _http_reply(writer, 405, {"error": "method not allowed"})
        elif path == "/health":
            await _http_reply(writer, 200, self.health_payload())
        elif path == "/metrics":
            await _http_reply(writer, 200, self.metrics_snapshot())
        else:
            await _http_reply(writer, 404, {"error": f"no route {path}"})

    # --- reporting ------------------------------------------------------

    def health_payload(self) -> Dict[str, object]:
        """The ``GET /health`` body.  Overridable: the cluster front
        aggregates worker liveness into this report."""
        return {
            "status": "draining" if self._stopping else "ok",
            "db_version": self.service.db_version,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The full serving picture: transport, coalescer, and service
        counters (including batch latency percentiles) in one report."""
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "draining": self._stopping,
                "connections": self.connections,
                "open_connections": len(self._writers),
                "requests": self.requests,
                "responses": self.responses,
                "errors": self.errors,
                "error_codes": dict(self.error_codes),
                "http_requests": self.http_requests,
                "latency_ms": self.request_latency.summary(),
            },
            "coalescer": self.coalescer.stats(),
            "service": self.service.stats(),
        }

    def __repr__(self):
        return (
            f"SolverServer({self.host}:{self.port}, "
            f"requests={self.requests}, coalescer={self.coalescer!r})"
        )


def _required_str(params: Dict[str, object], field: str) -> str:
    value = params.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"'{field}' must be a non-empty string")
    return value


def _fact_params(params: Dict[str, object]):
    name = _required_str(params, "name")
    raw = params.get("values")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'values' must be a non-empty list")
    return name, [decode_value(value) for value in raw]


def _rows_params(params: Dict[str, object]):
    name = _required_str(params, "name")
    return name, decode_rows(params.get("tuples"))


def _mutation_fields(result) -> Dict[str, object]:
    """The shared response tail of the four mutation ops."""
    return {
        "db_version": result.db_version,
        "plans_maintained": result.plans_maintained,
        "plans_invalidated": result.plans_invalidated,
        "maintenance": dict(result.maintenance),
    }


def hash_text(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _parse_wire_program(text: str) -> Program:
    """Parse request-supplied program text into a rule-only Program.

    Ground facts are rejected rather than silently merged — the EDB is
    owned by the server's database and mutated only through the
    ``add_fact``/``add_facts`` ops, so a fact smuggled in program text
    would be invisible to cache invalidation.
    """
    program = parse_program(text)
    facts = [rule for rule in program.rules if rule.is_fact]
    if facts:
        raise ProtocolError(
            f"program text contains {len(facts)} ground fact(s); the EDB "
            "is server-owned — use the add_fact/add_facts ops instead"
        )
    if program.query is None:
        raise ProtocolError("program text needs a ?- goal")
    return program


async def _http_reply(
    writer: asyncio.StreamWriter, status: int, body: Dict[str, object]
) -> None:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               405: "Method Not Allowed"}
    payload = json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {reasons.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    try:
        writer.write(head.encode("ascii") + payload)
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass


class ServerThread:
    """Run a :class:`SolverServer` on a dedicated event-loop thread.

    The bridge for synchronous callers — tests, the sync client
    examples, benchmark harnesses — that want a live server without
    adopting asyncio themselves::

        with ServerThread(SolverServer(service, program)) as server:
            client = SolverClient(port=server.port)
            ...

    ``__exit__`` performs the full graceful shutdown (drain, close).
    """

    def __init__(self, server: SolverServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> SolverServer:
        ready = threading.Event()
        failure: list = []

        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except Exception as exc:  # pragma: no cover - bind failures
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=10):
            raise RuntimeError("server thread failed to start in time")
        if failure:
            raise failure[0]
        return self.server

    def stop(self, grace: float = 5.0) -> None:
        if self._loop is None or self._loop.is_closed():
            return  # never started, or already stopped
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(grace=grace), self._loop
        )
        future.result(timeout=grace + 10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> SolverServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
