"""Client failover semantics against a scripted fake server.

The contract both clients must honor around cluster failover:

* idempotent ops (``solve``/``solve_batch``/``ping``/``stats``) retry
  exactly ``failover_retries`` times (default once) on a structured
  ``worker_failed`` error or a dead connection, redialling first when
  the transport died;
* mutations are NEVER retried — a reset after ``add_fact`` leaves the
  write's fate unknown and replay could double-apply it;
* once the budget is exhausted the typed error surfaces unchanged.
"""

import asyncio
import json
import socket
import threading
from collections import deque

import pytest

from repro.server import (
    AsyncSolverClient,
    SolverClient,
    WorkerFailedError,
)

OK_SOLVE = {"source": "a", "answers": ["a1"]}


class ScriptedServer:
    """A threaded fake server driven by a script of per-request actions.

    Actions: ``("ok", result)`` answers, ``("error", code)`` sends a
    structured error, ``("close",)`` drops the connection without
    answering.  Requests beyond the script get ``("ok", "pong")``.
    """

    def __init__(self, script):
        self.script = deque(script)
        self.ops = []
        #: ``(connection number, request id)`` of every frame read
        self.frames = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            self.connections += 1
            threading.Thread(
                target=self._handle,
                args=(conn, self.connections),
                daemon=True,
            ).start()

    def _handle(self, conn, number):
        handle = conn.makefile("rwb")
        try:
            while True:
                line = handle.readline()
                if not line:
                    return
                request = json.loads(line)
                self.ops.append(request["op"])
                self.frames.append((number, request["id"]))
                action = self.script.popleft() if self.script else (
                    "ok", "pong",
                )
                if action[0] == "close":
                    conn.shutdown(socket.SHUT_RDWR)
                    return
                if action[0] == "error":
                    payload = {
                        "id": request["id"],
                        "ok": False,
                        "error": {"code": action[1], "message": "scripted"},
                    }
                else:
                    payload = {
                        "id": request["id"],
                        "ok": True,
                        "result": action[1],
                    }
                handle.write(json.dumps(payload).encode("utf-8") + b"\n")
                handle.flush()
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()


class TestSyncFailover:
    def test_solve_retries_worker_failed_once(self):
        script = [("error", "worker_failed"), ("ok", OK_SOLVE)]
        with ScriptedServer(script) as server:
            with SolverClient(port=server.port) as client:
                assert client.solve("a") == frozenset({"a1"})
                assert client.retries == 1
            assert server.ops == ["solve", "solve"]

    def test_typed_error_after_budget_exhausted(self):
        script = [("error", "worker_failed")] * 3
        with ScriptedServer(script) as server:
            with SolverClient(port=server.port) as client:
                with pytest.raises(WorkerFailedError):
                    client.solve("a")
            # One attempt + exactly one retry, never a third.
            assert server.ops == ["solve", "solve"]

    def test_solve_reconnects_on_connection_reset(self):
        script = [("close",), ("ok", OK_SOLVE)]
        with ScriptedServer(script) as server:
            with SolverClient(port=server.port) as client:
                assert client.solve("a") == frozenset({"a1"})
                assert client.retries == 1
            assert server.connections == 2
            assert server.ops == ["solve", "solve"]

    def test_mutations_never_retry_worker_failed(self):
        script = [("error", "worker_failed")]
        with ScriptedServer(script) as server:
            with SolverClient(port=server.port) as client:
                with pytest.raises(WorkerFailedError):
                    client.add_fact("up", "x", "y")
            assert server.ops == ["add_fact"]

    def test_mutations_never_retry_connection_reset(self):
        script = [("close",)]
        with ScriptedServer(script) as server:
            with SolverClient(port=server.port) as client:
                with pytest.raises(ConnectionError):
                    client.add_fact("up", "x", "y")
            assert server.ops == ["add_fact"]
            assert server.connections == 1

    def test_failover_retries_zero_disables(self):
        script = [("error", "worker_failed"), ("ok", OK_SOLVE)]
        with ScriptedServer(script) as server:
            with SolverClient(port=server.port, failover_retries=0) as client:
                with pytest.raises(WorkerFailedError):
                    client.solve("a")
            assert server.ops == ["solve"]


class TestAsyncFailover:
    def test_solve_retries_worker_failed_once(self):
        script = [("error", "worker_failed"), ("ok", OK_SOLVE)]

        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            try:
                assert await client.solve("a") == frozenset({"a1"})
                assert client.retries == 1
            finally:
                await client.close()

        with ScriptedServer(script) as server:
            asyncio.run(main(server))
            assert server.ops == ["solve", "solve"]

    def test_typed_error_after_budget_exhausted(self):
        script = [("error", "worker_failed")] * 3

        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            try:
                with pytest.raises(WorkerFailedError):
                    await client.solve("a")
            finally:
                await client.close()

        with ScriptedServer(script) as server:
            asyncio.run(main(server))
            assert server.ops == ["solve", "solve"]

    def test_solve_reconnects_on_connection_reset(self):
        script = [("close",), ("ok", OK_SOLVE)]

        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            try:
                assert await client.solve("a") == frozenset({"a1"})
                assert client.retries == 1
            finally:
                await client.close()

        with ScriptedServer(script) as server:
            asyncio.run(main(server))
            assert server.connections == 2
            assert server.ops == ["solve", "solve"]

    def test_pipelined_requests_share_one_reconnect(self):
        # Both in-flight solves die with the connection; each retries,
        # but the redial is serialized — ONE new connection serves both.
        script = [("close",), ("ok", OK_SOLVE), ("ok", OK_SOLVE)]

        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            try:
                a, b = await asyncio.gather(
                    client.solve("a"), client.solve("a")
                )
                assert a == b == frozenset({"a1"})
                assert client.retries == 2
            finally:
                await client.close()

        with ScriptedServer(script) as server:
            asyncio.run(main(server))
            assert server.connections == 2

    def test_mutations_never_retry(self):
        script = [("error", "worker_failed")]

        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            try:
                with pytest.raises(WorkerFailedError):
                    await client.add_fact("up", "x", "y")
            finally:
                await client.close()

        with ScriptedServer(script) as server:
            asyncio.run(main(server))
            assert server.ops == ["add_fact"]

    def test_mutations_never_retry_connection_reset(self):
        script = [("close",)]

        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            try:
                with pytest.raises(ConnectionError):
                    await client.add_fact("up", "x", "y")
            finally:
                await client.close()

        with ScriptedServer(script) as server:
            asyncio.run(main(server))
            assert server.ops == ["add_fact"]
            assert server.connections == 1

    def test_closed_client_does_not_redial(self):
        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            await client.close()
            with pytest.raises(ConnectionError):
                await client.solve("a")

        with ScriptedServer([]) as server:
            asyncio.run(main(server))
            # No frame ever reached the server: the closed client
            # raised locally instead of redialling.
            assert server.ops == []


class RecordingWriter:
    """A stand-in ``StreamWriter``: records every ``write`` and, for each
    ``drain``, how many writes preceded it."""

    def __init__(self):
        self.writes = []
        self.drains = []
        self.closing = False

    def write(self, data):
        self.writes.append(data)

    async def drain(self):
        self.drains.append(len(self.writes))

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    async def wait_closed(self):
        pass


class TestAsyncOutbox:
    """The frames issued in one loop iteration leave in one write, each
    request awaits ``drain`` after it, and no frame is written twice."""

    def test_a_burst_leaves_in_one_write_and_each_request_drains(self):
        async def main():
            reader, writer = asyncio.StreamReader(), RecordingWriter()
            client = AsyncSolverClient(reader, writer)
            solves = asyncio.gather(
                *(client.solve(f"s{n}") for n in range(8))
            )
            while not writer.writes:
                await asyncio.sleep(0)
            assert len(writer.writes) == 1
            frames = [json.loads(line) for line in writer.writes[0].splitlines()]
            assert [f["params"]["source"] for f in frames] == [
                f"s{n}" for n in range(8)
            ]
            for frame in frames:
                source = frame["params"]["source"]
                reader.feed_data(
                    json.dumps(
                        {
                            "id": frame["id"],
                            "ok": True,
                            "result": {"source": source, "answers": [source]},
                        }
                    ).encode("utf-8")
                    + b"\n"
                )
            answers = await asyncio.wait_for(solves, timeout=10)
            assert answers == [frozenset({f"s{n}"}) for n in range(8)]
            assert len(writer.writes) == 1
            assert writer.drains == [1] * 8  # every drain after the write
            await client.close()

        asyncio.run(main())

    def test_a_frame_queued_for_a_dead_transport_fails_unwritten(self):
        async def main():
            reader, writer = asyncio.StreamReader(), RecordingWriter()
            client = AsyncSolverClient(reader, writer)
            solves = [
                asyncio.ensure_future(client.solve("a")) for _ in range(3)
            ]
            await asyncio.sleep(0)  # the requests queue their frames
            writer.closing = True  # and the transport dies before the write
            results = await asyncio.wait_for(
                asyncio.gather(*solves, return_exceptions=True), timeout=10
            )
            assert all(isinstance(r, ConnectionError) for r in results)
            assert writer.writes == [] and writer.drains == []
            await client.close()

        asyncio.run(main())

    def test_a_reconnect_never_resends_a_frame(self):
        # The first connection reads one frame of the burst and dies; the
        # rest of that write is lost with it.  Every request fails over
        # as a NEW frame on the one new connection.
        script = [("close",)] + [("ok", OK_SOLVE)] * 4

        async def main(server):
            client = await AsyncSolverClient.connect(port=server.port)
            try:
                answers = await asyncio.gather(
                    *(client.solve("a") for _ in range(4))
                )
                assert answers == [frozenset({"a1"})] * 4
                assert client.retries == 4
            finally:
                await client.close()

        with ScriptedServer(script) as server:
            asyncio.run(main(server))
            ids = [request_id for _number, request_id in server.frames]
            assert len(ids) == len(set(ids)) == 5
            assert [number for number, _id in server.frames] == [1] + [2] * 4
            assert server.connections == 2
