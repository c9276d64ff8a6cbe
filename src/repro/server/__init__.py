"""The network serving layer: asyncio NDJSON/TCP over a SolverService.

Public surface::

    from repro.server import SolverServer, ServerThread, SolverClient

    service = SolverService(database)
    server = SolverServer(service, program, window_ms=5)
    with ServerThread(server) as live:
        with SolverClient(port=live.port) as client:
            client.solve("ann")          # rides a coalesced batch
            client.solve_batch(["a", "b"])
            client.add_fact("up", "x", "y")

Concurrent ``solve`` requests that arrive together (a burst, or within
the coalescing window while a batch runs) are answered by ONE
``solve_batch`` call — the shared reachability sweep and ``P_M``
fixpoint are paid once per batch, not once per connection.  Admission control bounds the pending queue (structured
``overloaded`` errors, never unbounded queuing), per-request deadlines
expire cooperatively at batch boundaries, and shutdown drains in-flight
batches before closing.  ``GET /health`` and ``GET /metrics`` answer on
the same port.

See ``docs/serving.md`` for the protocol specification and operational
notes, and DESIGN.md ("Network serving") for the architecture.
"""

from .client import (
    AsyncSolverClient,
    SolverClient,
    async_http_get,
    http_get,
)
from .coalescer import RequestCoalescer
from .protocol import (
    CLUSTER_OPS,
    MAX_FRAME_BYTES,
    OPS,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ReadOnlyError,
    ServerError,
    ShuttingDownError,
    WorkerFailedError,
    decode_request,
    encode_frame,
)
from .server import ServerThread, SolverServer

__all__ = [
    "CLUSTER_OPS",
    "MAX_FRAME_BYTES",
    "OPS",
    "AsyncSolverClient",
    "DeadlineExceededError",
    "OverloadedError",
    "ProtocolError",
    "ReadOnlyError",
    "RequestCoalescer",
    "ServerError",
    "ServerThread",
    "ShuttingDownError",
    "SolverClient",
    "SolverServer",
    "WorkerFailedError",
    "async_http_get",
    "decode_request",
    "encode_frame",
    "http_get",
]
