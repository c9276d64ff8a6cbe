"""The wire protocol: newline-delimited JSON frames over TCP.

One request per line, one response per line, matched by ``id``::

    -> {"id": 1, "op": "solve", "params": {"source": "ann"}}
    <- {"id": 1, "ok": true, "result": {"source": "ann", "answers": [...]}}

    -> {"id": 2, "op": "bogus"}
    <- {"id": 2, "ok": false,
        "error": {"code": "bad_request", "message": "unknown op 'bogus'"}}

Responses may arrive out of request order — the server handles every
frame in its own task so that concurrent ``solve`` requests pipelined
on one connection still coalesce into shared batches.  Clients must
route responses by ``id`` (both shipped clients do).

Ops: ``ping``, ``solve``, ``solve_batch``, ``add_fact``, ``add_facts``,
``remove_fact``, ``remove_facts``, ``stats``, plus the cluster control
ops ``epoch``, ``apply_delta`` and ``load_snapshot`` that only the
:mod:`repro.cluster` servers implement.  The mutation ops answer
with the new ``db_version`` plus how many cached plans were maintained
in place vs invalidated.  Values (sources, answers, fact fields) are
JSON scalars;
tuples are encoded as JSON arrays and decoded back to tuples, so
integer and string constants round-trip exactly.  See
``docs/serving.md`` for the full specification.

Structured error codes are the serving layer's control surface:
``overloaded`` (admission control rejected the request — back off),
``deadline_exceeded`` (the request's deadline passed before an answer
was produced), ``shutting_down`` (graceful shutdown in progress),
``bad_request`` (malformed frame, unknown op, bad program text),
``unsafe_query`` (counting statically certified divergent),
``worker_failed`` (a cluster worker died mid-request after the front's
internal retries — idempotent solves may be retried), ``read_only``
(a mutation reached a worker replica instead of the cluster front) and
``internal``.  Each maps to an exception class here so client code can
``except OverloadedError`` instead of string-matching.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import ReproError

#: Hard cap on one frame's size; oversized frames fail the connection.
MAX_FRAME_BYTES = 1 << 20

#: Every operation the server dispatches.
OPS = (
    "ping",
    "solve",
    "solve_batch",
    "add_fact",
    "add_facts",
    "remove_fact",
    "remove_facts",
    "stats",
    # Cluster control plane (handled by repro.cluster servers; a plain
    # SolverServer answers them with a structured bad_request).
    "epoch",
    "apply_delta",
    "load_snapshot",
)

#: The ops a worker replica accepts only from its own cluster front
#: (authenticated by the spawn-time token).
CLUSTER_OPS = ("epoch", "apply_delta", "load_snapshot")

#: The idempotent ops clients may safely retry on worker failover.
IDEMPOTENT_OPS = ("ping", "solve", "solve_batch", "stats", "epoch")

ERROR_BAD_REQUEST = "bad_request"
ERROR_OVERLOADED = "overloaded"
ERROR_DEADLINE = "deadline_exceeded"
ERROR_SHUTTING_DOWN = "shutting_down"
ERROR_UNSAFE = "unsafe_query"
ERROR_INTERNAL = "internal"
ERROR_WORKER_FAILED = "worker_failed"
ERROR_READ_ONLY = "read_only"


class ServerError(ReproError):
    """A structured protocol-level error with a stable ``code``."""

    code = ERROR_INTERNAL

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class ProtocolError(ServerError):
    """Malformed frame, unknown op, or invalid parameters."""

    code = ERROR_BAD_REQUEST


class OverloadedError(ServerError):
    """Admission control rejected the request; the queue is full."""

    code = ERROR_OVERLOADED


class DeadlineExceededError(ServerError):
    """The request's deadline passed before an answer was produced."""

    code = ERROR_DEADLINE


class ShuttingDownError(ServerError):
    """The server is draining and no longer admits new requests."""

    code = ERROR_SHUTTING_DOWN


class WorkerFailedError(ServerError):
    """A cluster worker died while serving the request.

    Idempotent requests (``solve``/``solve_batch``) are safe to retry:
    the cluster front reshards and retries internally first, so a
    client only sees this code when the retry budget is exhausted —
    back off and retry once, the failover usually completes within a
    health-check interval.
    """

    code = ERROR_WORKER_FAILED


class ReadOnlyError(ServerError):
    """A mutation was sent to a read-only worker replica.

    Worker snapshots are mutated only through the cluster front's
    single-writer path (``apply_delta``/``load_snapshot``); clients
    must route ``add_fact``/``remove_fact`` traffic to the front.
    """

    code = ERROR_READ_ONLY


_ERROR_CLASSES = {
    cls.code: cls
    for cls in (
        ProtocolError,
        OverloadedError,
        DeadlineExceededError,
        ShuttingDownError,
        WorkerFailedError,
        ReadOnlyError,
        ServerError,
    )
}


def error_from_payload(payload: Dict[str, object]) -> ServerError:
    """Rehydrate a response's ``error`` object into the matching class."""
    code = str(payload.get("code", ERROR_INTERNAL))
    message = str(payload.get("message", ""))
    cls = _ERROR_CLASSES.get(code)
    if cls is None:
        error = ServerError(message)
        error.code = code
        return error
    return cls(message)


def error_for_exception(exc: BaseException) -> Tuple[str, str]:
    """Map a server-side exception to a ``(code, message)`` pair."""
    from ..errors import UnsafeQueryError

    if isinstance(exc, ServerError):
        return exc.code, str(exc)
    if isinstance(exc, UnsafeQueryError):
        return ERROR_UNSAFE, str(exc)
    if isinstance(exc, (ReproError, KeyError, TypeError, ValueError)):
        return ERROR_BAD_REQUEST, str(exc) or type(exc).__name__
    return ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"


# --- framing ----------------------------------------------------------------


def encode_frame(payload: Dict[str, object]) -> bytes:
    """One JSON object, compact, newline-terminated."""
    return json.dumps(payload, separators=(",", ":"), default=str).encode(
        "utf-8"
    ) + b"\n"


def decode_request(line: bytes) -> Dict[str, object]:
    """Parse and validate one request frame.

    Raises :class:`ProtocolError` on anything that is not a JSON object
    with a known string ``op`` and (when present) a dict ``params``.
    """
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError("frame is missing a string 'op'")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    return payload


def ok_response(request_id, result) -> Dict[str, object]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code: str, message: str) -> Dict[str, object]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# --- value encoding ---------------------------------------------------------
#
# Constants in the engine are strings, ints, or tuples of those
# (multi-position bound goals).  JSON has no tuple, so tuples travel as
# arrays and arrays decode back to tuples — lossless for every constant
# the Datalog layer produces.


def encode_value(value):
    if isinstance(value, tuple):
        return [encode_value(item) for item in value]
    return value


def decode_value(value):
    """Decode one wire value; a JSON object at any depth is refused.

    No constant is a mapping, and letting one through hands the layers
    below an unhashable "value" (the coalescer dedupes sources by
    hashing them).  A top-level ``null`` still decodes to ``None`` —
    callers read it as "field absent".
    """
    if isinstance(value, list):
        return tuple(decode_value(item) for item in value)
    if isinstance(value, dict):
        raise ProtocolError(
            "a value must be a JSON scalar or array, got an object"
        )
    return value


def encode_rows(rows: Iterable[Tuple]) -> List[List]:
    """Fact rows as a JSON array of arrays."""
    return [[encode_value(value) for value in row] for row in rows]


def decode_rows(raw, field: str = "tuples") -> List[Tuple]:
    """Fact rows off the wire; every row must be a JSON array.

    A string row would otherwise be iterated into a tuple of its
    characters and silently stored as a different fact.
    """
    if not isinstance(raw, list):
        raise ProtocolError(f"'{field}' must be a list of rows")
    for row in raw:
        if not isinstance(row, list):
            raise ProtocolError(
                f"every row of '{field}' must be a JSON array, got {row!r}"
            )
    return [decode_value(row) for row in raw]


def encode_answers(answers: FrozenSet) -> List:
    """A deterministic (sorted-by-repr) list of encoded answer values."""
    return [encode_value(value) for value in sorted(answers, key=repr)]


def decode_answers(values: Iterable) -> FrozenSet:
    return frozenset(decode_value(value) for value in values)


def encode_answer_map(answers: Dict[object, FrozenSet]) -> List[List]:
    """``{source: answers}`` as ``[[source, [answer, ...]], ...]`` —
    JSON object keys must be strings, so the map travels as pairs to
    keep non-string sources (ints, tuples) intact."""
    return [
        [encode_value(source), encode_answers(values)]
        for source, values in sorted(answers.items(), key=lambda kv: repr(kv[0]))
    ]


def decode_answer_map(pairs: Iterable) -> Dict[object, FrozenSet]:
    return {
        decode_value(source): decode_answers(values)
        for source, values in pairs
    }
