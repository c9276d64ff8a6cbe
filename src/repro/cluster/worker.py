"""The cluster worker: a read-only replica serving one EDB snapshot.

A :class:`ClusterWorkerServer` is a :class:`~repro.server.SolverServer`
with the write path replaced by the cluster control plane:

* client mutations are refused with a structured ``read_only`` error —
  worker state changes only through the front's single-writer path;
* ``apply_delta`` applies one versioned fact delta (the front's PR-6
  maintenance broadcast): the worker checks the delta's ``parent``
  epoch against its own and answers ``{"stale": true}`` on a mismatch
  instead of applying a delta to the wrong state — the front then
  resynchronizes it with a fresh snapshot;
* ``load_snapshot`` swaps in a NEW :class:`SolverService` built from a
  snapshot file.  The swap is a single reference assignment: solves
  already executing keep the service object they started with and
  finish on the old snapshot; every request admitted afterwards sees
  the new epoch.  That is the cluster's invalidation protocol — workers
  pull state, the front never blocks reads on replication.

Both control ops authenticate with the spawn-time fleet token, so a
stray client on the loopback port cannot rewrite a replica.

:func:`worker_main` is the process-backend entrypoint: spawned via
``multiprocessing`` (spawn context), it builds the service from the
snapshot, warms the plan cache, reports its ephemeral port back
through a pipe, and serves until SIGTERM.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Dict, Optional

from ..datalog.parser import parse_program
from ..datalog.program import Program
from ..server.protocol import ProtocolError, ReadOnlyError, decode_rows
from ..server.server import SolverServer, _mutation_fields
from ..service import SolverService, import_snapshot, warm_plan_cache


class ClusterWorkerServer(SolverServer):
    """A read-only solve replica under one cluster front."""

    def __init__(
        self,
        service: SolverService,
        token: str,
        epoch: int = 0,
        program: Optional[Program] = None,
        **kwargs,
    ):
        super().__init__(service, program=program, **kwargs)
        self.token = token
        self.cluster_epoch = epoch  # guarded-by: @loop

    # --- the write path is the control plane ---------------------------

    async def _mutate(self, inserts=None, deletes=None):
        raise ReadOnlyError(
            "this is a read-only cluster worker; route mutations to the "
            "cluster front"
        )

    def _check_token(self, params: Dict[str, object]) -> None:
        if params.get("token") != self.token:
            raise ProtocolError("bad or missing cluster token")

    async def _dispatch(self, request: Dict[str, object]):
        op = request["op"]
        params = request.get("params", {})
        if op == "epoch":
            return {
                "epoch": self.cluster_epoch,
                "db_version": self.service.db_version,
            }
        if op == "apply_delta":
            return await self._apply_delta(params)
        if op == "load_snapshot":
            return await self._load_snapshot(params)
        return await super()._dispatch(request)

    async def _apply_delta(self, params: Dict[str, object]):
        self._check_token(params)
        parent = params.get("parent")
        epoch = params.get("epoch")
        if not isinstance(parent, int) or not isinstance(epoch, int):
            raise ProtocolError("apply_delta needs integer 'parent'/'epoch'")
        if parent != self.cluster_epoch:
            # A missed or reordered delta: applying it here would fork
            # the replica.  Report staleness; the front resynchronizes.
            return {"stale": True, "epoch": self.cluster_epoch}
        inserts = _delta_param(params, "inserts")
        deletes = _delta_param(params, "deletes")
        service = self.service
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            self._executor,
            lambda: service.mutate(inserts=inserts, deletes=deletes),
        )
        self.cluster_epoch = epoch
        return {
            "stale": False,
            "epoch": epoch,
            **_mutation_fields(result),
        }

    async def _load_snapshot(self, params: Dict[str, object]):
        self._check_token(params)
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("load_snapshot needs a snapshot 'path'")
        loop = asyncio.get_running_loop()
        # File read + service build off the loop; in-flight solves keep
        # executing on the service object they already hold.
        snapshot = await loop.run_in_executor(
            self._executor, lambda: _build_service(path)
        )
        self.service = snapshot.service
        self.cluster_epoch = snapshot.epoch
        return {
            "epoch": snapshot.epoch,
            "db_version": snapshot.service.db_version,
        }

    # --- reporting ------------------------------------------------------

    def health_payload(self) -> Dict[str, object]:
        payload = super().health_payload()
        payload["role"] = "worker"
        payload["epoch"] = self.cluster_epoch
        return payload

    def metrics_snapshot(self) -> Dict[str, object]:
        snapshot = super().metrics_snapshot()
        snapshot["cluster"] = {
            "role": "worker",
            "epoch": self.cluster_epoch,
        }
        return snapshot


def _delta_param(
    params: Dict[str, object], field: str
) -> Dict[str, list]:
    raw = params.get(field) or {}
    if not isinstance(raw, dict):
        raise ProtocolError(f"'{field}' must be an object of fact rows")
    return {
        name: decode_rows(rows, f"{field}.{name}") for name, rows in raw.items()
    }


def _build_service(snapshot_path: str):
    """Import a snapshot and warm its plan cache (shared by spawn and
    the resynchronization path)."""
    snapshot = import_snapshot(snapshot_path)
    if snapshot.program_text:
        warm_plan_cache(snapshot.service, [snapshot.program_text])
    return snapshot


def _parse_default_program(text: Optional[str]) -> Optional[Program]:
    if not text:
        return None
    parsed = parse_program(text)
    return Program(
        [rule for rule in parsed.rules if not rule.is_fact], parsed.query
    )


async def _serve_worker(
    snapshot_path: str, token: str, pipe, host: str
) -> None:
    snapshot = _build_service(snapshot_path)
    server = ClusterWorkerServer(
        snapshot.service,
        token,
        epoch=snapshot.epoch,
        program=_parse_default_program(snapshot.program_text),
        host=host,
        port=0,
    )
    await server.start()
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    pipe.send(server.port)
    pipe.close()
    try:
        await stop_event.wait()
    finally:
        await server.stop()


def worker_main(
    snapshot_path: str, token: str, pipe, host: str = "127.0.0.1"
) -> None:
    """Process-backend entrypoint (multiprocessing spawn target)."""
    asyncio.run(_serve_worker(snapshot_path, token, pipe, host))
