"""The cluster front: admission, routing, replication, failover.

:class:`ClusterFront` subclasses :class:`~repro.server.SolverServer`,
so clients speak to a cluster exactly as they speak to a single server
— same wire protocol, same coalescing window, same graceful drain.
What changes is what happens after coalescing:

* **reads** — :meth:`_execute_batch` shards each coalesced batch by
  source over a consistent-hash ring and fans the shards out to the
  active workers' pipelined async clients.  A shard whose worker died
  triggers failover (promote a standby, rebuild the ring) and ONE
  re-route of just the failed sources; accepted requests are never
  dropped by a worker death.
* **writes** — :meth:`_mutate` is the single-writer path: apply to the
  front's authoritative service (its ``db_version`` IS the cluster
  epoch), then broadcast the versioned delta to every worker under one
  write lock.  A worker that answers ``stale`` missed an epoch and is
  resynchronized from a fresh snapshot; a worker that does not answer
  is failed over.  Reads keep flowing throughout — workers apply
  deltas between solves, and in-flight solves finish on the snapshot
  they started with.
* **supervision** — a background health loop probes every worker (and
  the warm standbys) each interval and fails over the dead ones;
  ``/health`` and ``/metrics`` aggregate the whole fleet.

The front's own service stays authoritative so a cluster can always be
rebuilt from it.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..server.client import AsyncSolverClient
from ..server.protocol import WorkerFailedError
from ..server.server import SolverServer
from ..service.service import SolverService
from .fleet import WorkerFleet
from .routing import ConsistentHashRing


class ClusterFront(SolverServer):
    """One listener, N worker processes, single-writer replication."""

    def __init__(
        self,
        service: SolverService,
        program=None,
        workers: int = 2,
        standbys: int = 0,
        backend: str = "process",
        health_interval: float = 1.0,
        **kwargs,
    ):
        super().__init__(service, program=program, **kwargs)
        self.workers = workers
        self.standbys = standbys
        self.health_interval = health_interval
        self.fleet = WorkerFleet(backend=backend)
        self._ring = ConsistentHashRing(())  # guarded-by: @loop
        self._clients: Dict[str, AsyncSolverClient] = {}  # guarded-by: @loop
        self._worker_reports: List[Dict] = []  # guarded-by: @loop
        self._health_task: Optional[asyncio.Task] = None  # guarded-by: @loop
        self._snapshot_text: Optional[str] = None  # guarded-by: @loop
        self._write_lock = asyncio.Lock()
        self.failovers = 0  # guarded-by: @loop
        self.shard_retries = 0  # guarded-by: @loop

    # --- lifecycle ------------------------------------------------------

    async def start(self) -> "ClusterFront":
        """Bring up the fleet FIRST, then start accepting clients."""
        loop = asyncio.get_running_loop()
        fleet = self.fleet
        service = self.service
        text = None if self._default is None else self._default.text
        self._snapshot_text = text
        workers, standbys = self.workers, self.standbys
        await loop.run_in_executor(
            None, lambda: fleet.spawn(service, text, workers, standbys)
        )
        await self._refresh_clients()
        self._worker_reports = await loop.run_in_executor(
            None, fleet.describe
        )
        self._health_task = asyncio.ensure_future(self._health_loop())
        await super().start()
        return self

    async def stop(self, grace: float = 5.0) -> None:
        """Drain the front while the workers are still up (in-flight
        shards need them), THEN tear the fleet down."""
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await super().stop(grace)
        for client in self._clients.values():
            await client.close()
        self._clients = {}
        fleet = self.fleet
        await asyncio.get_running_loop().run_in_executor(None, fleet.stop)

    # --- routing --------------------------------------------------------

    async def _refresh_clients(self) -> None:
        """Reconcile the async client set and the ring with the fleet's
        current active membership."""
        loop = asyncio.get_running_loop()
        fleet = self.fleet
        endpoints = await loop.run_in_executor(None, fleet.endpoints)
        for worker_id in list(self._clients):
            if worker_id not in endpoints:
                client = self._clients.pop(worker_id)
                await client.close()
        for worker_id, (host, port) in endpoints.items():
            if worker_id not in self._clients:
                # The front does its own failover (reshard + standby
                # promotion); a client-level blind retry against the
                # same dead worker would only mask it.
                self._clients[worker_id] = await AsyncSolverClient.connect(
                    host=host, port=port, failover_retries=0
                )
        self._ring = ConsistentHashRing(tuple(endpoints))

    async def _handle_worker_failure(self, worker_id: str) -> None:
        loop = asyncio.get_running_loop()
        fleet = self.fleet
        outcome = await loop.run_in_executor(
            None, lambda: fleet.mark_failed(worker_id)
        )
        if outcome["removed"]:
            self.failovers += 1
        await self._refresh_clients()

    # --- reads: shard, fan out, re-route on failure ---------------------

    async def _execute_batch(self, key, sources):
        served, method = key
        text = served.text
        answers: Dict[object, frozenset] = {}
        remaining = list(sources)
        for attempt in (0, 1):
            ring = self._ring
            if len(ring) == 0:
                raise WorkerFailedError("no live workers in the cluster")
            shards = ring.shard(remaining)
            outcomes = await asyncio.gather(
                *(
                    self._solve_shard(worker_id, shard, method, text)
                    for worker_id, shard in shards.items()
                ),
                return_exceptions=True,
            )
            failed_workers: List[str] = []
            remaining = []
            for (worker_id, shard), outcome in zip(
                shards.items(), outcomes
            ):
                if isinstance(outcome, (ConnectionError, WorkerFailedError)):
                    failed_workers.append(worker_id)
                    remaining.extend(shard)
                elif isinstance(outcome, BaseException):
                    # A structured solve error (unsafe query, deadline,
                    # ...) is the client's answer, not a failover.
                    raise outcome
                else:
                    answers.update(outcome)
            if not remaining:
                return answers
            for worker_id in failed_workers:
                await self._handle_worker_failure(worker_id)
            if attempt == 0:
                self.shard_retries += 1
        raise WorkerFailedError(
            f"{len(remaining)} sources unserved after failover retry"
        )

    async def _solve_shard(self, worker_id, shard, method, text):
        client = self._clients.get(worker_id)
        if client is None:
            raise ConnectionError(f"no client for worker {worker_id}")
        return await client.solve_batch(shard, method=method, program=text)

    # --- writes: the single-writer replication path ---------------------

    async def _mutate(self, inserts=None, deletes=None):
        loop = asyncio.get_running_loop()
        service = self.service
        fleet = self.fleet
        async with self._write_lock:
            parent = service.db_version
            result = await loop.run_in_executor(
                self._executor,
                lambda: service.mutate(inserts=inserts, deletes=deletes),
            )
            epoch = result.db_version
            if epoch == parent:
                return result  # no-op mutation: nothing to replicate
            applied_inserts = inserts or {}
            applied_deletes = deletes or {}
            stale, failed = await loop.run_in_executor(
                None,
                lambda: fleet.broadcast_delta(
                    epoch, parent, applied_inserts, applied_deletes
                ),
            )
            if stale:
                text = self._snapshot_text
                await loop.run_in_executor(
                    None, lambda: fleet.write_snapshot(service, text)
                )
                for worker_id in stale:
                    try:
                        await loop.run_in_executor(
                            None,
                            lambda w=worker_id: fleet.resync(w),
                        )
                    except (ConnectionError, OSError):
                        failed.append(worker_id)
        for worker_id in failed:
            await self._handle_worker_failure(worker_id)
        return result

    # --- supervision ----------------------------------------------------

    async def _health_loop(self) -> None:
        loop = asyncio.get_running_loop()
        fleet = self.fleet
        while True:
            await asyncio.sleep(self.health_interval)
            reports = await loop.run_in_executor(None, fleet.check_health)
            self._worker_reports = reports
            for report in reports:
                if not report["healthy"]:
                    await self._handle_worker_failure(report["worker_id"])

    # --- aggregated reporting -------------------------------------------

    def health_payload(self) -> Dict[str, object]:
        payload = super().health_payload()
        payload["role"] = "front"
        payload["epoch"] = self.service.db_version
        payload["workers"] = list(self._worker_reports)
        active = len(self._ring)
        payload["active_workers"] = active
        if payload["status"] == "ok" and active < self.workers:
            payload["status"] = "degraded"
        return payload

    def metrics_snapshot(self) -> Dict[str, object]:
        snapshot = super().metrics_snapshot()
        snapshot["cluster"] = {
            "role": "front",
            "epoch": self.service.db_version,
            "backend": self.fleet.backend,
            "configured_workers": self.workers,
            "configured_standbys": self.standbys,
            "active_workers": len(self._ring),
            "failovers": self.failovers,
            "shard_retries": self.shard_retries,
            "workers": list(self._worker_reports),
        }
        return snapshot

    def __repr__(self):
        return (
            f"ClusterFront({self.host}:{self.port}, "
            f"workers={len(self._ring)}/{self.workers}, "
            f"failovers={self.failovers})"
        )
