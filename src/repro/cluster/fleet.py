"""Worker lifecycle: spawn, health, warm-standby promotion.

The fleet is the synchronous half of the cluster front.  Every method
here blocks (process spawns, pipe handshakes, control-plane round
trips, file I/O), so the front calls into it via ``run_in_executor``
and keeps its event loop free.  Two backends share one interface:

* ``"process"`` — each worker is a ``multiprocessing`` (spawn context)
  child running :func:`~repro.cluster.worker.worker_main`; it builds
  its service from the snapshot file and reports its ephemeral port
  back through a pipe.  This is the production topology: N processes,
  N GILs, real parallelism.
* ``"thread"`` — each worker is a :class:`ClusterWorkerServer` on a
  :class:`~repro.server.ServerThread` inside this process.  Same wire
  protocol, same snapshot/epoch machinery, a fraction of the startup
  cost — what the fast test tier uses.

Workers are spawned in two roles.  **Active** workers own arcs of the
routing ring and serve solves.  **Warm standbys** hold the same
snapshot and follow the same delta broadcasts but get no traffic —
when an active dies, :meth:`WorkerFleet.mark_failed` promotes the
oldest standby in one step (no snapshot load on the failover path; its
state is already current).

Locking: :class:`WorkerFleet` serializes membership under
``WorkerFleet._lock`` and per-worker state lives under
``WorkerHandle._lock``; the fleet registers a handle while holding its
own lock, so the documented lock order is ``WorkerFleet._lock ->
WorkerHandle._lock`` (pinned by the concurrency self-analysis — see
tests/test_concurrency_analysis.py).  Handles never call back into the
fleet, so the reverse edge cannot form.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import shutil
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

from ..server.client import SolverClient
from ..server.protocol import encode_rows
from ..server.server import ServerThread
from ..service import export_snapshot
from ..service.service import SolverService
from .worker import (
    ClusterWorkerServer,
    _build_service,
    _parse_default_program,
    worker_main,
)

#: How long to wait for a spawned worker's port handshake.
SPAWN_TIMEOUT = 60.0


class WorkerHandle:
    """One worker's endpoint, role, and liveness, under its own lock."""

    def __init__(
        self,
        worker_id: str,
        role: str,
        backend: str,
        process=None,
        thread: Optional[ServerThread] = None,
    ):
        self._lock = threading.RLock()
        self.worker_id = worker_id
        self.backend = backend
        self.process = process
        self.thread = thread
        self.host = "127.0.0.1"
        self.role = role  # guarded-by: _lock
        self.port: Optional[int] = None  # guarded-by: _lock
        self.client: Optional[SolverClient] = None  # guarded-by: _lock
        self.healthy = False  # guarded-by: _lock
        self.epoch = 0  # guarded-by: _lock
        self.stats: Dict[str, object] = {}  # guarded-by: _lock

    def attach(self, port: int, client: SolverClient, epoch: int) -> None:
        """Bind the spawned worker's endpoint; called once per spawn."""
        with self._lock:
            self.port = port
            self.client = client
            self.epoch = epoch
            self.healthy = True

    def promote(self) -> None:
        with self._lock:
            self.role = "active"

    def note_epoch(self, epoch: int) -> None:
        with self._lock:
            self.epoch = epoch

    def mark_unhealthy(self) -> None:
        with self._lock:
            self.healthy = False

    def mark_healthy(self, epoch: int) -> None:
        with self._lock:
            self.healthy = True
            self.epoch = epoch

    def endpoint(self) -> Tuple[str, int]:
        with self._lock:
            if self.port is None:
                raise ConnectionError(
                    f"worker {self.worker_id} has no endpoint"
                )
            return self.host, self.port

    def control(self, op: str, params: Optional[Dict] = None):
        """One control-plane round trip (the request runs outside the
        handle lock — only the client reference is read under it)."""
        with self._lock:
            client = self.client
        if client is None:
            raise ConnectionError(f"worker {self.worker_id} is detached")
        return client.request(op, params)

    def alive(self) -> bool:
        """Backend liveness (process exists / thread attached); the
        wire-level check is the fleet's health probe."""
        if self.process is not None:
            return self.process.is_alive()
        return self.thread is not None

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "worker_id": self.worker_id,
                "role": self.role,
                "backend": self.backend,
                "host": self.host,
                "port": self.port,
                "healthy": self.healthy,
                "epoch": self.epoch,
            }

    def close(self) -> None:
        with self._lock:
            client = self.client
            self.client = None
            self.healthy = False
        if client is not None:
            try:
                client.close()
            except OSError:
                pass
        if self.process is not None:
            self.process.terminate()
            self.process.join(timeout=10)
        elif self.thread is not None:
            try:
                self.thread.stop(grace=1.0)
            except Exception:  # noqa: BLE001 - already going away
                pass

    def __repr__(self):
        return f"WorkerHandle({self.worker_id}, {self.backend})"


class WorkerFleet:
    """Spawn and supervise the worker set behind one cluster front."""

    def __init__(
        self,
        backend: str = "process",
        token: Optional[str] = None,
        control_timeout: float = 30.0,
    ):
        if backend not in ("process", "thread"):
            raise ValueError(
                f"unknown fleet backend {backend!r} "
                "(expected 'process' or 'thread')"
            )
        self._lock = threading.RLock()
        self.backend = backend
        #: Shared secret for the workers' control ops; generated per
        #: fleet so nothing else on the loopback can rewrite a replica.
        self.token = token or secrets.token_hex(16)
        self.control_timeout = control_timeout
        self.snapshot_dir: Optional[str] = None  # guarded-by: _lock
        self.snapshot_path: Optional[str] = None  # guarded-by: _lock
        self._handles: Dict[str, WorkerHandle] = {}  # guarded-by: _lock
        self._actives: List[str] = []  # guarded-by: _lock
        self._standbys: List[str] = []  # guarded-by: _lock
        self._spawned = 0  # guarded-by: _lock
        self.failovers = 0  # guarded-by: _lock
        #: The handle currently being registered (typed slot so the
        #: lock-order analysis resolves the attach() call below).
        self._spawning: Optional[WorkerHandle] = None  # guarded-by: _lock

    # --- spawning -------------------------------------------------------

    def spawn(
        self,
        service: SolverService,
        program_text: Optional[str],
        workers: int,
        standbys: int = 0,
    ) -> List[str]:
        """Export one snapshot and bring up the whole fleet from it."""
        if workers < 1:
            raise ValueError("a cluster needs at least one active worker")
        path = self.write_snapshot(service, program_text)
        epoch = service.db_version
        for _ in range(workers):
            self._spawn_one("active", path, epoch)
        for _ in range(standbys):
            self._spawn_one("standby", path, epoch)
        return self.active_ids()

    def write_snapshot(
        self, service: SolverService, program_text: Optional[str]
    ) -> str:
        """(Re-)export the authoritative EDB; atomic, so a concurrent
        reader sees either the old file or the new one."""
        with self._lock:
            if self.snapshot_dir is None:
                self.snapshot_dir = tempfile.mkdtemp(prefix="repro-cluster-")
                self.snapshot_path = os.path.join(
                    self.snapshot_dir, "snapshot.json"
                )
            path = self.snapshot_path
        export_snapshot(service, path, program_text=program_text)
        return path

    def _spawn_one(self, role: str, snapshot_path: str, epoch: int) -> str:
        with self._lock:
            worker_id = f"worker-{self._spawned}"
            self._spawned += 1
        process = None
        thread = None
        if self.backend == "process":
            port, process = _spawn_process(snapshot_path, self.token)
        else:
            port, thread = _spawn_thread(snapshot_path, self.token)
        client = SolverClient(
            port=port, timeout=self.control_timeout, failover_retries=0
        )
        with self._lock:
            self._spawning = WorkerHandle(
                worker_id, role, self.backend, process=process, thread=thread
            )
            self._spawning.attach(port, client, epoch)
            self._handles[worker_id] = self._spawning
            if role == "active":
                self._actives.append(worker_id)
            else:
                self._standbys.append(worker_id)
        return worker_id

    # --- membership -----------------------------------------------------

    def active_ids(self) -> List[str]:
        with self._lock:
            return list(self._actives)

    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        """``worker_id -> (host, port)`` for the ACTIVE set."""
        with self._lock:
            return {
                worker_id: self._handles[worker_id].endpoint()
                for worker_id in self._actives
            }

    def _all_handles(self) -> List[WorkerHandle]:
        with self._lock:
            return [
                self._handles[worker_id]
                for worker_id in self._actives + self._standbys
            ]

    def mark_failed(self, worker_id: str) -> Dict[str, object]:
        """Remove a dead worker; promote the oldest standby if one is
        waiting.  Idempotent: a second report of the same worker is a
        no-op (``removed`` False), so concurrent failure detections
        (shard error + health probe) cannot double-promote."""
        with self._lock:
            handle = self._handles.pop(worker_id, None)
            if handle is None:
                return {"removed": False, "promoted": None}
            if worker_id in self._actives:
                self._actives.remove(worker_id)
            if worker_id in self._standbys:
                self._standbys.remove(worker_id)
            self.failovers += 1
            promoted = None
            if self._standbys:
                promoted = self._standbys.pop(0)
                self._handles[promoted].promote()
                self._actives.append(promoted)
        handle.close()
        return {"removed": True, "promoted": promoted}

    # --- control plane --------------------------------------------------

    def broadcast_delta(
        self,
        epoch: int,
        parent: int,
        inserts: Optional[Dict[str, List[Tuple]]],
        deletes: Optional[Dict[str, List[Tuple]]],
    ) -> Tuple[List[str], List[str]]:
        """Send one versioned delta to every worker (actives AND
        standbys — standbys stay warm by following the same stream).

        Returns ``(stale_ids, failed_ids)``: stale workers answered with
        an epoch mismatch and need a snapshot resync; failed workers
        did not answer at all and need failover.
        """
        params = {
            "token": self.token,
            "epoch": epoch,
            "parent": parent,
            "inserts": {
                name: encode_rows(rows)
                for name, rows in (inserts or {}).items()
            },
            "deletes": {
                name: encode_rows(rows)
                for name, rows in (deletes or {}).items()
            },
        }
        stale: List[str] = []
        failed: List[str] = []
        for handle in self._all_handles():
            try:
                result = handle.control("apply_delta", params)
            except (ConnectionError, OSError):
                handle.mark_unhealthy()
                failed.append(handle.worker_id)
                continue
            if result.get("stale"):
                stale.append(handle.worker_id)
            else:
                handle.note_epoch(epoch)
        return stale, failed

    def resync(self, worker_id: str) -> int:
        """Push the current snapshot file to one stale worker."""
        with self._lock:
            handle = self._handles.get(worker_id)
            path = self.snapshot_path
        if handle is None or path is None:
            raise ConnectionError(f"no worker {worker_id} to resync")
        result = handle.control(
            "load_snapshot", {"token": self.token, "path": path}
        )
        epoch = int(result["epoch"])
        handle.note_epoch(epoch)
        return epoch

    def check_health(self) -> List[Dict[str, object]]:
        """Probe every worker over the wire; returns their reports.

        A worker is unhealthy when its backend died (process gone) or
        the ``epoch`` probe fails; the caller decides on failover.
        """
        reports: List[Dict[str, object]] = []
        for handle in self._all_handles():
            if not handle.alive():
                handle.mark_unhealthy()
            else:
                try:
                    result = handle.control("epoch")
                    handle.mark_healthy(int(result["epoch"]))
                except (ConnectionError, OSError):
                    handle.mark_unhealthy()
            reports.append(handle.describe())
        return reports

    def describe(self) -> List[Dict[str, object]]:
        return [handle.describe() for handle in self._all_handles()]

    def stop(self) -> None:
        """Tear the fleet down: close every worker, drop the snapshot."""
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
            self._actives.clear()
            self._standbys.clear()
            snapshot_dir = self.snapshot_dir
            self.snapshot_dir = None
            self.snapshot_path = None
        for handle in handles:
            handle.close()
        if snapshot_dir is not None:
            shutil.rmtree(snapshot_dir, ignore_errors=True)

    def __repr__(self):
        with self._lock:
            return (
                f"WorkerFleet({self.backend}, "
                f"actives={len(self._actives)}, "
                f"standbys={len(self._standbys)})"
            )


def _spawn_process(snapshot_path: str, token: str):
    """Spawn-context child + pipe handshake for the bound port."""
    context = multiprocessing.get_context("spawn")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=worker_main,
        args=(snapshot_path, token, child_conn),
        daemon=True,
    )
    process.start()
    child_conn.close()
    if not parent_conn.poll(SPAWN_TIMEOUT):
        process.terminate()
        raise RuntimeError(
            f"cluster worker did not report a port within {SPAWN_TIMEOUT}s"
        )
    port = parent_conn.recv()
    parent_conn.close()
    return int(port), process


def _spawn_thread(snapshot_path: str, token: str):
    """In-process worker on its own event-loop thread (test backend)."""
    snapshot = _build_service(snapshot_path)
    server = ClusterWorkerServer(
        snapshot.service,
        token,
        epoch=snapshot.epoch,
        program=_parse_default_program(snapshot.program_text),
    )
    thread = ServerThread(server)
    thread.start()
    return server.port, thread
