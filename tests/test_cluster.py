"""The cluster serving topology, thread backend (fast tier).

The thread backend runs real ``ClusterWorkerServer`` instances on real
loopback ports — same wire protocol, snapshots, epochs, and failover
paths as the process backend — without process spawn cost.  The
process backend gets its own slow-marked e2e run in
tests/test_cluster_e2e.py.
"""

import asyncio

import pytest

from repro.cluster import ClusterFront
from repro.server import (
    AsyncSolverClient,
    ProtocolError,
    ReadOnlyError,
    SolverClient,
    async_http_get,
)
from repro.service import SolverService

from .test_server_e2e import (
    QUERY,
    SG_DEFAULT,
    SG_WIRE_TEXTS,
    SOURCES,
    ground_truth,
    sg_service,
    solve_every_wire_program,
)


def make_front(**kwargs):
    kwargs.setdefault("backend", "thread")
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("health_interval", 0.2)
    service = SolverService(QUERY.database())
    return ClusterFront(service, program=QUERY.to_program(), **kwargs)


def run(coro):
    return asyncio.run(coro)


def stop_worker_abruptly(front, worker_id):
    """Simulate a worker death: stop its server thread out from under
    the fleet, leaving the handle registered (the failure paths must
    discover it, not be told)."""
    handle = front.fleet._handles[worker_id]
    handle.thread.stop(grace=0.1)


class TestClusterServing:
    def test_sharded_batch_matches_one_shot_ground_truth(self):
        async def main():
            front = make_front()
            await front.start()
            try:
                async with await AsyncSolverClient.connect(
                    port=front.port
                ) as client:
                    answers = await client.solve_batch(SOURCES)
                    for source in SOURCES:
                        assert answers[source] == ground_truth(source), source
                    assert await client.solve("c0") == ground_truth("c0")
            finally:
                await front.stop()

        run(main())

    def test_a_window_forwards_the_program_it_was_admitted_with(self):
        # Regression: 70 texts overflow the front's 64-entry parse cache
        # while their windows are still open; a flush used to look the
        # text up again by key, find nothing, and have the worker solve
        # the DEFAULT program — {y0}, served with ok: true.
        front = ClusterFront(
            sg_service(), program=SG_DEFAULT, workers=1, backend="thread"
        )
        outcomes = run(solve_every_wire_program(front))
        assert outcomes == [frozenset({"z0"})] * len(SG_WIRE_TEXTS)

    def test_shards_actually_spread_across_workers(self):
        async def main():
            front = make_front(workers=2)
            await front.start()
            try:
                async with await AsyncSolverClient.connect(
                    port=front.port
                ) as client:
                    await client.solve_batch(SOURCES)
                served = []
                for host, port in front.fleet.endpoints().values():
                    _status, metrics = await async_http_get(
                        host, port, "/metrics"
                    )
                    served.append(metrics["server"]["requests"])
                # Consistent hashing sends part of the keyspace to each
                # worker: with 20 sources, nobody sits idle.
                assert len(served) == 2
                assert all(count > 0 for count in served), served
            finally:
                await front.stop()

        run(main())

    def test_mutations_replicate_through_the_epoch_protocol(self):
        async def main():
            front = make_front()
            await front.start()
            try:
                async with await AsyncSolverClient.connect(
                    port=front.port
                ) as client:
                    # The new cone is invisible before the mutation...
                    assert await client.solve("z0") == frozenset()
                    assert await client.add_fact("l", "z0", "z1")
                    assert await client.add_fact("r", "zr", "z1")
                    assert await client.add_fact("e", "z1", "z1")
                    # ...and derivable on whatever worker z0 routes to
                    # afterwards: p(z0, zr) via l(z0,z1), e(z1,z1),
                    # r(zr, z1).
                    assert await client.solve("z0") == frozenset({"zr"})
                epoch = front.service.db_version
                for report in front.fleet.describe():
                    assert report["epoch"] == epoch, report
            finally:
                await front.stop()

        run(main())

    def test_front_aggregates_health_and_metrics(self):
        async def main():
            front = make_front(workers=2, standbys=1)
            await front.start()
            try:
                status, health = await async_http_get(
                    "127.0.0.1", front.port, "/health"
                )
                assert status == 200
                assert health["role"] == "front"
                assert health["status"] == "ok"
                assert health["active_workers"] == 2
                assert len(health["workers"]) == 3  # actives + standby
                roles = sorted(w["role"] for w in health["workers"])
                assert roles == ["active", "active", "standby"]
                _status, metrics = await async_http_get(
                    "127.0.0.1", front.port, "/metrics"
                )
                cluster = metrics["cluster"]
                assert cluster["role"] == "front"
                assert cluster["backend"] == "thread"
                assert cluster["failovers"] == 0
            finally:
                await front.stop()

        run(main())


class TestReadOnlyWorkers:
    def test_worker_rejects_client_mutations(self):
        async def main():
            front = make_front(workers=1)
            await front.start()
            try:
                [(host, port)] = front.fleet.endpoints().values()
                async with await AsyncSolverClient.connect(
                    host=host, port=port
                ) as worker_client:
                    with pytest.raises(ReadOnlyError):
                        await worker_client.add_fact("l", "x", "y")
                    # Reads are served directly, for debugging.
                    got = await worker_client.solve("c0")
                    assert got == ground_truth("c0")
            finally:
                await front.stop()

        run(main())

    def test_control_ops_require_the_fleet_token(self):
        async def main():
            front = make_front(workers=1)
            await front.start()
            try:
                [(host, port)] = front.fleet.endpoints().values()
                async with await AsyncSolverClient.connect(
                    host=host, port=port
                ) as worker_client:
                    with pytest.raises(ProtocolError, match="token"):
                        await worker_client.request(
                            "apply_delta",
                            {"token": "wrong", "epoch": 1, "parent": 0},
                        )
                    with pytest.raises(ProtocolError, match="token"):
                        await worker_client.request(
                            "load_snapshot", {"path": "/tmp/x"}
                        )
                    # The epoch probe is unauthenticated (health checks).
                    result = await worker_client.request("epoch")
                    assert result["epoch"] == front.service.db_version
            finally:
                await front.stop()

        run(main())


class TestFailover:
    def test_worker_death_promotes_the_warm_standby(self):
        async def main():
            front = make_front(workers=2, standbys=1)
            await front.start()
            try:
                assert front.fleet.active_ids() == ["worker-0", "worker-1"]
                stop_worker_abruptly(front, "worker-0")
                async with await AsyncSolverClient.connect(
                    port=front.port
                ) as client:
                    # Routed through the dead worker's arcs: the front
                    # fails over and re-routes; every answer still lands.
                    answers = await client.solve_batch(SOURCES)
                for source in SOURCES:
                    assert answers[source] == ground_truth(source), source
                assert front.failovers == 1
                actives = front.fleet.active_ids()
                assert "worker-0" not in actives
                assert "worker-2" in actives  # the promoted standby
                assert len(actives) == 2
            finally:
                await front.stop()

        run(main())

    def test_worker_death_without_standby_reshards(self):
        async def main():
            front = make_front(workers=2, standbys=0)
            await front.start()
            try:
                stop_worker_abruptly(front, "worker-1")
                async with await AsyncSolverClient.connect(
                    port=front.port
                ) as client:
                    answers = await client.solve_batch(SOURCES)
                for source in SOURCES:
                    assert answers[source] == ground_truth(source), source
                # Everything re-routed onto the one survivor.
                assert front.fleet.active_ids() == ["worker-0"]
                assert len(front._ring) == 1
            finally:
                await front.stop()

        run(main())

    def test_health_loop_discovers_dead_workers_without_traffic(self):
        async def main():
            front = make_front(
                workers=2, standbys=1, health_interval=0.05
            )
            await front.start()
            try:
                stop_worker_abruptly(front, "worker-1")
                deadline = asyncio.get_running_loop().time() + 5.0
                while asyncio.get_running_loop().time() < deadline:
                    if front.failovers >= 1:
                        break
                    await asyncio.sleep(0.05)
                assert front.failovers >= 1
                assert sorted(front.fleet.active_ids()) == [
                    "worker-0",
                    "worker-2",
                ]
                status, health = await async_http_get(
                    "127.0.0.1", front.port, "/health"
                )
                assert status == 200
                assert health["active_workers"] == 2
            finally:
                await front.stop()

        run(main())

    def test_promoted_standby_keeps_following_mutations(self):
        async def main():
            front = make_front(workers=1, standbys=1)
            await front.start()
            try:
                async with await AsyncSolverClient.connect(
                    port=front.port
                ) as client:
                    # A mutation while the standby is idle: it follows
                    # the broadcast, so promotion needs no catch-up.
                    await client.add_fact("l", "z0", "z1")
                    await client.add_fact("r", "zr", "z1")
                    await client.add_fact("e", "z1", "z1")
                    stop_worker_abruptly(front, "worker-0")
                    assert await client.solve("z0") == frozenset({"zr"})
                assert front.fleet.active_ids() == ["worker-1"]
            finally:
                await front.stop()

        run(main())


class TestStaleResync:
    def test_stale_worker_is_resynced_from_a_fresh_snapshot(self):
        async def main():
            front = make_front(workers=1)
            await front.start()
            try:
                handle = front.fleet._handles["worker-0"]
                # Poke the worker's epoch out from under the protocol:
                # the next broadcast sees a parent mismatch and must
                # fall back to a full snapshot resync.
                handle.thread.server.cluster_epoch = 999
                async with await AsyncSolverClient.connect(
                    port=front.port
                ) as client:
                    await client.add_fact("l", "z0", "z1")
                    await client.add_fact("r", "zr", "z1")
                    await client.add_fact("e", "z1", "z1")
                    assert await client.solve("z0") == frozenset({"zr"})
                    assert await client.solve("c0") == ground_truth("c0")
                assert (
                    handle.thread.server.cluster_epoch
                    == front.service.db_version
                )
            finally:
                await front.stop()

        run(main())
