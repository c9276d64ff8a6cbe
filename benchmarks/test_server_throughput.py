"""Extension experiment — coalesced network serving vs. one-shot solving.

The serving-layer claim, measured over a real loopback socket: 100
concurrent ``solve`` requests, which the client sends as one write, are
answered by one ``solve_batch`` execution — the union
reachability sweep and the shared ``P_M`` fixpoint are paid per
*window*, not per connection — with strictly fewer total tuple
retrievals than 100 independent ``solve()`` calls, at interactive
latency percentiles.

Marked ``slow``: deselected by default (see the ``slow`` marker in
pyproject.toml); run with ``pytest benchmarks -m slow``.
"""

import asyncio
import time

import pytest

from repro.analysis.tables import _render
from repro.core.csl import CSLQuery
from repro.core.solver import solve
from repro.datalog.relation import CostCounter
from repro.server import AsyncSolverClient, SolverServer, async_http_get
from repro.service import SolverService
from repro.workloads.generators import cyclic_workload

from .conftest import add_report

pytestmark = pytest.mark.slow


def magic_side_values(query: CSLQuery):
    return sorted({value for pair in query.left for value in pair})


def one_shot_total(query: CSLQuery, sources) -> int:
    total = 0
    for source in sources:
        counter = CostCounter()
        solve(
            CSLQuery(query.left, query.exit, query.right, source),
            counter=counter,
        )
        total += counter.retrievals
    return total


def test_server_throughput_100_concurrent_clients():
    query = cyclic_workload(scale=6, seed=0)
    sources = magic_side_values(query)[:100]
    assert len(sources) == 100
    service = SolverService(query.database())
    server = SolverServer(
        service,
        program=query.to_program(),
        window_ms=200,
        max_batch=256,
        max_pending=512,
    )

    async def drive():
        await server.start()
        try:
            async with await AsyncSolverClient.connect(
                port=server.port
            ) as client:
                started = time.perf_counter()
                answers = await asyncio.gather(
                    *(client.solve(source) for source in sources)
                )
                elapsed = time.perf_counter() - started
            status, metrics = await async_http_get(
                "127.0.0.1", server.port, "/metrics"
            )
            assert status == 200
            return answers, elapsed, metrics
        finally:
            await server.stop()

    answers, elapsed, metrics = asyncio.run(drive())

    # Correctness first: every wire answer is the one-shot answer.
    for source, got in zip(sources, answers):
        want = solve(
            CSLQuery(query.left, query.exit, query.right, source)
        ).answers
        assert got == want, source

    # The client sent the burst as one write, so the coalescer served
    # the 100 requests as exactly one batch, and the shared execution
    # did strictly less total work than 100 independent solves.
    batches = metrics["coalescer"]["batches"]
    coalesced = metrics["coalescer"]["coalesced"]
    retrievals = metrics["service"]["retrievals"]
    independent = one_shot_total(query, sources)
    assert coalesced == len(sources)
    assert batches == 1
    assert retrievals < independent

    latency = metrics["server"]["latency_ms"]
    assert latency["count"] >= len(sources)
    assert latency["p99_ms"] > 0

    add_report(
        "server_throughput",
        _render(
            "Coalesced network serving, cyclic workload scale 6 "
            "(100 concurrent clients over loopback)",
            ["metric", "value"],
            [
                ["requests", str(coalesced)],
                ["batches executed", str(batches)],
                ["largest batch", str(metrics["coalescer"]["largest_batch"])],
                ["one-shot retrievals", str(independent)],
                ["served retrievals", str(retrievals)],
                [
                    "retrieval speedup",
                    f"{independent / max(1, retrievals):.1f}x",
                ],
                ["wall-clock (all 100)", f"{elapsed * 1000.0:.0f} ms"],
                ["request p50", f"{latency['p50_ms']:.1f} ms"],
                ["request p95", f"{latency['p95_ms']:.1f} ms"],
                ["request p99", f"{latency['p99_ms']:.1f} ms"],
                ["batch p50", f"{metrics['service']['batch_p50_ms']:.1f} ms"],
                ["batch p99", f"{metrics['service']['batch_p99_ms']:.1f} ms"],
            ],
        ),
    )


def test_bench_server_round_trip(benchmark):
    """Wall-clock one coalesced round trip over the wire (warm plan)."""
    query = cyclic_workload(scale=4, seed=0)
    sources = magic_side_values(query)[:20]
    service = SolverService(query.database())
    server = SolverServer(
        service,
        program=query.to_program(),
        window_ms=20,
        max_batch=64,
        max_pending=256,
    )

    async def round_trip():
        async with await AsyncSolverClient.connect(
            port=server.port
        ) as client:
            return await asyncio.gather(
                *(client.solve(source) for source in sources)
            )

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(server.start())
        loop.run_until_complete(round_trip())  # warm the plan cache
        benchmark(lambda: loop.run_until_complete(round_trip()))
        loop.run_until_complete(server.stop())
    finally:
        loop.close()
