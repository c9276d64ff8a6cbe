"""The parent side: child processes and the closed-loop load generator.

The generator is one asyncio loop in this process, talking to the
server child through :class:`~repro.server.AsyncSolverClient` over
loopback.  It opens one connection per run and refuses to open more
connections than there are cores: on a 2-core box a second busy
connection measures the scheduler, not the server.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.server import AsyncSolverClient
from repro.server.protocol import ServerError

from . import ROOT
from .stats import percentile, sliced
from .workloads import Library, Served, Step

#: Set-up is timed this many times per untraced run; the median is
#: reported and the last child serves the measured run.
SETUP_REPEATS = 3

#: A different stream for the warm-up, so the measured stream starts at
#: the head of an epoch whatever the warm-up length.
_WARMUP_SALT = 0x5EED


def check_connection_budget(requested: int, cores: Optional[int] = None) -> None:
    """Refuse a run that would open more connections than cores."""
    cores = cores if cores is not None else (os.cpu_count() or 1)
    if requested > cores:
        raise RuntimeError(
            f"refusing to open {requested} connections on {cores} core(s): "
            "the load generator would compete with the server for CPU"
        )


class Child:
    """One ``server_main`` process and its JSON-lines channel."""

    def __init__(self, spec: Dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server_main"],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            text=True,
        )
        self._send(spec)

    def _send(self, message: Dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def read(self) -> Dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"benchmark child exited with code {self.proc.wait()}"
            )
        return json.loads(line)

    def call(self, **command) -> Dict:
        self._send(command)
        return self.read()

    def stop(self) -> Dict:
        """Ask for the final report and wait for the process to end."""
        report = self.call(cmd="stop")
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)
        return report

    def kill(self) -> None:
        """Last resort on an error path: never leave a child behind."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()

    def clock_offset(self, probes: int = 8) -> Tuple[float, float]:
        """``(offset, uncertainty)`` of the child's ``perf_counter``
        against ours, from the tightest of ``probes`` round trips.

        On Linux ``perf_counter`` is the system-wide monotonic clock and
        the offset is zero within the round trip; computing it instead
        of assuming it keeps client and server spans subtractable on a
        platform where each process has its own epoch.
        """
        best = None
        for _ in range(probes):
            before = time.perf_counter()
            theirs = self.call(cmd="clock")["clock"]
            after = time.perf_counter()
            if best is None or after - before < best[1]:
                best = (theirs - (before + after) / 2.0, after - before)
        return best[0], best[1] / 2.0


async def _request(client: AsyncSolverClient, request) -> Tuple:
    """``(start, end, result, error)`` for one client-observed call."""
    op, argument = request
    start = time.perf_counter()
    try:
        if op == "solve":
            result = await client.solve(argument)
        else:
            name, row = argument
            call = client.remove_facts if op == "remove" else client.add_facts
            result = await call(name, [tuple(row)])
    except (ServerError, ConnectionError) as exc:
        return start, time.perf_counter(), None, exc
    return start, time.perf_counter(), result, None


async def _run_step(client, step: Step, removed: frozenset, index: int,
                    records: List[Dict]) -> frozenset:
    """Issue one closed-loop step, record every request, and return the
    set of removed facts the *next* step will see."""
    if len(step) == 1:
        outcomes = [await _request(client, step[0])]
    else:
        outcomes = await asyncio.gather(*(_request(client, r) for r in step))
    for (op, argument), (start, end, result, error) in zip(step, outcomes):
        records.append(
            {
                "step": index,
                "op": op,
                "arg": argument,
                "removed": removed,
                "start": start,
                "end": end,
                "result": result,
                "error": None if error is None else repr(error),
            }
        )
        if error is None and op != "solve":
            fact = (argument[0], tuple(argument[1]))
            removed = removed | {fact} if op == "remove" else removed - {fact}
    return removed


def verify(workload: Served, records: List[Dict]) -> None:
    """Mark every record ``ok`` or not against the oracle (one oracle
    call per distinct ``(source, database state)``; never timed)."""
    oracle_cache: Dict = {}
    for record in records:
        if record["error"] is not None:
            record["ok"] = False
        elif record["op"] == "solve":
            key = (record["arg"], record["removed"])
            if key not in oracle_cache:
                oracle_cache[key] = workload.oracle(*key)
            record["ok"] = record["result"] == oracle_cache[key]
        else:
            record["ok"] = record["result"] == 1


async def _serve_and_measure(workload: Served, seed: int, seconds: float,
                             trace: bool) -> Dict:
    check_connection_budget(1)
    spec = {
        "mode": "serve",
        "program": workload.program_text,
        "facts": workload.facts_text,
        "trace": trace,
    }
    first_source = workload.first_source
    first_expected = workload.oracle(first_source, frozenset())
    setups: List[float] = []
    repeats = 1 if trace else SETUP_REPEATS
    child = client = None
    try:
        for attempt in range(repeats):
            started = time.perf_counter()
            child = Child(spec)
            port = child.read()["port"]
            client = await AsyncSolverClient.connect(
                port=port, failover_retries=0
            )
            first_answer = await client.solve(first_source)
            setups.append(time.perf_counter() - started)
            if first_answer != first_expected:
                raise RuntimeError(
                    f"{workload.name}: the first answer is wrong; "
                    "refusing to measure a broken server"
                )
            if attempt < repeats - 1:
                await client.close()
                child.stop()

        warmup = workload.steps(random.Random(seed ^ _WARMUP_SALT))
        removed = frozenset()
        discarded: List[Dict] = []
        for index in range(workload.warmup_steps):
            removed = await _run_step(
                client, next(warmup), removed, index, discarded
            )
        baseline = await client.stats()

        records: List[Dict] = []
        prefix_stats = None
        stream = workload.steps(random.Random(seed))
        index = 0
        deadline = time.perf_counter() + seconds
        while index == 0 or time.perf_counter() < deadline:
            removed = await _run_step(
                client, next(stream), removed, index, records
            )
            index += 1
            if index == workload.retrieval_steps:
                prefix_stats = (await client.stats(), len(records))
        final = await client.stats()
        if prefix_stats is None:
            prefix_stats = (final, len(records))
        clock = child.clock_offset() if trace else (0.0, 0.0)
        await client.close()
        client = None
        report = child.stop()
    except BaseException:
        if client is not None:
            await client.close()
        if child is not None:
            child.kill()
        raise
    verify(workload, records)
    return {
        "setups": setups,
        "records": records,
        "baseline": baseline,
        "prefix": prefix_stats,
        "final": final,
        "clock": clock,
        "child": report,
    }


def run_served(workload: Served, seed: int, seconds: float, trace: bool) -> Dict:
    """Set up, warm up, measure for ``seconds`` and verify; returns the
    raw material (records, stats snapshots, child report)."""
    return asyncio.run(_serve_and_measure(workload, seed, seconds, trace))


def run_library(workload: Library, seed: int, seconds: float,
                trace: bool) -> Dict:
    """The same for a library workload: the child runs the ops itself
    and reports ``[cell, load_s, start, end, retrievals, ok]`` each."""
    spec = {
        "mode": "library",
        "seed": seed,
        "cells": workload.cells,
        "datasets": workload.datasets,
        "expected": workload.expected,
    }
    setups: List[float] = []
    repeats = 1 if trace else SETUP_REPEATS
    child = None
    try:
        for attempt in range(repeats):
            started = time.perf_counter()
            child = Child(spec)
            ready = child.read()["ready"]
            setups.append(time.perf_counter() - started)
            if not ready:
                raise RuntimeError(
                    f"{workload.name}: the first answer is wrong; "
                    "refusing to measure a broken library"
                )
            if attempt < repeats - 1:
                child.stop()
        child.call(cmd="run", rounds=workload.warmup_rounds)
        ops = child.call(cmd="run", seconds=seconds)["ops"]
        report = child.stop()
    except BaseException:
        if child is not None:
            child.kill()
        raise
    return {"setups": setups, "ops": ops, "child": report}


def pooled(latencies: List[float]) -> Dict[str, Optional[float]]:
    """Whole-run percentiles in ms, each only where the sample supports
    it; printed beside the quiet-slice numbers, never bounded."""
    return {
        "count": len(latencies),
        "p50_ms": _ms(percentile(latencies, 50)),
        "p95_ms": _ms(percentile(latencies, 95)),
        "p99_ms": _ms(percentile(latencies, 99)),
    }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1000.0


def end_to_end(workload, raw: Dict) -> Dict:
    """The end-to-end metrics of one run, from its raw material.

    A failed or wrong operation counts in ``failed`` and contributes to
    no latency and no throughput number.  Throughput and latency are
    read off the run's quiet slices (:func:`~.stats.sliced`): a slice is
    a fixed number of steps for a served workload, one round for a
    library one.  A trailing slice the deadline cut short is left out.
    """
    slices: Dict[int, List] = {}
    if workload.kind == "served":
        records = raw["records"]
        attempted = len(records)
        good = [r for r in records if r["ok"]]
        for r in good:
            latency = r["end"] - r["start"] if r["op"] == "solve" else None
            slices.setdefault(r["step"] // workload.slice_steps, []).append(
                (r["start"], r["end"], latency)
            )
        whole = (records[-1]["step"] + 1) // workload.slice_steps
        solves = [item[2] for s in slices.values() for item in s if item[2]]
        mutations = [
            r["end"] - r["start"] for r in good if r["op"] != "solve"
        ]
        prefix, prefix_ops = raw["prefix"]
        retrievals = (
            prefix["service"]["retrievals"]
            - raw["baseline"]["service"]["retrievals"]
        ) / max(1, prefix_ops)
    else:
        ops = raw["ops"]
        attempted = len(ops)
        good = [op for op in ops if op[5]]
        for position, (_cell, load_s, start, end, _count, ok) in enumerate(ops):
            if ok:
                slices.setdefault(position // len(workload.cells), []).append(
                    (start - load_s, end, end - start)
                )
        whole = len(ops) // len(workload.cells)
        solves = [op[3] - op[2] for op in good]
        mutations = []
        retrievals = sum(op[4] for op in ops) / len(ops)
    complete = [s for number, s in sorted(slices.items()) if number < whole]
    quiet = sliced(complete or list(slices.values()))
    return {
        "attempted": attempted,
        "failed": attempted - len(good),
        "slices": quiet["slices"],
        "solve": pooled(solves),
        "mutate": pooled(mutations),
        "metrics": {
            "setup_s": statistics.median(raw["setups"]),
            "ops_per_s": quiet["ops_per_s"],
            "solve_p50_ms": _ms(quiet["p50_s"]),
            "solve_p95_ms": _ms(quiet["p95_s"]),
            "retrievals_per_op": retrievals,
            "peak_rss_mb": raw["child"]["peak_rss_kb"] / 1024.0,
        },
    }
