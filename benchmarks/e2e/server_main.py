"""The child process that hosts the program under test.

Started by the harness as ``python -m benchmarks.e2e.server_main`` — a
fresh interpreter, as the ``spawn`` start method would give, with
``PYTHONHASHSEED=0`` so that retrieval counts (which follow set
iteration order) repeat.  It speaks JSON lines on stdin/stdout: the
first line in is the spec, then commands; anything the hosted code
prints goes to stderr.

Two modes:

* ``serve`` builds exactly what ``python -m repro serve`` builds —
  ``SolverService(database)`` behind ``SolverServer`` at their defaults
  on an ephemeral loopback port — from a program text and a facts text,
  reports the port, and serves until told to stop.  With ``trace`` the
  service is a :class:`~benchmarks.e2e.tracing.TracedService`;
* ``library`` calls the library in-process: whole seeded rounds over
  the spec's cells, each answer checked against the oracle's.

On ``stop`` either mode reports its peak resident set (and its spans).
"""

from __future__ import annotations

import asyncio
import json
import random
import resource
import sys
import time
from typing import Dict, List, Optional

from repro import solve
from repro.core.csl import CSLQuery
from repro.core.reduced_sets import Mode, Strategy
from repro.datalog.database import Database
from repro.datalog.evaluation import answer_tuples
from repro.datalog.io import loads_database
from repro.datalog.parser import parse_program
from repro.datalog.relation import CostCounter
from repro.server import SolverServer
from repro.service import SolverService

from .tracing import TracedService
from .workloads import round_plan


class Channel:
    """JSON lines to and from the parent over the original stdio."""

    def __init__(self):
        self._out = sys.stdout
        self._in = sys.stdin
        sys.stdout = sys.stderr  # hosted code must not corrupt the channel

    def send(self, message: Dict) -> None:
        self._out.write(json.dumps(message) + "\n")
        self._out.flush()

    def recv(self) -> Optional[Dict]:
        line = self._in.readline()
        return json.loads(line) if line else None


def _peak_rss_kb() -> int:
    """This process's peak resident set in kilobytes.

    ``VmHWM`` is the high-water mark of the address space this
    interpreter got at ``exec``.  ``ru_maxrss`` is not: Linux carries the
    forking parent's peak across ``exec``, so a child of a 90 MB harness
    would report 90 MB however little it used itself.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _final_report(spans: List[Dict]) -> Dict:
    return {"peak_rss_kb": _peak_rss_kb(), "spans": spans}


async def serve(spec: Dict, channel: Channel) -> None:
    program = parse_program(spec["program"])
    database = loads_database(spec["facts"])
    spans: List[Dict] = []
    if spec["trace"]:
        service = TracedService(database, spans)
    else:
        service = SolverService(database)
    server = SolverServer(service, program=program, port=0)
    await server.start()
    channel.send({"port": server.port})
    loop = asyncio.get_running_loop()
    try:
        while True:
            command = await loop.run_in_executor(None, channel.recv)
            if command is None or command["cmd"] == "stop":
                break
            if command["cmd"] == "clock":
                channel.send({"clock": time.perf_counter()})
    finally:
        await server.stop()
    channel.send(_final_report(spans))


class LibraryRunner:
    """Runs a library workload's cells; every op is timed and verified."""

    def __init__(self, spec: Dict):
        self.cells = spec["cells"]
        self.datasets = spec["datasets"]
        self.rng = random.Random(spec["seed"])
        self.queries = {}
        self.programs = {}
        self.expected = {}
        for name, data in self.datasets.items():
            for source in data["sources"]:
                key = (name, source)
                self.queries[key] = CSLQuery(
                    data["left"], data["exit"], data["right"], source
                )
                self.programs[key] = parse_program(
                    data["program"].format(source=source)
                )
                self.expected[key] = frozenset(spec["expected"][name][source])

    def run_cell(self, index: int, source: str) -> List:
        """``[cell, load_s, start, end, retrievals, ok]`` for one op."""
        cell = self.cells[index]
        key = (cell["dataset"], source)
        if cell["kind"] == "solve":
            load, start, end, retrievals, answers = self._solve(cell, key)
        else:
            load, start, end, retrievals, answers = self._engine(cell, key)
        return [index, load, start, end, retrievals, answers == self.expected[key]]

    def _solve(self, cell: Dict, key):
        counter = CostCounter()
        options = {}
        if "strategy" in cell:
            options = {
                "strategy": Strategy(cell["strategy"]),
                "mode": Mode(cell["mode"]),
            }
        query = self.queries[key]
        start = time.perf_counter()
        result = solve(query, method=cell["method"], counter=counter, **options)
        end = time.perf_counter()
        return 0.0, start, end, counter.retrievals, result.answers

    def _engine(self, cell: Dict, key):
        data = self.datasets[key[0]]
        loading = time.perf_counter()
        database = Database(CostCounter(), backend=cell["backend"])
        for name, part in (("l", "left"), ("e", "exit"), ("r", "right")):
            database.create(name, 2).add_all(tuple(p) for p in data[part])
        start = time.perf_counter()
        tuples = answer_tuples(
            self.programs[key], database, engine=cell["engine"]
        )
        end = time.perf_counter()
        return (
            start - loading,
            start,
            end,
            database.counter.retrievals,
            frozenset(value for (value,) in tuples),
        )

    def run_round(self) -> List[List]:
        plan = round_plan(self.cells, self.datasets, self.rng)
        return [self.run_cell(index, source) for index, source in plan]


def library(spec: Dict, channel: Channel) -> None:
    runner = LibraryRunner(spec)
    first = spec["cells"][0]
    source = spec["datasets"][first["dataset"]]["sources"][0]
    channel.send({"ready": runner.run_cell(0, source)[-1]})
    while True:
        command = channel.recv()
        if command is None or command["cmd"] == "stop":
            break
        ops: List[List] = []
        if "rounds" in command:
            for _ in range(command["rounds"]):
                ops.extend(runner.run_round())
        else:
            # Whole rounds: every cell equally often, so the retrieval
            # total per op does not depend on where the deadline fell.
            deadline = time.perf_counter() + command["seconds"]
            while not ops or time.perf_counter() < deadline:
                ops.extend(runner.run_round())
        channel.send({"ops": ops})
    channel.send(_final_report([]))


def main() -> None:
    channel = Channel()
    spec = channel.recv()
    if spec["mode"] == "serve":
        asyncio.run(serve(spec, channel))
    else:
        library(spec, channel)


if __name__ == "__main__":
    main()
