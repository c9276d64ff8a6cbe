"""Shared infrastructure for the benchmark suite.

Each benchmark module reproduces one table or figure of the paper: it
measures tuple-retrieval costs (the paper's cost unit) with the
instrumented relations, asserts the *shape* the paper reports (who wins,
by roughly what factor, where the crossovers are), wall-clocks the
headline methods with pytest-benchmark, and registers a rendered table.

Registered tables are printed in the terminal summary (so they survive
pytest's output capture) and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
from typing import Dict, List, Tuple

import pytest

_REPORTS: List[Tuple[str, str]] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def add_report(name: str, text: str) -> None:
    """Register a rendered table for the terminal summary and persist it."""
    _REPORTS.append((name, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    path = _RESULTS_DIR / f"{name}.txt"
    path.write_text(text)


def append_record(path: pathlib.Path, kind: str, mode: str, payload) -> None:
    """Append one stamped record to the JSON list at ``path``.

    The file only grows: earlier records are never rewritten, and a file
    that still holds the one unstamped snapshot earlier runs overwrote
    keeps it as its first entry.  The stamp says where the numbers came
    from: commit (and whether ``src`` had uncommitted changes on top of
    it), Python version, core count, load average and the run's mode.
    """
    records = json.loads(path.read_text()) if path.exists() else []
    if isinstance(records, dict):
        records = [records]
    root = pathlib.Path(__file__).parent.parent

    def git(*args):
        done = subprocess.run(
            ["git", *args],
            cwd=root, capture_output=True, text=True, check=False,
        )
        return done.stdout.strip() if done.returncode == 0 else None

    records.append(
        {
            "kind": kind,
            "commit": git("rev-parse", "--short", "HEAD") or "unknown",
            "dirty": bool(git("status", "--porcelain", "--", "src")),
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "mode": mode,
            **payload,
        }
    )
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=2) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = list(_REPORTS)
    if not reports and _RESULTS_DIR.is_dir():
        # --benchmark-only skips the table-producing tests; fall back to
        # the tables persisted by the last full (or --benchmark-disable)
        # run so every invocation shows the reproduced rows.
        reports = [
            (path.stem, path.read_text())
            for path in sorted(_RESULTS_DIR.glob("*.txt"))
        ]
        if reports:
            terminalreporter.section(
                "paper tables (persisted from the last full run; re-run "
                "with --benchmark-disable to refresh)"
            )
    else:
        if not reports:
            return
        terminalreporter.section("paper tables, reproduced (tuple retrievals)")
    for _name, text in reports:
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def measured():
    """Session-wide cache: (generator-name, scale, seed, methods) ->
    Measurement.  Measuring all methods on a large cyclic instance is
    the expensive part; every module shares this cache."""
    from repro.analysis.runner import measure
    from repro.workloads.generators import (
        acyclic_workload,
        cyclic_workload,
        regular_workload,
    )

    generators = {
        "regular": regular_workload,
        "acyclic": acyclic_workload,
        "cyclic": cyclic_workload,
    }
    cache: Dict = {}

    def get(kind: str, scale: int, seed: int = 0, methods=None):
        key = (kind, scale, seed, tuple(methods) if methods else None)
        if key not in cache:
            query = generators[kind](scale=scale, seed=seed)
            cache[key] = measure(query, methods=methods)
        return cache[key]

    return get
