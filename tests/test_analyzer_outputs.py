"""Output equality of the four analyzers across the pass-kernel refactor.

``tests/data/analyzer_outputs.json`` was recorded at the commit *before*
the analyzers were rebuilt on :mod:`repro.diagnostics` (by running this
file as a script there).  It holds the text, JSON and SARIF renderings
of the static, cost and optimizer reports over every
``examples/programs/*.dl`` and of the concurrency report over the
seeded-violation corpus; the test re-collects them and requires
equality, so a change to the shared kernel that moves a key, an
ordering or a location convention fails here rather than in a CI
consumer.  Wall-clock fields (``optimize_ms``/``optimizeMs``) are
dropped on both sides.

Re-record (only when an output change is intended)::

    PYTHONPATH=src python tests/test_analyzer_outputs.py
"""

import json
import os
import pathlib

from repro.analysis.concurrency import run_concurrency_analysis
from repro.analysis.cost import run_cost_analysis
from repro.analysis.rewrite import optimize_program
from repro.analysis.static import run_static_analysis
from repro.cli import _load
from repro.datalog.parser import parse_program
from repro.datalog.supplementary import supplementary_magic_rewrite

REPO = pathlib.Path(__file__).parent.parent
RECORDED = REPO / "tests" / "data" / "analyzer_outputs.json"
TIMING_KEYS = ("optimize_ms", "optimizeMs")

SEEDED_LINT_PROGRAM = """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- edge(X, Z), reach(Z, Y).
orphan(X) :- edge(X, Unused).
open(X, Y) :- edge(X, Z).
?- reach(a, Y).
"""


def _without_timing(value):
    if isinstance(value, dict):
        return {
            key: _without_timing(item)
            for key, item in value.items()
            if key not in TIMING_KEYS
        }
    if isinstance(value, list):
        return [_without_timing(item) for item in value]
    return value


def _renderings(report, lines, artifact_uri=None):
    rendered = {
        "text": [str(line) for line in lines],
        "json": report.to_json(),
        "sarif": report.to_sarif(),
    }
    if artifact_uri is not None:
        rendered["sarif_with_artifact"] = report.to_sarif(
            artifact_uri=artifact_uri
        )
    return rendered


def collect_outputs():
    """Every rendering under test, keyed by analyzer then input.

    Paths are taken relative to the repository root so the recorded
    file does not depend on where the checkout lives.
    """
    previous = os.getcwd()
    os.chdir(REPO)
    try:
        outputs = {"static": {}, "cost": {}, "optimizer": {}}
        for path in sorted(pathlib.Path("examples/programs").glob("*.dl")):
            uri = path.as_posix()
            program, database = _load(uri, None)
            static = run_static_analysis(program, database)
            outputs["static"][uri] = _renderings(
                static, static.diagnostics, uri
            )
            cost = run_cost_analysis(program, database)
            outputs["cost"][uri] = _renderings(cost, cost.diagnostics, uri)
            # The plain examples are already tight; their supplementary
            # rewrites are what the optimizer has real work on.
            for label, target in (
                (uri, program),
                (uri + "#supplementary", supplementary_magic_rewrite(program)),
            ):
                optimized = optimize_program(target, database)
                outputs["optimizer"][label] = _renderings(
                    optimized, optimized.traces, uri
                )
        # The examples lint nearly clean; one seeded program exercises
        # the rule-anchored findings (logical locations in SARIF).
        seeded = run_static_analysis(parse_program(SEEDED_LINT_PROGRAM))
        outputs["static"]["<seeded>"] = _renderings(
            seeded, seeded.diagnostics, "seeded.dl"
        )
        concurrency = run_concurrency_analysis(
            ["tests/data/concurrency_corpus"]
        )
        outputs["concurrency"] = _renderings(
            concurrency, concurrency.diagnostics
        )
    finally:
        os.chdir(previous)
    # Through JSON once so tuples/lists compare like the recorded file.
    return json.loads(json.dumps(_without_timing(outputs), sort_keys=True))


def test_outputs_equal_the_recording():
    recorded = json.loads(RECORDED.read_text())
    collected = collect_outputs()
    assert collected.keys() == recorded.keys()
    for analyzer in recorded:
        assert collected[analyzer] == recorded[analyzer], analyzer


if __name__ == "__main__":
    RECORDED.write_text(
        json.dumps(collect_outputs(), indent=1, sort_keys=True) + "\n"
    )
