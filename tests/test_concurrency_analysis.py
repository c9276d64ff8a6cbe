"""The concurrency race detector, end to end.

Three layers of coverage:

* the **seeded-violation corpus** under ``tests/data/concurrency_corpus``
  — every fixture plants one named race/deadlock/asyncio shape and the
  analyzer must flag exactly it (rule id and witness location);
* **self-analysis** — the shipped ``src/repro`` tree must certify clean
  at the error level, which is the same gate CI runs via
  ``repro lint-py src/repro --fail-on error``;
* the **SARIF surface** — golden-structure checks plus validation
  against the vendored SARIF 2.1.0 schema subset shared with the
  Datalog analyzer.
"""

import json
import pathlib

import pytest

from repro.analysis.concurrency import (
    CONCURRENCY_PASSES,
    RULE_METADATA,
    CodebaseFacts,
    GuardedBy,
    build_module_model,
    lock_graph_edges,
    run_concurrency_analysis,
)
from repro.cli import main

REPO = pathlib.Path(__file__).parent.parent
CORPUS = REPO / "tests" / "data" / "concurrency_corpus"
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def corpus_report():
    return run_concurrency_analysis([str(CORPUS)])


def _by_file(report, stem):
    path = str(CORPUS / f"{stem}.py")
    return [d for d in report.diagnostics if d.path == path]


# --- the seeded-violation corpus ---------------------------------------


class TestCorpus:
    def test_corpus_is_nonempty(self, corpus_report):
        assert len(corpus_report.files) >= 13

    def test_unguarded_write(self, corpus_report):
        findings = _by_file(corpus_report, "unguarded_write")
        codes = {d.code for d in findings}
        # ``self.count = self.count + 1`` is both a read and a write.
        assert codes == {"unguarded-read", "unguarded-write"}
        assert all(d.line == 15 for d in findings)
        assert all(d.level == "error" for d in findings)
        assert "self.count" in findings[0].message

    def test_unguarded_read_via_marker_annotation(self, corpus_report):
        (finding,) = _by_file(corpus_report, "unguarded_read")
        assert finding.code == "unguarded-read"
        assert finding.line == 22
        assert "_items" in finding.message

    def test_access_after_with_block_escapes_the_guard(self, corpus_report):
        (finding,) = _by_file(corpus_report, "guard_escape")
        assert finding.code == "unguarded-read"
        assert finding.line == 19

    def test_locked_helper_called_without_lock(self, corpus_report):
        (finding,) = _by_file(corpus_report, "unlocked_helper_call")
        assert finding.code == "unguarded-call"
        assert finding.line == 25
        assert "_bump_locked" in finding.message

    def test_lock_order_cycle_with_witness(self, corpus_report):
        (finding,) = _by_file(corpus_report, "lock_order_cycle")
        assert finding.code == "lock-order-cycle"
        assert "Ledger._accounts" in finding.message
        assert "Ledger._audit" in finding.message
        # The witness carries concrete acquisition sites.
        assert "lock_order_cycle.py:21" in finding.message
        assert "lock_order_cycle.py:27" in finding.message

    def test_cycle_across_classes(self, corpus_report):
        (finding,) = _by_file(corpus_report, "cross_class_cycle")
        assert finding.code == "lock-order-cycle"
        assert "Scheduler._lock" in finding.message
        assert "Worker._lock" in finding.message

    def test_relock_of_non_reentrant_lock(self, corpus_report):
        (finding,) = _by_file(corpus_report, "relock")
        assert finding.code == "relock"
        assert finding.line == 22
        assert "Store.size" in finding.message

    def test_blocking_calls_in_async_def(self, corpus_report):
        findings = _by_file(corpus_report, "async_blocking")
        assert [(d.code, d.line) for d in findings] == [
            ("blocking-in-async", 14),
            ("blocking-in-async", 15),
        ]
        assert "time.sleep" in findings[0].message
        assert "subprocess.run" in findings[1].message

    def test_threading_lock_in_async_def(self, corpus_report):
        findings = _by_file(corpus_report, "async_lock_acquire")
        codes = {d.code for d in findings}
        assert "blocking-in-async" in codes
        assert "unstructured-acquire" in codes
        blocking_lines = {
            d.line for d in findings if d.code == "blocking-in-async"
        }
        assert blocking_lines == {17, 21}

    def test_await_while_holding_sync_lock(self, corpus_report):
        findings = _by_file(corpus_report, "await_under_lock")
        held = [d for d in findings if d.code == "await-under-lock"]
        assert len(held) == 1
        assert held[0].line == 20
        assert "_lock" in held[0].message

    def test_unstructured_acquire_release(self, corpus_report):
        findings = _by_file(corpus_report, "unstructured_acquire")
        warnings = [d for d in findings if d.code == "unstructured-acquire"]
        assert [d.line for d in warnings] == [17, 19]
        assert all(d.level == "warning" for d in warnings)
        # The raw acquire does not count as holding the lock, so the
        # write between acquire() and release() is also flagged.
        assert any(d.code == "unguarded-write" for d in findings)

    def test_loop_confined_attr_escaping_to_executor(self, corpus_report):
        (finding,) = _by_file(corpus_report, "loop_confined_escape")
        assert finding.code == "loop-confined-escape"
        assert "_sessions" in finding.message

    def test_clean_fixture_has_zero_findings(self, corpus_report):
        assert _by_file(corpus_report, "clean") == []

    def test_race_ok_comment_suppresses(self, corpus_report):
        assert _by_file(corpus_report, "suppressed") == []
        assert corpus_report.suppressed >= 1

    def test_corpus_covers_at_least_eight_rules(self, corpus_report):
        assert len({d.code for d in corpus_report.diagnostics}) >= 8

    def test_every_emitted_code_has_metadata(self, corpus_report):
        for diagnostic in corpus_report.diagnostics:
            assert diagnostic.code in RULE_METADATA

    def test_corpus_lock_edges_include_both_cycle_directions(
        self, corpus_report
    ):
        assert "Ledger._accounts -> Ledger._audit" in corpus_report.lock_edges
        assert "Ledger._audit -> Ledger._accounts" in corpus_report.lock_edges


# --- self-analysis: the shipped tree certifies clean -------------------


class TestSelfAnalysis:
    @pytest.fixture(scope="class")
    def self_report(self):
        return run_concurrency_analysis([str(SRC)])

    def test_shipped_tree_has_zero_findings(self, self_report):
        assert [str(d) for d in self_report.diagnostics] == []
        assert not self_report.has_errors

    def test_annotations_are_actually_loaded(self, self_report):
        # A clean report is only meaningful if the analyzer saw the
        # runtime annotations; a regression that stopped parsing them
        # would also report zero findings.  The floor covers the
        # maintenance/plan-maintainer guards plus the repro.cluster
        # fleet/front annotations and the ServiceMetrics counters, not
        # just the original serving-stack ones.  (82 guarded attributes
        # in the shipped tree.)
        assert self_report.guarded_attributes >= 82

    def test_optimizer_package_is_inside_the_gate(self, self_report):
        # The analysis.rewrite package ships pure functions (no locks),
        # but the gate must actually scan it: a clean verdict that
        # skipped the newest package would be vacuous there.
        scanned = {str(path) for path in self_report.files}
        assert any("analysis/rewrite" in path for path in scanned)
        assert any("service/metrics" in path for path in scanned)

    def test_shipped_lock_graph_is_acyclic_and_expected(self, self_report):
        assert (
            "SolverService._lock -> PlanCache._lock" in self_report.lock_edges
        )
        # The maintenance path nests PlanMaintainer._lock around
        # MaintenanceState._lock; the analyzer must see that edge (and
        # no reversal of it) or the lock-order pass is vacuous there.
        assert (
            "PlanMaintainer._lock -> MaintenanceState._lock"
            in self_report.lock_edges
        )
        # The cluster fleet registers a worker handle while holding its
        # own lock (spawn/attach), and handles never call back into the
        # fleet — the analyzer must see exactly this direction or the
        # failover paths' deadlock-freedom argument is unchecked.
        assert (
            "WorkerFleet._lock -> WorkerHandle._lock"
            in self_report.lock_edges
        )
        forward = {tuple(edge.split(" -> ")) for edge in self_report.lock_edges}
        assert not any((b, a) in forward for a, b in forward)

    def test_deliberate_race_is_suppressed_not_invisible(self, self_report):
        assert self_report.suppressed >= 1


# --- framework behavior ------------------------------------------------


class TestFramework:
    def test_default_pipeline_order(self):
        names = [p.name for p in CONCURRENCY_PASSES.passes()]
        assert names == [
            "guarded-by",
            "loop-confined",
            "structured-acquisition",
            "lock-order",
            "asyncio-hygiene",
        ]

    def test_pass_subset_selection(self, corpus_report):
        report = run_concurrency_analysis(
            [str(CORPUS)], passes=["asyncio-hygiene"]
        )
        assert report.passes_run == ["asyncio-hygiene"]
        assert {d.code for d in report.diagnostics} <= {
            "blocking-in-async",
            "await-under-lock",
        }
        assert len(report.diagnostics) < len(corpus_report.diagnostics)

    def test_unknown_pass_fails_loudly(self):
        with pytest.raises(KeyError, match="no-such-pass"):
            run_concurrency_analysis([str(CORPUS)], passes=["no-such-pass"])

    def test_parse_error_becomes_a_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = run_concurrency_analysis([str(bad)])
        (finding,) = report.diagnostics
        assert finding.code == "parse-error"
        assert finding.level == "error"
        assert finding.path == str(bad)

    def test_report_json_round_trips(self, corpus_report):
        document = json.loads(json.dumps(corpus_report.to_json()))
        assert document["counts"]["error"] == corpus_report.counts()["error"]
        assert document["guarded_attributes"] > 0
        assert len(document["diagnostics"]) == len(corpus_report.diagnostics)

    def test_guardedby_marker_is_runtime_inert(self):
        assert GuardedBy["_lock"] is GuardedBy
        assert GuardedBy["_a", "_b"] is GuardedBy


# --- the module model (annotation parsing) -----------------------------


class TestModel:
    def test_guard_comment_and_marker_and_loop(self):
        source = (
            "import threading\n"
            "from repro.analysis.concurrency import GuardedBy\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.a = 0  # guarded-by: _lock\n"
            "        self.b: GuardedBy['_lock'] = {}\n"
            "        self.c = []  # guarded-by: @loop\n"
        )
        model = build_module_model("m.py", source)
        cls = model.classes["C"]
        assert cls.guards == {"a": "_lock", "b": "_lock", "c": "@loop"}
        assert "_lock" in cls.lock_attrs

    def test_lock_attr_types_resolve_cross_class_edges(self):
        source = (
            "import threading\n"
            "class Inner:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "class Outer:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.inner = Inner()\n"
            "    def touch(self):\n"
            "        with self._lock:\n"
            "            self.inner.poke()\n"
        )
        model = build_module_model("m.py", source)
        facts = CodebaseFacts([model])
        edges = lock_graph_edges(facts)
        assert ("Outer._lock", "Inner._lock") in edges

    def test_rlock_is_reentrant_in_the_model(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
        )
        model = build_module_model("m.py", source)
        assert model.classes["C"].lock_attrs["_lock"].reentrant


# --- SARIF -------------------------------------------------------------


class TestSarif:
    def test_sarif_validates_against_vendored_schema(
        self, corpus_report, validate_sarif
    ):
        validate_sarif(corpus_report.to_sarif())

    def test_empty_report_also_validates(self, validate_sarif):
        report = run_concurrency_analysis([str(SRC / "server")])
        validate_sarif(report.to_sarif())

    def test_structure_and_level_mapping(self, corpus_report):
        document = corpus_report.to_sarif()
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-concurrency-analyzer"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert rule_ids == {d.code for d in corpus_report.diagnostics}
        levels = {result["level"] for result in run["results"]}
        assert levels <= {"error", "warning", "note"}
        assert len(run["results"]) == len(corpus_report.diagnostics)

    def test_results_carry_physical_locations(self, corpus_report):
        document = corpus_report.to_sarif()
        (run,) = document["runs"]
        for result, diagnostic in zip(
            run["results"], corpus_report.diagnostics
        ):
            (location,) = result["locations"]
            physical = location["physicalLocation"]
            assert physical["artifactLocation"]["uri"] == diagnostic.path
            assert physical["region"]["startLine"] == diagnostic.line


# --- the CLI gate ------------------------------------------------------


class TestCli:
    def test_self_gate_exits_zero(self, capsys):
        assert main(["lint-py", str(SRC), "--fail-on", "error"]) == 0
        err = capsys.readouterr().err
        assert "0 error(s)" in err
        assert "guarded attribute(s)" in err

    def test_corpus_fails_the_error_gate(self, capsys):
        assert main(["lint-py", str(CORPUS), "--fail-on", "error"]) == 1
        out = capsys.readouterr().out
        assert "unguarded-write" in out
        assert "lock-order-cycle" in out

    def test_warning_gate_catches_unstructured_acquire(self, capsys):
        target = str(CORPUS / "unstructured_acquire.py")
        assert main(["lint-py", target, "--fail-on", "warning"]) == 1
        assert "unstructured-acquire" in capsys.readouterr().out

    def test_json_format_round_trips(self, capsys):
        assert main(["lint-py", str(CORPUS), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["counts"]["error"] > 0
        assert any(
            d["code"] == "relock" for d in document["diagnostics"]
        )

    def test_sarif_format_round_trips(self, capsys):
        assert main(["lint-py", str(CORPUS), "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        assert any(
            result["ruleId"] == "blocking-in-async"
            for result in run["results"]
        )
