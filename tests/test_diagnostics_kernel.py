"""The pass-kernel contract, once for all four analyzers.

:mod:`repro.diagnostics` holds the registry, the severity gate and the
report base that ``analysis.static``, ``analysis.cost``,
``analysis.concurrency`` and ``analysis.rewrite`` instantiate.  The
first half pins the kernel on toy passes; the second half runs the same
contract against each real analyzer, so a fifth instance only has to
add a row to ``ANALYZERS``.
"""

import pathlib

import pytest

from repro.analysis.concurrency import run_concurrency_analysis
from repro.analysis.concurrency.framework import CONCURRENCY_PASSES
from repro.analysis.cost import run_cost_analysis
from repro.analysis.cost.framework import COST_PASSES
from repro.analysis.rewrite import optimize_program
from repro.analysis.rewrite.framework import OPTIMIZER_PASSES
from repro.analysis.static import run_static_analysis
from repro.analysis.static.framework import STATIC_PASSES
from repro.cli import _load
from repro.datalog.lint import LINT_PASSES
from repro.datalog.parser import parse_program
from repro.datalog.supplementary import supplementary_magic_rewrite
from repro.diagnostics import (
    LEVELS,
    Diagnostic,
    PassRegistry,
    Report,
    run_passes,
    sort_diagnostics,
)

REPO = pathlib.Path(__file__).parent.parent
CORPUS = str(REPO / "tests" / "data" / "concurrency_corpus")

# Trips lint errors, warnings and infos, and is outside the CSL class.
SEEDED = parse_program(
    """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- edge(X, Z), reach(Z, Y).
    orphan(X) :- edge(X, Unused).
    open(X, Y) :- edge(X, Z).
    ?- reach(a, Y).
    """
)


def _example(name):
    """(program, database) of one ``examples/programs`` file."""
    return _load(str(REPO / "examples" / "programs" / f"{name}.dl"), None)


class TestRegistry:
    def test_registration_order_is_execution_order(self):
        registry = PassRegistry("toy")
        ran = []
        for name in ("third", "first", "second"):
            registry.register(name, f"the {name} pass")(
                lambda facts, name=name: ran.append(name) or []
            )
        assert [p.name for p in registry.passes()] == [
            "third", "first", "second",
        ]
        assert run_passes(registry.select(), facts=None) == []
        assert ran == ["third", "first", "second"]

    def test_subset_keeps_registration_order(self):
        registry = PassRegistry("toy")
        for name in ("a", "b", "c"):
            registry.register(name, name)(lambda facts: [])
        assert [p.name for p in registry.select(["c", "a"])] == ["a", "c"]
        assert [p.name for p in registry.select(None)] == ["a", "b", "c"]
        assert registry.select([]) == []

    def test_unknown_name_raises_naming_kind_and_registered(self):
        registry = PassRegistry("toy")
        registry.register("known", "")(lambda facts: [])
        with pytest.raises(KeyError) as excinfo:
            registry.select(["known", "typo"])
        message = str(excinfo.value)
        assert "unknown toy pass(es): ['typo']" in message
        assert "registered: ['known']" in message

    def test_register_returns_the_function_unwrapped(self):
        registry = PassRegistry("toy")

        def check(facts):
            return [Diagnostic("info", "seen", str(facts))]

        assert registry.register("check", "")(check) is check
        assert run_passes(registry.passes(), "x") == check("x")


class TestDiagnostic:
    def test_rule_and_position_render_differently(self):
        bare = Diagnostic("error", "c", "m")
        ruled = Diagnostic("error", "c", "m", "p(X) :- q(X).")
        placed = Diagnostic("error", "c", "m", path="f.py", line=3, col=4)
        assert str(bare) == "error[c]: m"
        assert str(ruled) == "error[c]: m  (in: p(X) :- q(X).)"
        assert str(placed) == "f.py:3: error[c]: m"
        assert bare.to_json() == {
            "level": "error", "code": "c", "message": "m", "rule": None,
        }
        assert ruled.to_json()["rule"] == "p(X) :- q(X)."
        assert placed.to_json() == {
            "level": "error", "code": "c", "message": "m",
            "path": "f.py", "line": 3, "col": 4,
        }

    def test_sort_is_position_then_severity_then_code(self):
        shuffled = [
            Diagnostic("info", "b", "m"),
            Diagnostic("error", "z", "m"),
            Diagnostic("error", "a", "m", "r2"),
            Diagnostic("error", "a", "m", "r1"),
            Diagnostic("warning", "c", "m", path="b.py", line=1),
            Diagnostic("error", "c", "m", path="a.py", line=9),
            Diagnostic("info", "c", "m", path="a.py", line=2),
        ]
        assert [
            (d.path, d.line, d.level, d.code, d.rule)
            for d in sort_diagnostics(shuffled)
        ] == [
            (None, None, "error", "a", "r1"),
            (None, None, "error", "a", "r2"),
            (None, None, "error", "z", None),
            (None, None, "info", "b", None),
            ("a.py", 2, "info", "c", None),
            ("a.py", 9, "error", "c", None),
            ("b.py", 1, "warning", "c", None),
        ]


class TestSeverityGate:
    @pytest.mark.parametrize("worst", LEVELS)
    def test_exceeds_respects_levels(self, worst):
        class Toy(Report):
            def __init__(self, diagnostics):
                self.diagnostics = diagnostics

        report = Toy([Diagnostic(worst, "c", "m"), Diagnostic("info", "i", "m")])
        for fail_on in LEVELS:
            assert report.exceeds(fail_on) == (
                LEVELS.index(worst) <= LEVELS.index(fail_on)
            )
        assert report.has_errors == (worst == "error")
        assert sum(report.counts().values()) == 2
        assert Toy([]).exceeds("info") is False


def _static(passes=None):
    return run_static_analysis(SEEDED, passes=passes)


def _cost(passes=None):
    program, database = _example("flights_cyclic")
    return run_cost_analysis(program, database, passes=passes)


def _concurrency(passes=None):
    return run_concurrency_analysis([CORPUS], passes=passes)


def _optimizer(passes=None):
    program, database = _example("same_generation")
    return optimize_program(
        supplementary_magic_rewrite(program), database, passes=passes
    )


ANALYZERS = {
    "static": (STATIC_PASSES, _static),
    "cost": (COST_PASSES, _cost),
    "concurrency": (CONCURRENCY_PASSES, _concurrency),
    "optimizer": (OPTIMIZER_PASSES, _optimizer),
}


@pytest.fixture(params=sorted(ANALYZERS))
def analyzer(request):
    registry, run = ANALYZERS[request.param]
    return request.param, registry, run


class TestEveryAnalyzer:
    def test_runs_its_whole_registry_in_order(self, analyzer):
        _name, registry, run = analyzer
        assert run().passes_run == [p.name for p in registry.passes()]

    def test_subset_runs_in_registration_order(self, analyzer):
        _name, registry, run = analyzer
        names = [p.name for p in registry.passes()]
        subset = [names[-1], names[0]]
        assert run(passes=subset).passes_run == [names[0], names[-1]]

    def test_unknown_pass_fails_loudly(self, analyzer):
        _name, registry, run = analyzer
        with pytest.raises(KeyError) as excinfo:
            run(passes=["no-such-pass"])
        message = str(excinfo.value)
        assert "no-such-pass" in message
        assert registry.kind in message
        for registered in registry.passes():
            assert registered.name in message

    def test_gate_is_monotone_in_severity(self, analyzer):
        _name, _registry, run = analyzer
        report = run()
        assert report.diagnostics, "the fixture must produce findings"
        counts = report.counts()
        assert set(counts) == set(LEVELS)
        assert sum(counts.values()) == len(report.diagnostics)
        assert report.has_errors == bool(counts["error"])
        assert report.exceeds("error") == bool(counts["error"])
        assert report.exceeds("warning") == bool(
            counts["error"] + counts["warning"]
        )
        assert report.exceeds("info") is True

    def test_every_emitted_code_has_rule_metadata(self, analyzer):
        _name, _registry, run = analyzer
        report = run()
        for diagnostic in report.diagnostics:
            assert diagnostic.code in report.RULE_METADATA

    def test_sarif_validates_with_and_without_artifact(
        self, analyzer, validate_sarif
    ):
        _name, _registry, run = analyzer
        report = run()
        for artifact_uri in (None, "program.dl"):
            document = validate_sarif(report.to_sarif(artifact_uri=artifact_uri))
            (sarif_run,) = document["runs"]
            assert sarif_run["tool"]["driver"]["name"] == report.SARIF_DRIVER
            rules = sarif_run["tool"]["driver"]["rules"]
            assert len(sarif_run["results"]) == len(report.diagnostics)
            for result in sarif_run["results"]:
                assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_lint_program_is_the_first_six_static_passes():
    from repro.datalog.lint import lint_program

    assert STATIC_PASSES.passes()[:6] == list(LINT_PASSES)
    assert len(LINT_PASSES) == 6
    assert lint_program(SEEDED) == run_static_analysis(
        SEEDED, passes=[p.name for p in LINT_PASSES]
    ).diagnostics
