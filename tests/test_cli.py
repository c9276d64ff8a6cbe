"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main

EXAMPLE_PROGRAMS = pathlib.Path(__file__).parent.parent / "examples" / "programs"

PROGRAM = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y, Y1).
?- sg(a, Y).
"""

FACTS = """
up(a, b). up(b, c).
flat(c, c1). flat(a, a1).
down(y, c1). down(y2, y).
"""

CYCLIC_FACTS = """
up(a, b). up(b, a).
flat(a, x).
down(y, x).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.dl"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.dl"
    path.write_text(FACTS)
    return str(path)


class TestSolve:
    def test_default_auto(self, program_file, facts_file, capsys):
        assert main(["solve", program_file, "--facts", facts_file]) == 0
        out = capsys.readouterr()
        assert set(out.out.split()) == {"a1", "y2"}
        assert "tuple retrievals" in out.err

    @pytest.mark.parametrize(
        "method", ["counting", "magic_set", "henschen_naqvi", "naive"]
    )
    def test_named_methods(self, program_file, facts_file, capsys, method):
        assert main(
            ["solve", program_file, "--facts", facts_file, "--method", method]
        ) == 0
        assert set(capsys.readouterr().out.split()) == {"a1", "y2"}

    def test_magic_counting_coordinates(self, program_file, facts_file, capsys):
        assert main(
            ["solve", program_file, "--facts", facts_file,
             "--method", "magic_counting", "--strategy", "recurring",
             "--mode", "independent"]
        ) == 0
        out = capsys.readouterr()
        assert "mc_recurring_independent" in out.err

    def test_inline_facts(self, tmp_path, capsys):
        path = tmp_path / "all.dl"
        path.write_text(PROGRAM + FACTS)
        assert main(["solve", str(path)]) == 0
        assert set(capsys.readouterr().out.split()) == {"a1", "y2"}

    def test_counting_unsafe_reported(self, program_file, tmp_path, capsys):
        facts = tmp_path / "cyclic.dl"
        facts.write_text(CYCLIC_FACTS)
        code = main(
            ["solve", program_file, "--facts", str(facts),
             "--method", "counting"]
        )
        assert code == 1
        assert "unsafe" in capsys.readouterr().err

    def test_non_fact_in_facts_file(self, program_file, tmp_path, capsys):
        facts = tmp_path / "bad.dl"
        facts.write_text("up(X, Y) :- down(Y, X).")
        assert main(["solve", program_file, "--facts", str(facts)]) == 1


class TestAnalyze:
    def test_regular_report(self, program_file, facts_file, capsys):
        assert main(["analyze", program_file, "--facts", facts_file]) == 0
        out = capsys.readouterr().out
        assert "magic graph class: regular" in out
        assert "i_x" in out
        assert "mc_recurring_integrated" in out

    def test_dot_output(self, program_file, facts_file, tmp_path, capsys):
        dot_path = str(tmp_path / "graph.dot")
        assert main(["analyze", program_file, "--facts", facts_file,
                     "--dot", dot_path]) == 0
        text = open(dot_path).read()
        assert text.startswith("digraph query_graph")
        assert "cluster_L" in text

    def test_cyclic_report(self, program_file, tmp_path, capsys):
        facts = tmp_path / "cyclic.dl"
        facts.write_text(CYCLIC_FACTS)
        assert main(["analyze", program_file, "--facts", str(facts)]) == 0
        out = capsys.readouterr().out
        assert "magic graph class: cyclic" in out
        assert "unsafe" in out  # predicted counting cost

    @pytest.mark.parametrize(
        "program", sorted(path.name for path in EXAMPLE_PROGRAMS.glob("*.dl"))
    )
    def test_every_example_program(self, program, capsys):
        # Programs outside the CSL class get the static report's
        # ``not-csl`` reason, not an internal placeholder, and exit 0.
        assert main(["analyze", str(EXAMPLE_PROGRAMS / program)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("goal: ")
        assert "$conjunction" not in captured.out + captured.err

    def test_outside_csl_prints_the_not_csl_reason(self, capsys):
        program = str(EXAMPLE_PROGRAMS / "transitive_closure.dl")
        assert main(["analyze", program]) == 0
        out = capsys.readouterr().out
        assert "info[not-csl]" in out
        assert "has no right-hand (R) conjunct" in out
        assert main(["solve", program]) == 1


class TestRewrite:
    @pytest.mark.parametrize("kind,needle", [
        ("magic", "m_sg__bf(a)."),
        ("supplementary", "sup_"),
        ("counting", "cs_sg(0, a)."),
    ])
    def test_kinds(self, program_file, capsys, kind, needle):
        assert main(["rewrite", program_file, "--kind", kind]) == 0
        assert needle in capsys.readouterr().out

    def test_mc_rewrite_needs_facts(self, program_file, facts_file, capsys):
        assert main(
            ["rewrite", program_file, "--facts", facts_file, "--kind", "mc"]
        ) == 0
        out = capsys.readouterr().out
        assert "rc_sg(" in out
        assert "pc_sg(" in out


class TestOptimize:
    @pytest.fixture
    def optimizable_file(self, tmp_path):
        path = tmp_path / "optimizable.dl"
        path.write_text(
            "p(X) :- e(X, Y), e(X, Y).\n"
            "junk(X) :- e(X, X).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        return str(path)

    def test_text_diff_report(self, optimizable_file, capsys):
        assert main(["optimize", optimizable_file]) == 0
        captured = capsys.readouterr()
        assert "--- original (2 rules)" in captured.out
        assert "- junk(X) :- e(X, X)." in captured.out
        assert "+ p(X) :- e(X, Y)." in captured.out
        assert "rule(s) removed" in captured.err

    def test_supplementary_rewrite_then_optimize(
        self, program_file, facts_file, capsys
    ):
        assert main(
            ["optimize", program_file, "--facts", facts_file,
             "--rewrite", "supplementary"]
        ) == 0
        out = capsys.readouterr().out
        assert "inlined-rule" in out

    def test_json_format(self, optimizable_file, capsys):
        import json

        assert main(["optimize", optimizable_file, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["changed"] is True
        assert document["counts"]["rules_removed"] == 1

    def test_sarif_format(self, optimizable_file, capsys):
        import json

        assert main(["optimize", optimizable_file, "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-optimizer"

    def test_clean_program_reports_no_change(
        self, program_file, facts_file, capsys
    ):
        assert main(["optimize", program_file, "--facts", facts_file]) == 0
        assert "no change" in capsys.readouterr().out


class TestAnalyzeAll:
    def test_merged_sarif_has_one_run_per_analyzer(
        self, program_file, facts_file, capsys
    ):
        import json

        assert main(
            ["analyze", program_file, "--facts", facts_file, "--all",
             "--format", "sarif"]
        ) == 0
        log = json.loads(capsys.readouterr().out)
        names = [run["tool"]["driver"]["name"] for run in log["runs"]]
        assert names == [
            "repro-static-analyzer",
            "repro-cost-analyzer",
            "repro-optimizer",
            "repro-concurrency-analyzer",
        ]

    def test_text_sections_and_stderr_counts(
        self, program_file, facts_file, capsys
    ):
        assert main(
            ["analyze", program_file, "--facts", facts_file, "--all"]
        ) == 0
        captured = capsys.readouterr()
        assert "== repro-lint ==" in captured.out
        assert "-- repro-lint-py:" in captured.err

    def test_fail_on_spans_the_merged_set(self, tmp_path):
        path = tmp_path / "warny.dl"
        path.write_text(
            "p(X) :- e(X, Y).\n"
            "junk(X) :- ghost(X).\n"
            "e(a, b).\n"
            "?- p(X).\n"
        )
        assert main(["analyze", str(path), "--all"]) == 0
        assert main(
            ["analyze", str(path), "--all", "--fail-on", "warning"]
        ) == 1


class TestExplain:
    def test_proof_printed(self, program_file, facts_file, capsys):
        assert main(
            ["explain", program_file, "sg(a, y2)", "--facts", facts_file]
        ) == 0
        out = capsys.readouterr()
        assert out.out.startswith("sg(a, y2)")
        assert "[fact]" in out.out
        assert "proof depth" in out.err

    def test_underivable_fact(self, program_file, facts_file, capsys):
        assert main(
            ["explain", program_file, "sg(a, nope)", "--facts", facts_file]
        ) == 1
        assert "error" in capsys.readouterr().err

    def test_non_ground_fact_rejected(self, program_file, facts_file, capsys):
        assert main(
            ["explain", program_file, "sg(a, Y)", "--facts", facts_file]
        ) == 1


class TestReport:
    def test_report_runs(self, capsys):
        assert main(["report", "--scale", "1"]) == 0
        out = capsys.readouterr()
        assert "counting" in out.out and "magic_set" in out.out
        assert "hierarchy holds" in out.err

    def test_report_scale_flag(self, capsys):
        assert main(["report", "--scale", "1", "--seed", "3"]) == 0
        assert "seed 3" in capsys.readouterr().out


class TestGenerate:
    def test_round_trip_through_solve(self, tmp_path, capsys):
        facts = str(tmp_path / "wl.dl")
        assert main(["generate", "--kind", "cyclic", "--scale", "1",
                     "-o", facts]) == 0
        program = str(tmp_path / "wl.program.dl")
        # The generated pair must be directly solvable.
        assert main(["solve", program, "--facts", facts,
                     "--method", "magic_set"]) == 0
        out = capsys.readouterr()
        assert "magic_set" in out.err

    def test_counting_unsafe_on_generated_cyclic(self, tmp_path, capsys):
        facts = str(tmp_path / "wl.dl")
        main(["generate", "--kind", "cyclic", "--scale", "1", "-o", facts])
        program = str(tmp_path / "wl.program.dl")
        assert main(["solve", program, "--facts", facts,
                     "--method", "counting"]) == 1

    def test_grid_kind(self, tmp_path, capsys):
        facts = str(tmp_path / "grid.dl")
        assert main(["generate", "--kind", "grid", "--scale", "1",
                     "-o", facts]) == 0
        assert "wrote" in capsys.readouterr().err


class TestErrors:
    def test_missing_goal(self, tmp_path, capsys):
        path = tmp_path / "nogoal.dl"
        path.write_text("p(a).")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestBatch:
    def test_batch_explicit_sources(self, program_file, facts_file, capsys):
        assert main(["batch", program_file, "--facts", facts_file,
                     "--sources", "a,b"]) == 0
        out = capsys.readouterr()
        rows = {tuple(line.split("\t")) for line in out.out.splitlines()}
        assert ("a", "a1") in rows
        assert ("a", "y2") in rows
        assert ("b", "y") in rows
        assert "shared_magic" in out.err
        assert "compiled" in out.err
        assert "tuple retrievals" in out.err

    def test_batch_defaults_to_goal_source(self, program_file, facts_file,
                                           capsys):
        assert main(["batch", program_file, "--facts", facts_file]) == 0
        out = capsys.readouterr()
        sources = {line.split("\t")[0] for line in out.out.splitlines()}
        assert sources == {"a"}

    def test_batch_sources_file(self, program_file, facts_file, tmp_path,
                                capsys):
        sources_path = tmp_path / "sources.txt"
        sources_path.write_text("a\nb\n")
        assert main(["batch", program_file, "--facts", facts_file,
                     "--sources-file", str(sources_path)]) == 0
        out = capsys.readouterr()
        sources = {line.split("\t")[0] for line in out.out.splitlines()}
        assert sources == {"a", "b"}

    def test_batch_counting_method(self, program_file, facts_file, capsys):
        assert main(["batch", program_file, "--facts", facts_file,
                     "--sources", "a", "--method", "counting"]) == 0
        out = capsys.readouterr()
        assert "counting" in out.err

    def test_batch_counting_unsafe_on_cycle(self, program_file, tmp_path,
                                            capsys):
        cyclic = tmp_path / "cyclic.dl"
        cyclic.write_text(CYCLIC_FACTS)
        assert main(["batch", program_file, "--facts", str(cyclic),
                     "--sources", "a", "--method", "counting"]) == 1
        assert "error" in capsys.readouterr().err

    def test_batch_matches_solve_per_source(self, program_file, facts_file,
                                            capsys):
        assert main(["batch", program_file, "--facts", facts_file,
                     "--sources", "a"]) == 0
        batch_out = capsys.readouterr()
        assert main(["solve", program_file, "--facts", facts_file]) == 0
        solve_out = capsys.readouterr()
        batch_answers = {
            line.split("\t")[1] for line in batch_out.out.splitlines()
        }
        assert batch_answers == set(solve_out.out.split())


class TestServe:
    def test_standbys_require_cluster_mode(self, program_file, facts_file,
                                           capsys):
        code = main(["serve", program_file, "--facts", facts_file,
                     "--standbys", "1"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_flags_parse(self, program_file):
        # The cluster/executor split: --workers N spawns a fleet,
        # --executor-threads sizes the per-process batch pool.  Parsing
        # must accept both (running the server would block; covered by
        # the cluster e2e tests).
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", program_file, "--workers", "3",
                  "--standbys", "1", "--executor-threads", "4", "--help"])
        assert excinfo.value.code == 0
