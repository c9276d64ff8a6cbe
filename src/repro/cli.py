"""Command-line interface.

The main subcommands, all operating on textual Datalog files::

    python -m repro solve   program.dl [--facts facts.dl] [--method auto]
    python -m repro batch   program.dl [--facts facts.dl] --sources a,b,c
    python -m repro serve   program.dl [--facts facts.dl] [--port 7411] [--workers N]
    python -m repro analyze program.dl [--facts facts.dl] [--all]
    python -m repro rewrite program.dl [--kind magic|supplementary|counting|mc]
    python -m repro optimize program.dl [--rewrite mc] [--format sarif]

``solve`` answers the program's query goal (``?- p(a, Y).``) with any of
the paper's methods; ``batch`` answers the same query shape for many
bound constants through the plan-caching solver service, sharing the
reachability work across sources; ``serve`` exposes that service over
the NDJSON/TCP protocol with request coalescing (see ``docs/
serving.md``); ``analyze`` prints the magic-graph diagnosis (node
classes, statistics, reduced-set sizes per strategy, predicted costs);
``rewrite`` prints a rewritten program.  Facts may live in the program
file itself (ground bodiless rules) or in a separate facts file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.complexity import all_method_predictions, compute_statistics
from .core.csl import CSLQuery
from .core.program_rewrite import magic_counting_program
from .core.reduced_sets import Mode, Strategy
from .core.solver import SOLVE_METHODS, solve
from .core.step1 import compute_reduced_sets, reduced_sets_for
from .datalog.counting_rewrite import counting_rewrite
from .datalog.database import Database
from .datalog.magic_rewrite import magic_rewrite
from .datalog.parser import parse_program
from .datalog.program import Program
from .datalog.supplementary import supplementary_magic_rewrite
from .errors import NotCSLError, ReproError
from .service import BATCH_METHODS, SolverService

_STRATEGIES = {s.value: s for s in Strategy}
_MODES = {m.value: m for m in Mode}


def _load(program_path: str, facts_path: Optional[str]):
    """Parse the program file; split ground facts into a Database."""
    with open(program_path) as handle:
        program = parse_program(handle.read())
    database = Database()
    rules = []
    for rule in program.rules:
        if rule.is_fact:
            database.add_atom(rule.head)
        else:
            rules.append(rule)
    program = Program(rules, program.query)
    if facts_path is not None:
        with open(facts_path) as handle:
            facts_program = parse_program(handle.read())
        for rule in facts_program.rules:
            if not rule.is_fact:
                raise ReproError(
                    f"facts file contains a non-fact rule: {rule}"
                )
            database.add_atom(rule.head)
    return program, database


def _extract_query(program: Program, database: Database) -> CSLQuery:
    return CSLQuery.from_program(program, database=database)


def cmd_solve(args) -> int:
    program, database = _load(args.program, args.facts)
    query = _extract_query(program, database)
    kwargs = {}
    if args.method == "magic_counting":
        kwargs["strategy"] = _STRATEGIES[args.strategy]
        kwargs["mode"] = _MODES[args.mode]
    result = solve(query, method=args.method, **kwargs)
    for answer in sorted(result.answers, key=repr):
        print(answer)
    print(f"-- method: {result.method}", file=sys.stderr)
    print(f"-- answers: {len(result.answers)}", file=sys.stderr)
    print(f"-- tuple retrievals: {result.cost.retrievals}", file=sys.stderr)
    return 0


def _parse_source_token(token: str):
    """A CLI source constant: integer when it reads as one, else text.

    The Datalog parser stores numeric constants as ints, so ``--sources
    1,2,foo`` must probe the database with ``1``, not ``"1"``.
    """
    try:
        return int(token)
    except ValueError:
        return token


def cmd_batch(args) -> int:
    program, database = _load(args.program, args.facts)
    service = SolverService(database)
    sources = []
    if args.sources:
        sources.extend(
            _parse_source_token(token.strip())
            for token in args.sources.split(",")
            if token.strip()
        )
    if args.sources_file:
        with open(args.sources_file) as handle:
            sources.extend(
                _parse_source_token(line.strip())
                for line in handle
                if line.strip()
            )
    result = service.solve_batch(
        program, sources or None, method=args.method
    )
    for source in sorted(result.answers, key=repr):
        for answer in sorted(result.answers[source], key=repr):
            print(f"{source}\t{answer}")
    goals = len(result.answers)
    print(f"-- method: {result.method}", file=sys.stderr)
    print(f"-- goals: {goals}", file=sys.stderr)
    print(
        f"-- plan: {result.plan.fingerprint} "
        f"({'cache hit' if result.cache_hit else 'compiled'})",
        file=sys.stderr,
    )
    print(f"-- tuple retrievals: {result.cost.retrievals}", file=sys.stderr)
    for phase, retrievals in sorted(result.metrics.items()):
        if phase.startswith("phase:"):
            print(f"-- {phase}: {retrievals}", file=sys.stderr)
    if goals:
        print(
            f"-- retrievals/goal: {result.cost.retrievals / goals:.1f}",
            file=sys.stderr,
        )
    return 0


def cmd_serve(args) -> int:
    """Serve the program over NDJSON/TCP with request coalescing."""
    from .server import SolverServer

    program, database = _load(args.program, args.facts)
    service = SolverService(database, plan_cache_size=args.plan_cache_size)
    common = dict(
        program=program,
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        default_deadline_ms=args.deadline_ms,
        executor_workers=args.executor_threads,
    )
    if args.workers > 0:
        from .cluster import ClusterFront

        server = ClusterFront(
            service,
            workers=args.workers,
            standbys=args.standbys,
            **common,
        )
    else:
        if args.standbys:
            print(
                "--standbys needs --workers N (single-process mode)",
                file=sys.stderr,
            )
            return 2
        server = SolverServer(service, **common)
    return server.run()


def _render_diagnostics(report) -> None:
    for diagnostic in report.diagnostics:
        print(diagnostic)


def _emit_reports(
    args, reports, render_text=_render_diagnostics, summary=None
) -> int:
    """The one format/exit-code path of every analyzer command.

    ``reports`` maps a name to a report: the document goes to stdout in
    ``args.format`` (text through the command's own ``render_text``),
    ``summary`` (default: one findings line per report) to stderr, and
    the exit code is 1 when any report has a finding at or above
    ``args.fail_on``.  Several reports (``analyze --all``) key the JSON
    by name and title the text sections; SARIF is one log with a
    ``runs[]`` entry per report either way.
    """
    import json

    from .analysis.sarif import merge_sarif_logs

    merged = len(reports) > 1
    if args.format == "text":
        for name, report in reports.items():
            if merged:
                print(f"== {name} ==")
            render_text(report)
            if merged:
                print()
    else:
        if args.format == "sarif":
            artifact_uri = getattr(args, "program", None)
            document = merge_sarif_logs(
                report.to_sarif(artifact_uri=artifact_uri)
                for report in reports.values()
            )
        elif merged:
            document = {
                name: report.to_json() for name, report in reports.items()
            }
        else:
            (report,) = reports.values()
            document = report.to_json()
        print(json.dumps(document, indent=2, sort_keys=True))
    if summary is None:
        summary = "\n".join(
            _findings_summary(report, f"{name}: " if merged else "")
            for name, report in reports.items()
        )
    print(summary, file=sys.stderr)
    return int(any(r.exceeds(args.fail_on) for r in reports.values()))


def _render_cost_report(report) -> None:
    """Human-readable rendering of a cost-analysis report."""
    print(f"goal: {report.goal}")
    _render_diagnostics(report)
    certificate = report.certificate
    if certificate is None:
        return
    print()
    print(
        "certified retrieval bounds"
        + (" (widened — loose)" if certificate.widened else "")
        + ":"
    )
    for entry in certificate.bounds.values():
        cell = (
            str(entry.bound)
            if entry.certified
            else f"abstained ({entry.reason})"
        )
        print(f"  {entry.method:30s} {cell}")
    recommendation = report.recommendation
    if recommendation is not None:
        print()
        print(
            f"recommended plan: {recommendation.method} "
            f"[{recommendation.provenance}]"
        )
        reason = recommendation.details.get("reason")
        if reason:
            print(f"  {reason}")


def _findings_summary(report, label: str = "") -> str:
    counts = report.counts()
    return (
        f"-- {label}{len(report.diagnostics)} finding(s), "
        f"{counts['error']} error(s), {counts['warning']} warning(s)"
    )


def _cmd_analyze_cost(args) -> int:
    from .analysis.cost import run_cost_analysis

    program, database = _load(args.program, args.facts)
    report = run_cost_analysis(program, database)
    return _emit_reports(args, {"repro-cost": report}, _render_cost_report)


def _cmd_analyze_all(args) -> int:
    """Run every analyzer in the repo and merge the findings.

    Static program lint, the certified cost-bound analyzer, and the
    program optimizer all run over the given program; the concurrency
    race detector self-analyzes this installation's ``repro`` package.
    ``--format sarif`` merges the four logs into one multi-run document
    (one ``runs[]`` entry per driver) for CI ingestion, and ``--fail-on``
    applies across the merged set.
    """
    from pathlib import Path

    import repro

    from .analysis.concurrency import run_concurrency_analysis
    from .analysis.cost import run_cost_analysis
    from .analysis.rewrite import optimize_program
    from .analysis.static import run_static_analysis

    program, database = _load(args.program, args.facts)
    return _emit_reports(
        args,
        {
            "repro-lint": run_static_analysis(program, database),
            "repro-cost": run_cost_analysis(program, database),
            "repro-optimizer": optimize_program(program, database),
            "repro-lint-py": run_concurrency_analysis(
                [str(Path(repro.__file__).parent)]
            ),
        },
    )


def cmd_analyze(args) -> int:
    if args.all:
        return _cmd_analyze_all(args)
    if args.cost:
        return _cmd_analyze_cost(args)
    program, database = _load(args.program, args.facts)
    try:
        query = _extract_query(program, database)
    except NotCSLError:
        # Outside the CSL class the static report's ``not-csl`` finding
        # says why (a program with no goal has none: still an error).
        from .analysis.static import run_static_analysis

        report = run_static_analysis(program, database)
        reasons = [d for d in report.diagnostics if d.code == "not-csl"]
        if not reasons:
            raise
        print(f"goal: {program.query}", *reasons, sep="\n")
        return 0
    stats = compute_statistics(query)
    print(f"goal: {program.query}")
    print(f"magic graph class: {stats.graph_class.value}")
    print(
        f"nodes: {stats.n_l} magic ({stats.n_s} single, "
        f"{stats.n_m - stats.n_s} multiple, "
        f"{stats.n_l - stats.n_m} recurring), {stats.n_r} answer-side"
    )
    print(f"arcs: m_L={stats.m_l} m_E={stats.m_e} m_R={stats.m_r}")
    print(f"single-method frontier i_x = {stats.i_x}")
    print()
    print("reduced sets per strategy:")
    for strategy in Strategy:
        reduced = compute_reduced_sets(query.instance(), strategy)
        print(
            f"  {strategy.value:9s} |RC| = {len(reduced.rc):4d}   "
            f"|RM| = {len(reduced.rm):4d}"
        )
    print()
    print("predicted costs (paper's Θ-expressions, tuple retrievals):")
    for method, predicted in all_method_predictions(stats).items():
        cell = "unsafe" if predicted is None else str(predicted)
        print(f"  {method:30s} {cell}")
    from .analysis.cost import analyze_cost_query
    from .analysis.static import certify_counting_safety, method_admissibility

    certificate = certify_counting_safety(query)
    print()
    print(f"counting safety: {certificate.verdict} ({certificate.reason})")
    print("statically admissible methods:")
    for verdict in method_admissibility(certificate):
        print(f"  {verdict.describe()}")
    recommendation = analyze_cost_query(query).recommendation
    print(f"recommended method: {recommendation.method}")
    if args.dot:
        from .analysis.dot import query_graph_to_dot

        with open(args.dot, "w") as handle:
            handle.write(query_graph_to_dot(query, title=str(program.query)))
        print(f"-- wrote query graph to {args.dot}", file=sys.stderr)
    return 0


def _rewritten(program: Program, database: Database, args) -> Program:
    """Apply the ``--kind``/``--rewrite`` program transformation."""
    kind = getattr(args, "kind", None) or args.rewrite
    if kind == "magic":
        return magic_rewrite(program)
    if kind == "supplementary":
        return supplementary_magic_rewrite(program)
    if kind == "counting":
        return counting_rewrite(program)
    # mc
    query = _extract_query(program, database)
    mode = _MODES[args.mode]
    reduced = reduced_sets_for(
        query.instance(), _STRATEGIES[args.strategy], mode
    )
    return magic_counting_program(program, reduced, mode)


def cmd_rewrite(args) -> int:
    program, database = _load(args.program, args.facts)
    print(_rewritten(program, database, args))
    return 0


def _render_optimizer_diff(report) -> None:
    """Diff-style rendering: removed rules ``-``, added rules ``+``."""
    before = list(report.original.rules)
    after = list(report.program.rules)
    after_set = set(after)
    before_set = set(before)
    print(f"--- original ({len(before)} rules)")
    print(f"+++ optimized ({len(after)} rules)")
    for rule in before:
        if rule not in after_set:
            print(f"- {rule}")
    for rule in after:
        if rule not in before_set:
            print(f"+ {rule}")
    if not report.changed:
        print("(no change — the program is already optimal "
              "under the registered passes)")
    print()
    for trace in report.traces:
        print(f"[{trace.pass_name}#{trace.iteration}] "
              f"{trace.code}: {trace.message}")


def cmd_optimize(args) -> int:
    from .analysis.rewrite import optimize_program

    program, database = _load(args.program, args.facts)
    if args.rewrite != "none":
        program = _rewritten(program, database, args)
    report = optimize_program(program, database)
    summary = report.summary()
    return _emit_reports(
        args,
        {"repro-optimizer": report},
        _render_optimizer_diff,
        f"-- {summary['rules_removed']} rule(s) removed, "
        f"{summary['rules_added']} added, "
        f"{summary['literals_removed']} literal(s) removed, "
        f"{summary['arguments_removed']} argument(s) sliced "
        f"in {summary['iterations']} iteration(s) "
        f"({summary['optimize_ms']:.1f} ms)",
    )


def cmd_generate(args) -> int:
    """Emit a synthetic workload as program + facts files."""
    from .datalog.io import dump_database
    from .workloads.generators import (
        acyclic_workload,
        cyclic_workload,
        grid_workload,
        regular_workload,
    )

    generators = {
        "regular": regular_workload,
        "acyclic": acyclic_workload,
        "cyclic": cyclic_workload,
    }
    if args.kind == "grid":
        query = grid_workload(side=2 + args.scale)
    else:
        query = generators[args.kind](scale=args.scale, seed=args.seed)
    database = query.database()
    count = dump_database(database, args.output)
    program_text = str(query.to_program())
    program_path = args.output.rsplit(".", 1)[0] + ".program.dl"
    with open(program_path, "w") as handle:
        handle.write(program_text + "\n")
    print(f"wrote {count} facts to {args.output}", file=sys.stderr)
    print(f"wrote the query program to {program_path}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Run the standard experiment set and print every table."""
    from .analysis.runner import ALL_METHODS, measure
    from .analysis.tables import render_table
    from .core.hierarchy import check_dominance, render_figure3
    from .workloads.generators import (
        acyclic_workload,
        cyclic_workload,
        regular_workload,
    )

    scale = args.scale
    rows = []
    for kind, generator in (
        ("regular", regular_workload),
        ("acyclic", acyclic_workload),
        ("cyclic", cyclic_workload),
    ):
        measurement = measure(generator(scale=scale, seed=args.seed))
        rows.append(measurement)
        violations = check_dominance(
            measurement.costs, measurement.graph_class, slack=1.7
        )
        status = "holds" if not violations else "; ".join(map(str, violations))
        print(f"{kind}: hierarchy {status}", file=sys.stderr)
    print(render_table(
        f"All methods, measured/predicted tuple retrievals "
        f"(scale {scale}, seed {args.seed})",
        ALL_METHODS,
        rows,
    ))
    print(render_figure3())
    return 0


def cmd_lint(args) -> int:
    from .analysis.static import run_static_analysis

    program, database = _load(args.program, args.facts)
    report = run_static_analysis(program, database)
    summary = (
        f"-- {len(report.diagnostics)} finding(s), "
        f"{report.counts()['error']} error(s)"
    )
    if report.certificate is not None:
        summary += f"\n-- counting safety: {report.certificate.verdict}"
    return _emit_reports(args, {"repro-lint": report}, summary=summary)


def cmd_lint_py(args) -> int:
    from .analysis.concurrency import run_concurrency_analysis

    report = run_concurrency_analysis(args.paths)
    return _emit_reports(
        args,
        {"repro-lint-py": report},
        summary=f"-- {len(report.files)} file(s), "
        f"{report.guarded_attributes} guarded attribute(s), "
        f"{len(report.diagnostics)} finding(s), "
        f"{report.counts()['error']} error(s), "
        f"{report.suppressed} suppressed",
    )


def cmd_explain(args) -> int:
    from .datalog.parser import parse_atom
    from .datalog.provenance import evaluate_with_provenance

    program, database = _load(args.program, args.facts)
    provenance = evaluate_with_provenance(program, database)
    goal = parse_atom(args.fact)
    if not goal.is_ground():
        raise ReproError(f"explain needs a ground fact, got {goal}")
    values = tuple(t.value for t in goal.terms)
    proof = provenance.proof(goal.predicate, values)
    print(proof.render())
    print(f"-- proof depth: {proof.depth()}", file=sys.stderr)
    print(f"-- leaves: {len(proof.leaves())}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Magic counting methods for recursive Datalog queries "
        "(Sacca & Zaniolo, SIGMOD 1987).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("program", help="Datalog program file with a ?- goal")
        sub.add_argument("--facts", help="separate file of ground facts")

    def add_report_options(sub, scope="", fail_on_note=""):
        sub.add_argument(
            "--format", default="text", choices=["text", "json", "sarif"],
            help=scope
            + "output format (sarif emits a SARIF 2.1.0 log for CI)",
        )
        sub.add_argument(
            "--fail-on", dest="fail_on", default="error",
            choices=["error", "warning"],
            help=scope
            + "lowest severity that forces a non-zero exit code"
            + fail_on_note,
        )

    sub_solve = subparsers.add_parser("solve", help="answer the query goal")
    add_common(sub_solve)
    sub_solve.add_argument(
        "--method",
        default="auto",
        choices=SOLVE_METHODS,
    )
    sub_solve.add_argument("--strategy", default="multiple",
                           choices=sorted(_STRATEGIES))
    sub_solve.add_argument("--mode", default="integrated",
                           choices=sorted(_MODES))
    sub_solve.set_defaults(handler=cmd_solve)

    sub_batch = subparsers.add_parser(
        "batch",
        help="answer the query shape for many bound constants through "
        "the plan-caching solver service",
    )
    add_common(sub_batch)
    sub_batch.add_argument(
        "--sources",
        help="comma-separated bound constants (default: the goal's)",
    )
    sub_batch.add_argument(
        "--sources-file", help="file with one bound constant per line"
    )
    sub_batch.add_argument(
        "--method",
        default=BATCH_METHODS[0],
        choices=BATCH_METHODS,
    )
    sub_batch.set_defaults(handler=cmd_batch)

    sub_serve = subparsers.add_parser(
        "serve",
        help="serve the program over NDJSON/TCP with request coalescing "
        "(GET /health and /metrics answer on the same port)",
    )
    add_common(sub_serve)
    sub_serve.add_argument("--host", default="127.0.0.1")
    sub_serve.add_argument(
        "--port", type=int, default=7411,
        help="TCP port (0 binds an ephemeral port)",
    )
    sub_serve.add_argument(
        "--window-ms", type=float, default=5.0,
        help="coalescing window: the longest a solve is held for company "
        "while a batch runs (default 5ms; a burst on an idle server is "
        "flushed without a hold)",
    )
    sub_serve.add_argument(
        "--max-batch", type=int, default=64,
        help="flush a window early once this many requests joined",
    )
    sub_serve.add_argument(
        "--max-pending", type=int, default=256,
        help="admission-control bound; overflow gets a structured "
        "'overloaded' error",
    )
    sub_serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline (requests may override)",
    )
    sub_serve.add_argument(
        "--workers", type=int, default=0,
        help="spawn a repro.cluster fleet of N worker processes behind "
        "this port (0 = serve single-process, the default)",
    )
    sub_serve.add_argument(
        "--standbys", type=int, default=0,
        help="warm-standby workers promoted on active failure "
        "(cluster mode only)",
    )
    sub_serve.add_argument(
        "--executor-threads", type=int, default=2,
        help="batch-execution worker threads per process "
        "(was --workers before cluster mode claimed that name)",
    )
    sub_serve.add_argument(
        "--plan-cache-size", type=int, default=8,
        help="compiled-plan LRU capacity",
    )
    sub_serve.set_defaults(handler=cmd_serve)

    sub_analyze = subparsers.add_parser(
        "analyze", help="diagnose the magic graph and predict costs"
    )
    add_common(sub_analyze)
    sub_analyze.add_argument(
        "--dot", help="also write the query graph as Graphviz DOT"
    )
    sub_analyze.add_argument(
        "--cost", action="store_true",
        help="run the static cost-bound analyzer instead: certified "
        "per-method retrieval bounds and the bound-ranked plan choice",
    )
    sub_analyze.add_argument(
        "--all", action="store_true",
        help="run every analyzer (program lint, cost bounds, optimizer, "
        "concurrency self-analysis) and merge the findings; with "
        "--format sarif one multi-run log with one runs[] entry per "
        "analyzer",
    )
    add_report_options(sub_analyze, scope="with --cost/--all: ")
    sub_analyze.set_defaults(handler=cmd_analyze)

    sub_rewrite = subparsers.add_parser(
        "rewrite", help="print a rewritten program"
    )
    add_common(sub_rewrite)
    sub_rewrite.add_argument(
        "--kind", default="magic",
        choices=["magic", "supplementary", "counting", "mc"],
    )
    sub_rewrite.add_argument("--strategy", default="multiple",
                             choices=sorted(_STRATEGIES))
    sub_rewrite.add_argument("--mode", default="integrated",
                             choices=sorted(_MODES))
    sub_rewrite.set_defaults(handler=cmd_rewrite)

    sub_optimize = subparsers.add_parser(
        "optimize",
        help="run the semantics-preserving program optimizer and print "
        "a diff-style report",
    )
    add_common(sub_optimize)
    sub_optimize.add_argument(
        "--rewrite", default="none",
        choices=["none", "magic", "supplementary", "counting", "mc"],
        help="first apply this rewrite, then optimize its output "
        "(the optimizer's main use: cleaning rewrite-emitted programs)",
    )
    sub_optimize.add_argument("--strategy", default="multiple",
                              choices=sorted(_STRATEGIES))
    sub_optimize.add_argument("--mode", default="integrated",
                              choices=sorted(_MODES))
    add_report_options(
        sub_optimize,
        fail_on_note=" (optimizer traces are info-level, so this exits 0 "
        "by default)",
    )
    sub_optimize.set_defaults(handler=cmd_optimize)

    sub_explain = subparsers.add_parser(
        "explain", help="print a proof tree for a ground fact"
    )
    add_common(sub_explain)
    sub_explain.add_argument(
        "fact", help="ground fact to explain, e.g. 'sg(ann, bob)'"
    )
    sub_explain.set_defaults(handler=cmd_explain)

    sub_lint = subparsers.add_parser(
        "lint", help="static diagnostics for a program"
    )
    add_common(sub_lint)
    add_report_options(sub_lint)
    sub_lint.set_defaults(handler=cmd_lint)

    sub_lint_py = subparsers.add_parser(
        "lint-py",
        help="concurrency race detector for this repo's Python sources",
    )
    sub_lint_py.add_argument(
        "paths", nargs="+",
        help="Python files or directories to analyze (e.g. src/repro)",
    )
    add_report_options(sub_lint_py)
    sub_lint_py.set_defaults(handler=cmd_lint_py)

    sub_repl = subparsers.add_parser(
        "repl", help="interactive deductive-database shell"
    )
    sub_repl.set_defaults(handler=lambda args: _run_repl())

    sub_report = subparsers.add_parser(
        "report", help="run the standard experiments and print the tables"
    )
    sub_report.add_argument("--scale", type=int, default=2)
    sub_report.add_argument("--seed", type=int, default=0)
    sub_report.set_defaults(handler=cmd_report)

    sub_generate = subparsers.add_parser(
        "generate", help="emit a synthetic workload as Datalog files"
    )
    sub_generate.add_argument(
        "--kind", default="regular",
        choices=["regular", "acyclic", "cyclic", "grid"],
    )
    sub_generate.add_argument("--scale", type=int, default=2)
    sub_generate.add_argument("--seed", type=int, default=0)
    sub_generate.add_argument(
        "-o", "--output", default="workload.dl",
        help="facts file to write (program goes to *.program.dl)",
    )
    sub_generate.set_defaults(handler=cmd_generate)
    return parser


def _run_repl() -> int:  # pragma: no cover - interactive
    from .repl import run_repl

    return run_repl()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
