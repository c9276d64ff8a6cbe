#!/usr/bin/env python3
"""Generate docs/api.md: every public name with its one-line summary.

Run from the repo root:  python tools/gen_api_docs.py
"""

import importlib
import inspect
import pathlib
import sys

HEADER = [
    "# API reference",
    "",
    "Generated by `python tools/gen_api_docs.py` — the public name",
    "inventory of every package, with one-line summaries.",
    "",
    "The surface is intentionally smaller than it was: the four analyzer",
    "frameworks use the one kernel in `repro.diagnostics` under its own",
    "names — the aliases `AnalysisPass`, `CostPass`, `ConcurrencyPass`,",
    "`OptimizationPass` (all `Pass`) and `CodeDiagnostic` (`Diagnostic`)",
    "are removed, and so are the rebinds `register_pass`,",
    "`registered_passes`, `register_concurrency_pass` and",
    "`registered_concurrency_passes`: each package exports its registry",
    "(`STATIC_PASSES`, `COST_PASSES`, `OPTIMIZER_PASSES`,",
    "`CONCURRENCY_PASSES`), passes register with `<REGISTRY>.register`",
    "and the pipeline reads `<REGISTRY>.passes()`.  The modules",
    "`repro.analysis.static.sarif` and `repro.analysis.rewrite.sarif` are",
    "gone (`report_to_sarif` and `RULE_METADATA` stay importable from the",
    "packages), `SolverService` no longer takes `maintenance_batching` or",
    "`maintain_plans` (and `MutationResult` has no `deferred`), and",
    "the module `repro.datalog.incremental` is folded into",
    "`repro.datalog.maintenance`: the stateless one-shot",
    "`insert_and_maintain` lives there (and is still exported from",
    "`repro.datalog`), beside `MaintenanceState(...).insert`.",
    "`SolverClient` and `AsyncSolverClient` share one operation table:",
    "the async client's op methods (`ping`, `solve`, `solve_batch`,",
    "`add_fact(s)`, `remove_fact(s)`, `stats`) are plain functions that",
    "return an awaitable, so `await client.solve(...)` is unchanged but",
    "`asyncio.iscoroutinefunction(client.solve)` is now False, and their",
    "result types are documented in the docstrings, not annotated.",
    "`CompiledPlan.classification_for` was removed (the refusal gate",
    "reads `decision(source).graph_class`), `CompiledPlan` is",
    "built from one `CSLQuery` and no longer has `left`/`exit`/`right`",
    "attributes (`query_for(source)` carries the pair sets), and",
    "`CSLQuery` gained `index` (the shared `repro.core.GraphIndex`) and",
    "`with_source(source)`; `certify_relation` and `certify_source` also",
    "accept that index in place of the raw `L` pairs.",
    "`Relation` gained one charged bulk read, `probe_repeated(positions,",
    "key, times)` (one `backend.matches`, charged as `times` probes), and",
    "`repro.core.magic_method` now owns the one reachability sweep",
    "(`union_magic_set`; `compute_magic_set` and",
    "`repro.core.multi_source.union_magic_set` are that function) and",
    "`predecessor_join`, the set-at-a-time join behind `magic_fixpoint`",
    "and the integrated Step 2's transfer rule.",
    "A second bulk read, `Relation.probe_many(positions, keys)` (one",
    "`StorageBackend.matches_many`, charged as one probe per key), carries",
    "`repro.core.csl.frontier_step(relation, position, frontier)`, the",
    "frontier-at-a-time kernel under counting, Step 1 and [HN];",
    "`repro.core.counting_method.level_frontiers` is the L-side level walk",
    "`compute_counting_set` and `hn_method` share, so `hn_method` now",
    "raises `UnsafeQueryError` at the level `counting_method` does.",
    "`repro.datalog` has one join order and lost what nothing reached:",
    "the `plan=` keyword (and the compile-time `database=` argument, and",
    "`PLAN_MIRROR`/`PLAN_COST`/`PLAN_MODES`) is gone from",
    "`seminaive_evaluate`, `CompiledProgram`, `compile_program`,",
    "`compile_rule`, `compiled_seminaive_evaluate`,",
    "`columnar_seminaive_evaluate` and `materialize_conjunction` (the two",
    "`*_seminaive_evaluate` entry points also lost their unused",
    "`compiled=`), `CompiledProgram.describe()` has no `plan` key, and the",
    "modules `repro.datalog.planner` (`optimize_rule`,",
    "`datalog.optimize_program`, `order_body_elements`, `relation_sizes`),",
    "`repro.datalog.transform` (`unfold_predicate`, `unfold_all_views`,",
    "`rename_predicate`, `datalog.eliminate_dead_rules`) and",
    "`repro.datalog.aggregates` (`aggregate`, `top_k`) are deleted —",
    "program transformations are `repro.analysis.rewrite`'s passes",
    "(`optimize_program`, `eliminate_dead_rules` there are unaffected).",
    "`CompiledRule`/`CompiledStratum` became the one",
    "`repro.datalog.evaluation.SeminaiveRule` (`CompiledProgram.strata` is",
    "a list of tuples of them), and `evaluation.evaluate_rule` takes",
    "`(rule, database, delta=None)` and returns a list.",
    "`repro.server.protocol` gained `encode_rows`/`decode_rows`;",
    "`decode_value` raises `ProtocolError` for a JSON object at any depth.",
    "The methods are listed once, in `repro.core.methods.METHODS` (a",
    "`Method(name, run, strategy, mode, scc_step1, needs_acyclic, ranked)`",
    "per method); `solve(query, name)` runs any of its 14 names and",
    "`repro.core.solver.SOLVE_METHODS` is what the CLI and REPL offer.",
    "Removed with it: `repro.analysis.run_method` (call `solve`; an",
    "unknown name raises `EvaluationError`, not `ValueError`),",
    "`complexity.table1_predictions`, the name `mc_basic` in",
    "`predicted_cost`/`all_method_predictions` (which now cover the 14",
    "table names), `REGULAR_EQUIVALENCE_GROUP` as a literal (it is",
    "derived, same contents), `PlanRecommendation.strategy`/`mode`/",
    "`scc_step1` and its tuple protocol (`__iter__`/`__getitem__`/",
    "`__len__`; read `.method` and look the row up), tuple-shaped",
    "`plan_candidates()` entries (they are `Method` rows), the",
    "`detect_divergence` keyword of `compute_counting_set`,",
    "`counting_method`, `hn_method` and `multi_source_counting` (detection",
    "is on unless `max_level` truncates), `step2._seed_exit_from_rc`",
    "(`counting_method.seed_exit` takes `(index, value)` pairs; new",
    "`counting_answers(instance, max_level=None)` is the whole pipeline),",
    "and from the serving layer `CompiledPlan.static_report`/`kernels`/",
    "`oracle_answers`/`engine` (use `seminaive_answer(plan.query_for(s))`",
    "as the oracle), the `engine` key of `describe()` and of the batch",
    "metrics, and `BatchMetrics.record_engine` (now `record_plan`).",
    "The batch service reads the same table: `repro.service.BATCH_METHODS`",
    "is `shared_magic`, `adaptive`, then the 14 `METHODS` names (a row runs",
    "once per source; `adaptive` serves a single source the row",
    "`recommended_plan` picks on the plan's cost report), and it is the",
    "`--method` list of `repro batch` and the wire's `method`.  `CSLQuery`",
    "owns the relation triple: new `storage` (the three tuple stores,",
    "shared by `with_source` siblings), `patched(left=(added, removed), …)`",
    "(the successor query, which takes the stores with it), and",
    "`instance(counter)` now returns views over `storage`.  Removed with",
    "that: `CompiledPlan.left_relation`/`exit_relation`/`right_relation`,",
    "`CompiledPlan.instance` (use `plan.query_for(source).instance(counter)`)",
    "and `CompiledPlan.attached(counter)` (the lock it held is",
    "`CompiledPlan.exec_lock`); `PlanMaintainer` parts are keyed",
    "`left`/`exit`/`right`; `warm_plan_cache` lost its unused `methods`",
    "argument.  `method_program` moved from `repro.core.methods` to",
    "`repro.core.program_rewrite`, and `repro.core.step1.reduced_sets_for(",
    "instance, strategy, mode)` is Step 1 plus the integrated mode's",
    "`(0, a)` pair; `repro.core.csl.row_to_pair` is the one row-to-pair",
    "collapse of a materialized part.",
    "`repro.core.GraphIndex` gained `condensation` (cyclic cores and a",
    "topological rank of `G_L`, one Tarjan pass, which `GraphIndex.patched`",
    "— the successor index a mutation hands the next version — carries",
    "across when the delta keeps it;",
    "`graph_index.condense` is that pass) and `bfs_depths` takes",
    "`closure`'s `budget`; `certify_relation`/`certify_source` and",
    "`analysis.cost.interpret` read it instead of running Tarjan per",
    "source.  `RegionStatistics` carries `depth` and `condensation`, and",
    "its answer side is the two integers `n_y`/`m_r` (`answer_nodes` and",
    "`in_r` are gone);",
    "`MultiplicityAbstract` is built from `shortest`/`longest`/",
    "`index_count` (`distance` and `multiplicity` are derived views),",
    "gained `graph_class`, `max_dmin`/`max_dmax_finite` are properties and",
    "`multiplicity_weighted` takes a degree map.  `CostCertificate` gained",
    "`graph_class` (not part of `to_json()`), and",
    "`recommended_plan(None, cost_certificate=...)` reads the regime from",
    "it.  `CompiledPlan.decision(source)` is the memoized",
    "`SourceDecision(method, bounds, graph_class)` the serve path reads —",
    "the plan's one per-source memo: `counting_certificate(source)` and",
    "`relation_certificate` keep their return values but are computed on",
    "demand, and `solve_batch` answers a repeated source once;",
    "`cost_report`/`cost_certificate` compute on demand and are no longer",
    "memoized.  `RequestCoalescer.stats()` gained `immediate`.",
    "The optimizer is a function you call (`analysis.rewrite.optimize_program`,",
    "`repro optimize`, `analyze --all`), not a flag: `SolverService`,",
    "`compile_program_plan`, `core.program_rewrite.method_program` and",
    "`evaluate_with_program_rewrite` lost `optimize=` (the optimized twin is",
    "`optimize_program(method_program(...), query.database())`;",
    "`method_program` returns the program, no longer `(program, None)`).  Removed",
    "with it: `CompiledPlan.unoptimized_program` (`.optimization` is always",
    "`None`), the `optimized`/`optimizer_rules_removed`/",
    "`optimizer_literals_removed` keys of `describe()`, the `rules_removed`/",
    "`literals_removed`/`optimize_ms` batch-metric keys, both",
    "`record_optimization` methods and the `optimized_compiles`/",
    "`optimizer_rules_removed`/`optimizer_literals_removed` counters of",
    "`stats()` and `/metrics`.  `plan.database_fp` is `\"\"` unless the",
    "service was built with `verify_database=True`.",
    "`datalog.linear.part_rules(program, analysis)` is the one definition of",
    "the `L`/`E`/`R` part rules (`PART_PREDICATES` names their heads);",
    "`PlanMaintainer.PARTS` is gone.",
    "`analysis.static.analyze_query` and `find_l_cycle` were removed (no",
    "caller): use `run_static_analysis(query.to_program(),",
    "query.database())` and `certify_source(left, source).cycle`.",
    "`repro.datalog.JoinKernel.execute` runs the kernel's op list over the",
    "whole binding frontier (one `Relation.probe_many` or `probe_repeated`",
    "per scan, one `probe_many` per negation) instead of a closure chain",
    "per binding; `JoinKernel(...)` takes `ops` as a required argument and",
    "has no entry closure.  Snapshots are unchanged: the kernels charge the",
    "same probes with the same per-relation totals as the interpreter,",
    "though no longer in the same order.",
    "`CSLInstance` takes its `query` (a required field; `instance.index` is",
    "that query's `index`, built on first use), and `predecessor_join`",
    "drains a `repro.core.magic_method.Worklist` — the pending `P_M` facts",
    "popped in ascending `GraphIndex.condensation.rank`; `worklist(instance,",
    "facts)` builds one — instead of a plain dict.  That fixpoint now",
    "works on `int` masks over `GraphIndex.bits`, a",
    "`repro.core.graph_index.BitIndex` (one bit per `E` target and `R`",
    "value; `exit_mask(x)` and the 8-bit chunk tables of `R⁻¹` images are",
    "built on first read, the tables within a `room` of bits, past which",
    "`image(mask, spill)` keeps entries in the caller's `spill`; `indeg_R`",
    "weight masks): `Worklist.add`/`pop` and `predecessor_join` carry masks, and",
    "`magic_fixpoint` returns a `repro.core.magic_method.MagicFacts` — a",
    "read-only `Mapping` of `x` to a set of `y`, decoded per key, with",
    "`masks`, `bits` and `facts` (the `P_M` count) — instead of a dict.  The",
    "`RequestCoalescer.stats()` key `immediate` now counts the groups opened",
    "on an idle coalescer (flushed when quiet, never held).",
    "",
]

PACKAGES = [
    "repro",
    "repro.diagnostics",
    "repro.datalog",
    "repro.core",
    "repro.service",
    "repro.server",
    "repro.cluster",
    "repro.workloads",
    "repro.analysis",
    "repro.analysis.static",
    "repro.analysis.concurrency",
    "repro.analysis.cost",
    "repro.analysis.rewrite",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def describe(package_name: str) -> str:
    module = importlib.import_module(package_name)
    names = getattr(module, "__all__", None)
    if names is None:
        names = sorted(
            n for n in vars(module) if not n.startswith("_")
        )
    lines = [f"## `{package_name}`", ""]
    summary = first_line(module)
    if summary:
        lines += [summary, ""]
    lines.append("| name | kind | summary |")
    lines.append("|---|---|---|")
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            kind = "class"
        elif inspect.isroutine(obj):
            kind = "function"
        elif inspect.ismodule(obj):
            continue
        else:
            kind = "value"
        lines.append(f"| `{name}` | {kind} | {first_line(obj)} |")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    sections = list(HEADER)
    for package in PACKAGES:
        sections.append(describe(package))
    output = pathlib.Path(__file__).parent.parent / "docs" / "api.md"
    output.write_text("\n".join(sections))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
