"""Per-layer metrics: from the traced run's spans and from layer-direct
replays on the run's own inputs.

Layers are this repository's modules; a metric is named
``<package>.<module>.<what>``.  Every traced run reports every name in
:data:`PER_LAYER`; a layer the workload never enters reads 0 (no time
was spent there), which is also what a layer that a later change has
deleted reads — the replay is skipped with a note instead of failing
the run, because deleting a layer is exactly what ROADMAP items 2 and 3
ask for and this file must keep working across it.

Replays call public functions of one layer directly, after the
measured run, outside every end-to-end number.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import statistics
import time
from typing import Callable, Dict, List, Tuple

from .stats import mean, percentile, self_times, unattributed_share

#: name -> (unit, better); the ``per_layer`` list of ``BENCHMARK.json``.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # server.* -> solve_p50_ms on point_acyclic
    "server.pre_service_ms": ("ms", "lower"),
    "server.post_service_ms": ("ms", "lower"),
    "server.protocol.codec_us_per_op": ("us", "lower"),
    "server.protocol.bytes_per_op": ("bytes", "lower"),
    "server.coalescer.window_wait_ms": ("ms", "lower"),
    "server.coalescer.sources_per_batch": ("count", "higher"),
    "server.coalescer.rejected": ("count", "lower"),
    "server.server.latency_p50_ms": ("ms", "lower"),
    "server.unattributed_share": ("ratio", "lower"),
    # service.* -> solve_p50_ms / ops_per_s on churn_derived, setup_s
    "service.service.solve_batch_ms": ("ms", "lower"),
    "service.service.self_ms": ("ms", "lower"),
    "service.service.mutate_ms": ("ms", "lower"),
    "service.service.mutate_client_p50_ms": ("ms", "lower"),
    "service.cache.hit_rate": ("ratio", "higher"),
    "service.plan.compile_ms": ("ms", "lower"),
    "service.plan.optimize_ms": ("ms", "lower"),
    "service.plan.rules_removed": ("count", "higher"),
    "service.plan.bytes": ("bytes", "lower"),
    "service.plan.certify_ms_per_source": ("ms", "lower"),
    "service.plan.certify_cold_share": ("ratio", "lower"),
    "service.plan.maintain_ms": ("ms", "lower"),
    "service.plan.maintain_retrievals": ("count", "lower"),
    "service.plan.pairs_changed_per_mutation": ("count", "lower"),
    # analysis.* -> setup_s
    "analysis.cost.certify_ms": ("ms", "lower"),
    "analysis.static.analyze_ms": ("ms", "lower"),
    "analysis.rewrite.optimize_ms": ("ms", "lower"),
    # core.* served -> solve_p50_ms / ops_per_s on wave_cyclic
    "core.classification.classify_ms": ("ms", "lower"),
    "core.multi_source.union_ms": ("ms", "lower"),
    "core.multi_source.union_retrievals": ("count", "lower"),
    "core.magic_method.fixpoint_ms": ("ms", "lower"),
    "core.magic_method.fixpoint_retrievals": ("count", "lower"),
    "core.magic_method.fixpoint_us_per_retrieval": ("us", "lower"),
    "core.counting_method.counting_ms": ("ms", "lower"),
    "core.counting_method.counting_retrievals": ("count", "lower"),
    # core.* library -> ops_per_s on library_methods
    "core.step1.basic_ms": ("ms", "lower"),
    "core.step1.single_ms": ("ms", "lower"),
    "core.step1.multiple_ms": ("ms", "lower"),
    "core.step1.recurring_ms": ("ms", "lower"),
    "core.step1.recurring_scc_ms": ("ms", "lower"),
    "core.step1.retrievals": ("count", "lower"),
    "core.step2.independent_ms": ("ms", "lower"),
    "core.step2.integrated_ms": ("ms", "lower"),
    "core.step2.retrievals": ("count", "lower"),
    "core.methods.basic_independent_ms": ("ms", "lower"),
    "core.methods.basic_integrated_ms": ("ms", "lower"),
    "core.methods.single_independent_ms": ("ms", "lower"),
    "core.methods.single_integrated_ms": ("ms", "lower"),
    "core.methods.multiple_independent_ms": ("ms", "lower"),
    "core.methods.multiple_integrated_ms": ("ms", "lower"),
    "core.methods.recurring_independent_ms": ("ms", "lower"),
    "core.methods.recurring_integrated_ms": ("ms", "lower"),
    "core.methods.auto_ms": ("ms", "lower"),
    "core.methods.magic_set_ms": ("ms", "lower"),
    "core.methods.counting_ms": ("ms", "lower"),
    # datalog.* -> ops_per_s on engine_samegen (maintenance: churn)
    "datalog.engine.compiled_ms": ("ms", "lower"),
    "datalog.columnar_engine.columnar_ms": ("ms", "lower"),
    "datalog.evaluation.interpreted_ms": ("ms", "lower"),
    "datalog.engine.retrievals": ("count", "lower"),
    "datalog.engine.kernel_compile_ms": ("ms", "lower"),
    "datalog.relation.probe_us": ("us", "lower"),
    "datalog.columnar.probe_us": ("us", "lower"),
    "datalog.columnar.probe_batch_us_per_key": ("us", "lower"),
    "datalog.relation.load_ms": ("ms", "lower"),
    "datalog.columnar.load_ms": ("ms", "lower"),
    "datalog.columnar.resident_bytes": ("bytes", "lower"),
    "datalog.maintenance.insert_ms": ("ms", "lower"),
    "datalog.maintenance.delete_ms": ("ms", "lower"),
    "datalog.maintenance.overdeleted": ("count", "lower"),
    "datalog.maintenance.rederived": ("count", "lower"),
    "datalog.parser.parse_ms": ("ms", "lower"),
}

#: The cluster layer is deliberately absent: on 2 cores a front, its
#: workers and a load generator would measure the scheduler.
UNMEASURED = {
    "cluster": "needs more cores than this machine has for a front, "
    "workers and a generator; marked unmeasured, not quoted",
}

REPLAY_SAMPLES = 20


def _timed(function: Callable, *args, **kwargs) -> Tuple[float, object]:
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def _timed_ms(function: Callable, *args, repeats: int = 3, **kwargs):
    """Median milliseconds of ``repeats`` calls, and the last result."""
    times = []
    for _ in range(repeats):
        elapsed, result = _timed(function, *args, **kwargs)
        times.append(elapsed * 1000.0)
    return statistics.median(times), result


# --- the trace: client spans + server spans on one clock ------------------


def build_trace(raw: Dict) -> List[Dict]:
    """One span list for a served traced run.

    Client spans (one per request, ids first) are followed by the server
    child's spans moved onto this process's clock.  Each server root
    span is attached to the request(s) it served — found by time and,
    for a batch, by source: on one closed-loop connection a batch lies
    inside exactly one step — and takes the first of them as parent.
    """
    records = raw["records"]
    offset = raw["clock"][0]
    spans: List[Dict] = [
        {
            "id": index,
            "name": f"client.{record['op']}",
            "start": record["start"],
            "end": record["end"],
            "parent": None,
            "request": index,
        }
        for index, record in enumerate(records)
    ]
    steps: List[List[int]] = []
    for index, record in enumerate(records):
        if record["step"] == len(steps):
            steps.append([])
        steps[record["step"]].append(index)
    step_starts = [records[members[0]]["start"] for members in steps]
    base = len(spans)
    for span in raw["child"]["spans"]:
        span = dict(span)
        span["id"] += base
        span["start"] -= offset
        span["end"] -= offset
        if span["parent"] is not None:
            span["parent"] += base
        else:
            middle = (span["start"] + span["end"]) / 2.0
            step = bisect.bisect_right(step_starts, middle) - 1
            if step < 0:
                continue  # set-up or warm-up traffic
            members = steps[step]
            if middle > max(records[i]["end"] for i in members):
                continue
            if span["name"].endswith("solve_batch"):
                sources = set(span["sources"])
                served = [
                    i for i in members
                    if records[i]["op"] == "solve"
                    and records[i]["arg"] in sources
                ]
            else:
                served = [i for i in members if records[i]["op"] != "solve"]
            if not served:
                continue
            span["requests"] = served
            span["parent"] = served[0]
        spans.append(span)
    # Drop children of roots that were dropped (warm-up traffic).
    kept = {span["id"] for span in spans}
    while True:
        alive = [
            s for s in spans if s["parent"] is None or s["parent"] in kept
        ]
        if len(alive) == len(spans):
            return spans
        spans = alive
        kept = {span["id"] for span in spans}


def _span_layers(raw: Dict, trace: List[Dict]) -> Tuple[Dict[str, float], float, float]:
    """Everything read straight off the traced run: the metrics, then
    the seconds clients waited for correct solves in total and the part
    of that spent inside a service span (the replays add window wait
    and codec to account for the rest)."""
    records = raw["records"]
    batches = [s for s in trace if s["name"] == "service.service.solve_batch"]
    mutates = [s for s in trace if s["name"] == "service.service.mutate"]
    own = self_times(trace)
    children: Dict[str, List[Dict]] = {}
    for span in trace:
        if span["parent"] is not None and span["id"] >= len(records):
            children.setdefault(span["name"], []).append(span)

    def per_batch(name: str, field: str = "") -> float:
        spans = children.get(name, ())
        if field:
            total = sum(span.get(field, 0) for span in spans)
        else:
            total = sum(span["end"] - span["start"] for span in spans) * 1000.0
        return total / len(batches) if batches else 0.0

    before, after = [], []
    batch_time = 0.0
    for batch in batches:
        for index in batch["requests"]:
            record = records[index]
            if record["ok"]:
                before.append(batch["start"] - record["start"])
                after.append(record["end"] - batch["end"])
                batch_time += batch["end"] - batch["start"]
    solved = sum(len(batch["sources"]) for batch in batches)
    certified = children.get("analysis.cost.certify", ())
    classified = children.get("core.classification.classify", ())
    fix_ms = per_batch("core.magic_method.fixpoint")
    fix_retrievals = per_batch("core.magic_method.fixpoint", "retrievals")
    maintenance = [span["maintenance"] for span in mutates]

    def per_mutation(*fields: str) -> float:
        return mean([sum(m.get(f, 0) for f in fields) for m in maintenance])

    mutate_latency = percentile(
        [r["end"] - r["start"] for r in records if r["ok"] and r["op"] != "solve"],
        50,
    )
    metrics = {
        "server.pre_service_ms": 1000.0 * (percentile(before, 50) or 0.0),
        "server.post_service_ms": 1000.0 * (percentile(after, 50) or 0.0),
        "service.service.solve_batch_ms": 1000.0
        * mean([b["end"] - b["start"] for b in batches]),
        "service.service.self_ms": 1000.0 * mean([own[b["id"]] for b in batches]),
        "service.service.mutate_ms": 1000.0
        * mean([m["end"] - m["start"] for m in mutates]),
        "service.service.mutate_client_p50_ms": 1000.0 * (mutate_latency or 0.0),
        "service.plan.bytes": batches[-1]["plan_bytes"] if batches else 0,
        "service.plan.certify_ms_per_source": 1000.0
        * mean([s["end"] - s["start"] for s in certified]),
        "service.plan.certify_cold_share": len(certified) / solved if solved else 0.0,
        "service.plan.maintain_retrievals": per_mutation("retrievals"),
        "service.plan.pairs_changed_per_mutation": per_mutation(
            "pairs_added", "pairs_removed"
        ),
        "core.classification.classify_ms": 1000.0
        * mean([s["end"] - s["start"] for s in classified]),
        "core.multi_source.union_ms": per_batch("core.multi_source.union"),
        "core.multi_source.union_retrievals": per_batch(
            "core.multi_source.union", "retrievals"
        ),
        "core.magic_method.fixpoint_ms": fix_ms,
        "core.magic_method.fixpoint_retrievals": fix_retrievals,
        "core.magic_method.fixpoint_us_per_retrieval": 1000.0 * fix_ms / fix_retrievals
        if fix_retrievals
        else 0.0,
        "core.counting_method.counting_ms": per_batch("core.counting_method.counting"),
        "core.counting_method.counting_retrievals": per_batch(
            "core.counting_method.counting", "retrievals"
        ),
        "datalog.maintenance.overdeleted": per_mutation("overdeleted"),
        "datalog.maintenance.rederived": per_mutation("rederived"),
    }
    observed = sum(
        r["end"] - r["start"] for r in records if r["ok"] and r["op"] == "solve"
    )
    return metrics, observed, batch_time


def _stats_layers(raw: Dict) -> Dict[str, float]:
    """Deltas of the server's own ``stats`` over the measured run."""
    before, after = raw["baseline"], raw["final"]

    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    batches = delta("coalescer", "batches")
    lookups = delta("service", "cache:hits") + delta("service", "cache:misses")
    return {
        "server.coalescer.sources_per_batch": delta("coalescer", "coalesced") / batches
        if batches
        else 0.0,
        "server.coalescer.rejected": delta("coalescer", "overloaded")
        + delta("coalescer", "expired"),
        # the server's reservoir keeps the most recent 2,048 requests
        "server.server.latency_p50_ms": after["server"]["latency_ms"]["p50_ms"],
        "service.cache.hit_rate": delta("service", "cache:hits") / lookups
        if lookups
        else 0.0,
    }


# --- layer-direct replays -------------------------------------------------


def replay_codec(raw: Dict) -> Dict[str, float]:
    """Both ends' encode and decode of the run's own solve frames."""
    from repro.server.protocol import (
        decode_answers,
        decode_request,
        encode_answers,
        encode_frame,
        encode_value,
        ok_response,
    )

    solves = [r for r in raw["records"] if r["ok"] and r["op"] == "solve"]
    sample = solves[:: max(1, len(solves) // 200)]
    spent = 0.0
    size = 0
    for number, record in enumerate(sample):
        start = time.perf_counter()
        request = encode_frame(
            {"id": number, "op": "solve",
             "params": {"source": encode_value(record["arg"])}}
        )
        decode_request(request)
        response = encode_frame(
            ok_response(
                number,
                {"source": encode_value(record["arg"]),
                 "answers": encode_answers(record["result"])},
            )
        )
        decode_answers(json.loads(response)["result"]["answers"])
        spent += time.perf_counter() - start
        size += len(request) + len(response)
    count = max(1, len(sample))
    return {
        "server.protocol.codec_us_per_op": spent / count * 1e6,
        "server.protocol.bytes_per_op": size / count,
    }


def replay_coalescer(raw: Dict) -> Dict[str, float]:
    """A standalone coalescer at the server's defaults with an executor
    that answers at once, fed the run's steps: what is left is the wait
    for the window (or for ``max_batch``) itself."""
    from repro.server.coalescer import RequestCoalescer

    records = raw["records"]
    steps: Dict[int, List] = {}
    for record in records:
        if record["op"] == "solve":
            steps.setdefault(record["step"], []).append(record["arg"])
    sample = list(steps.values())[:REPLAY_SAMPLES]

    async def execute(_key, sources):
        return {source: frozenset() for source in sources}

    async def one(coalescer, source):
        start = time.perf_counter()
        await coalescer.submit("replay", source)
        return time.perf_counter() - start

    async def replay():
        coalescer = RequestCoalescer(execute)
        waits: List[float] = []
        for sources in sample:
            waits.extend(
                await asyncio.gather(*(one(coalescer, s) for s in sources))
            )
        return waits

    waits = asyncio.run(replay())
    return {"server.coalescer.window_wait_ms": 1000.0 * mean(waits)}


def replay_setup(workload) -> Dict[str, float]:
    """The set-up path, layer by layer, on the workload's own texts:
    parse, recognise and materialise, analyse, optimise, compile."""
    from repro.analysis.cost import certify_cost
    from repro.analysis.rewrite import optimize_program
    from repro.analysis.static import run_static_analysis
    from repro.core.csl import CSLQuery
    from repro.datalog.io import loads_database
    from repro.datalog.parser import parse_program
    from repro.service.plan import compile_program_plan

    def parse():
        return parse_program(workload.program_text), loads_database(
            workload.facts_text
        )

    parse_ms, (program, database) = _timed_ms(parse)
    query = CSLQuery.from_program(program, database=database)
    certify_ms, _ = _timed_ms(certify_cost, query)
    analyze_ms, _ = _timed_ms(
        run_static_analysis, program, database, csl_query=query
    )
    optimize_ms, _ = _timed_ms(optimize_program, program, database)
    compile_ms, plan = _timed_ms(compile_program_plan, program, database)
    optimization = plan.optimization.summary() if plan.optimization else {}
    return {
        "datalog.parser.parse_ms": parse_ms,
        "analysis.cost.certify_ms": certify_ms,
        "analysis.static.analyze_ms": analyze_ms,
        "analysis.rewrite.optimize_ms": optimize_ms,
        "service.plan.compile_ms": compile_ms,
        "service.plan.optimize_ms": optimization.get("optimize_ms", 0.0),
        "service.plan.rules_removed": optimization.get("rules_removed", 0),
    }


def replay_maintenance(workload, raw: Dict) -> Dict[str, float]:
    """``CompiledPlan.maintain`` on the run's own mutations, and inside
    it the ``datalog.maintenance`` engine's share."""
    from repro.datalog.io import loads_database
    from repro.datalog.parser import parse_program
    from repro.service.plan import compile_program_plan

    facts = []
    for record in raw["records"]:
        if record["op"] == "remove" and record["arg"] not in facts:
            facts.append(record["arg"])
    if not facts:
        return {}
    database = loads_database(workload.facts_text)
    plan = compile_program_plan(parse_program(workload.program_text), database)
    state = plan.maintainer.state
    engine_apply = state.apply
    inner: List[float] = []

    def timed_apply(**delta):
        elapsed, report = _timed(engine_apply, **delta)
        inner.append(elapsed)
        return report

    state.apply = timed_apply
    outer: List[float] = []
    version = 0
    for name, row in facts[:REPLAY_SAMPLES]:
        for delta in ({"deletes": {name: [tuple(row)]}, "inserts": {}},
                      {"inserts": {name: [tuple(row)]}, "deletes": {}}):
            version += 1
            elapsed, _ = _timed(
                plan.maintain, delta["inserts"], delta["deletes"], version
            )
            outer.append(elapsed)
    return {
        "service.plan.maintain_ms": 1000.0 * mean(outer),
        "datalog.maintenance.delete_ms": 1000.0 * mean(inner[0::2]),
        "datalog.maintenance.insert_ms": 1000.0 * mean(inner[1::2]),
    }


def replay_steps(workload) -> Dict[str, float]:
    """Step 1 per strategy and Step 2 per mode, called directly."""
    from repro.core.csl import CSLQuery
    from repro.core.reduced_sets import Mode, Strategy
    from repro.core.step1 import compute_reduced_sets
    from repro.core.step2 import independent_step2, integrated_step2

    step1: Dict[str, List[float]] = {}
    step2: Dict[str, List[float]] = {}
    retrievals = {"step1": 0, "step2": 0}
    variants = [(s, False) for s in Strategy] + [(Strategy.RECURRING, True)]
    for data in workload.datasets.values():
        query = CSLQuery(
            data["left"], data["exit"], data["right"], data["sources"][0]
        )
        for strategy, scc in variants:
            label = strategy.value + ("_scc" if scc else "")
            for mode, run in ((Mode.INDEPENDENT, independent_step2),
                              (Mode.INTEGRATED, integrated_step2)):
                instance = query.instance()
                elapsed, reduced = _timed(
                    compute_reduced_sets, instance, strategy, scc_variant=scc
                )
                step1.setdefault(label, []).append(elapsed)
                after_step1 = instance.counter.retrievals
                if mode is Mode.INTEGRATED:
                    reduced.ensure_source_pair(instance.source)
                elapsed, _ = _timed(run, instance, reduced)
                step2.setdefault(mode.value, []).append(elapsed)
                retrievals["step1"] += after_step1
                retrievals["step2"] += instance.counter.retrievals - after_step1
    metrics = {
        f"core.step1.{label}_ms": 1000.0 * mean(times)
        for label, times in step1.items()
    }
    metrics.update(
        {f"core.step2.{mode}_ms": 1000.0 * mean(times)
         for mode, times in step2.items()}
    )
    # Step 1 ran once per mode: halve to count each strategy once.
    metrics["core.step1.retrievals"] = retrievals["step1"] / 2
    metrics["core.step2.retrievals"] = retrievals["step2"]
    return metrics


def replay_engines(workload, problems: List[str]) -> Dict[str, float]:
    """The three engines on the small ``oracle`` database (they must
    charge identical retrievals and agree on the answers), kernel
    lowering, and the storage backends' probe and load costs on the
    workload's largest dataset.  A disagreement goes to ``problems``."""
    from repro.core.csl import CSLQuery
    from repro.datalog.database import Database
    from repro.datalog.engine import CompiledProgram
    from repro.datalog.evaluation import answer_tuples
    from repro.datalog.parser import parse_program
    from repro.datalog.relation import CostCounter

    data = workload.datasets["oracle"]
    program = parse_program(data["program"].format(source=data["sources"][0]))

    def load(backend: str, dataset: Dict) -> Database:
        database = Database(CostCounter(), backend=backend)
        for relation, part in (("l", "left"), ("e", "exit"), ("r", "right")):
            database.create(relation, 2).add_all(tuple(p) for p in dataset[part])
        return database

    counts = {}
    for engine, backend in (("interpreted", "set"), ("compiled", "set"),
                            ("columnar", "columnar")):
        database = load(backend, data)
        elapsed, answers = _timed(answer_tuples, program, database, engine=engine)
        counts[engine] = (database.counter.retrievals, frozenset(answers))
        if engine == "interpreted":
            interpreted_ms = 1000.0 * elapsed
    if len(set(counts.values())) != 1:
        problems.append(
            "engines disagree on retrievals or answers: "
            + ", ".join(f"{e}={c[0]}" for e, c in counts.items())
        )
    kernel_ms, _ = _timed_ms(CompiledProgram, program)

    largest = max(workload.datasets.values(), key=lambda d: len(d["left"]))
    keys = sorted({pair[0] for pair in largest["left"]})
    metrics = {
        "datalog.evaluation.interpreted_ms": interpreted_ms,
        "datalog.engine.retrievals": counts["compiled"][0],
        "datalog.engine.kernel_compile_ms": kernel_ms,
    }
    for backend, layer in (("set", "relation"), ("columnar", "columnar")):
        load_ms, database = _timed_ms(load, backend, largest)
        relation = database.relation("l")
        for key in keys:  # build the lazy index before timing probes
            list(relation.lookup((key, None)))
        start = time.perf_counter()
        for key in keys:
            list(relation.lookup((key, None)))
        metrics[f"datalog.{layer}.probe_us"] = (
            (time.perf_counter() - start) / len(keys) * 1e6
        )
        metrics[f"datalog.{layer}.load_ms"] = load_ms
        if backend == "columnar":
            metrics["datalog.columnar.resident_bytes"] = database.memory_bytes()
            store = relation.backend
            ids = database.symbols.get_many(keys)
            if store.vector:
                import numpy

                ids = numpy.asarray(ids, dtype=numpy.int64)
            elapsed, _ = _timed(store.probe_batch, (0,), [ids], len(keys))
            metrics["datalog.columnar.probe_batch_us_per_key"] = (
                elapsed / len(keys) * 1e6
            )
    return metrics


# --- assembly -------------------------------------------------------------


def per_layer(workload, raw: Dict) -> Tuple[Dict[str, float], List[Dict], List[str], List[str]]:
    """``(metrics, trace, notes, problems)`` for one traced run.

    ``problems`` are correctness failures found by a replay (engines
    that disagree); ``notes`` record replays skipped because their layer
    is gone.
    """
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    notes: List[str] = []
    problems: List[str] = []
    trace: List[Dict] = []

    def replay(function: Callable, *args) -> None:
        try:
            metrics.update(function(*args))
        except (ImportError, AttributeError) as exc:
            notes.append(f"{function.__name__} skipped, layer absent: {exc!r}")

    if workload.kind == "served":
        trace = build_trace(raw)
        from_spans, observed, in_service = _span_layers(raw, trace)
        metrics.update(from_spans)
        metrics.update(_stats_layers(raw))
        replay(replay_codec, raw)
        replay(replay_coalescer, raw)
        replay(replay_setup, workload)
        replay(replay_maintenance, workload, raw)
        solves = sum(1 for r in raw["records"] if r["ok"] and r["op"] == "solve")
        attributed = in_service + solves * (
            metrics["server.coalescer.window_wait_ms"] / 1e3
            + metrics["server.protocol.codec_us_per_op"] / 1e6
        )
        metrics["server.unattributed_share"] = unattributed_share(
            observed, attributed
        )
    else:
        by_label: Dict[str, List[float]] = {}
        loads: Dict[str, List[float]] = {}
        for index, load_s, start, end, _retrievals, ok in raw["ops"]:
            if ok:
                label = workload.cells[index]["label"]
                by_label.setdefault(label, []).append(end - start)
                loads.setdefault(label, []).append(load_s)
            trace.append(
                {"id": len(trace), "name": workload.cells[index]["label"],
                 "start": start, "end": end, "parent": None,
                 "request": len(trace)}
            )
        if workload.name == "library_methods":
            for label, times in by_label.items():
                metrics[f"core.methods.{label}_ms"] = 1000.0 * mean(times)
            replay(replay_steps, workload)
        else:
            metrics["datalog.engine.compiled_ms"] = 1000.0 * mean(
                by_label.get("compiled", [])
            )
            metrics["datalog.columnar_engine.columnar_ms"] = 1000.0 * mean(
                by_label.get("columnar", [])
            )
            replay(replay_engines, workload, problems)
            # In-run load times replace the replay's: same code, more samples.
            metrics["datalog.relation.load_ms"] = 1000.0 * mean(loads.get("compiled", []))
            metrics["datalog.columnar.load_ms"] = 1000.0 * mean(loads.get("columnar", []))
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
    return metrics, trace, notes, problems
