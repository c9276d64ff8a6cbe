"""The five named workloads: seeded inputs, op streams and oracles.

Every input the program under test sees is generated here.  Two kinds:

* **served** workloads hand a program text and a facts text to a server
  child (exactly what ``python -m repro serve prog.dl --facts f.dl``
  reads) and an endless stream of closed-loop *steps* to the load
  generator.  A step is the list of requests in flight together: one
  request, or one pipelined wave;
* **library** workloads hand datasets and a list of cells to a child
  that calls the library in-process, round after round.

**What ``--seed`` drives.**  The *shape* of every database is fixed
(:data:`STRUCTURE_SEED`); the run seed drives the order and choice of
operations.  The Table-1 cyclic family swings 72k–104k retrievals per
wave with the generator seed alone (where the back arc lands decides
how much of the graph is recurring), which is wider than any bound a
benchmark may set.  Fixing the shape keeps the spread across seeds at
the level of run-to-run noise, so the bounds can be tight enough to
catch a real regression.

Op streams are built from whole shuffled *epochs* of a fixed source
pool, so any prefix that is a whole number of epochs visits every
source equally often whatever the seed: ``retrievals_per_op`` over that
prefix repeats exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.csl import CSLQuery
from repro.core.reduced_sets import Mode, Strategy
from repro.core.solver import fact2_answer
from repro.datalog.io import format_fact
from repro.workloads.generators import (
    acyclic_workload,
    cyclic_workload,
    regular_workload,
)
from repro.workloads.samegen import (
    balanced_tree_parent,
    random_forest_parent,
)

STRUCTURE_SEED = 0

#: ``(op, argument)``: ``("solve", source)``, ``("remove", (name, row))``
#: or ``("add", (name, row))``.
Request = Tuple[str, object]
Step = List[Request]

CSL_PROGRAM = (
    "p(X, Y) :- e(X, Y).\n"
    "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n"
    "?- p({source}, Y).\n"
)

DERIVED_SAMEGEN_PROGRAM = (
    "sg(X, Y) :- self(X, Y).\n"
    "sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).\n"
    "parent(X, Y) :- mother(X, Y).\n"
    "parent(X, Y) :- father(X, Y).\n"
    "?- sg({source}, Y).\n"
)

WAVE = 32
SOLVES_PER_MUTATION = 4


@dataclass
class Served:
    """A workload driven over the wire against a server child."""

    name: str
    program_text: str
    facts_text: str
    #: the source whose verified answer ends set-up
    first_source: object
    #: seeded endless stream of closed-loop steps
    steps: Callable[[random.Random], Iterator[Step]]
    #: ``oracle(source, removed)`` -> expected answers with the facts in
    #: ``removed`` (a frozenset of ``(name, row)``) absent from the EDB
    oracle: Callable[[object, frozenset], frozenset]
    #: fixed, excluded from every metric
    warmup_steps: int
    #: whole epochs: the prefix ``retrievals_per_op`` is read over
    retrieval_steps: int
    #: steps per slice; throughput and latency are read off quiet slices
    slice_steps: int
    in_flight: int
    kind: str = "served"


@dataclass
class Library:
    """A workload run in-process by a library child, in whole rounds."""

    name: str
    #: ``{dataset: {"left"|"exit"|"right": pairs, "sources": [...],
    #: "program": text}}``
    datasets: Dict[str, Dict]
    #: one op per cell per round
    cells: List[Dict]
    #: ``{dataset: {source: sorted answers}}`` from the oracle
    expected: Dict[str, Dict[str, List]]
    warmup_rounds: int
    in_flight: int = 1
    kind: str = "library"


def _magic_side(query: CSLQuery) -> List:
    return sorted({value for pair in query.left for value in pair})


def _csl_facts(query: CSLQuery) -> str:
    lines = []
    for name, pairs in (("l", query.left), ("e", query.exit), ("r", query.right)):
        lines.extend(format_fact(name, pair) for pair in sorted(pairs))
    return "\n".join(lines) + "\n"


def _epochs(rng: random.Random, pool: List) -> Iterator:
    """Endless concatenation of independent shuffles of ``pool``."""
    while True:
        yield from rng.sample(pool, len(pool))


def _csl_oracle(query: CSLQuery):
    def oracle(source, removed=frozenset()):
        return fact2_answer(
            CSLQuery(query.left, query.exit, query.right, source)
        )

    return oracle


def point_acyclic(tiny: bool = False) -> Served:
    query = acyclic_workload(scale=2 if tiny else 12, seed=STRUCTURE_SEED)
    pool = _magic_side(query)

    def steps(rng):
        for source in _epochs(rng, pool):
            yield [("solve", source)]

    return Served(
        name="point_acyclic",
        program_text=CSL_PROGRAM.format(source=query.source),
        facts_text=_csl_facts(query),
        first_source=query.source,
        steps=steps,
        oracle=_csl_oracle(query),
        warmup_steps=8 if tiny else 64,
        retrieval_steps=len(pool),
        slice_steps=4 if tiny else 32,
        in_flight=1,
    )


def wave_cyclic(tiny: bool = False) -> Served:
    query = cyclic_workload(scale=1 if tiny else 8, seed=STRUCTURE_SEED)
    pool = _magic_side(query)
    wave = 4 if tiny else WAVE

    def steps(rng):
        stream = _epochs(rng, pool)
        while True:
            yield [("solve", next(stream)) for _ in range(wave)]

    return Served(
        name="wave_cyclic",
        program_text=CSL_PROGRAM.format(source=query.source),
        facts_text=_csl_facts(query),
        first_source=query.source,
        steps=steps,
        oracle=_csl_oracle(query),
        warmup_steps=2 if tiny else 6,
        # Waves cut epochs at arbitrary points, so no prefix is a whole
        # number of both; 40 waves is 1,280 solves over 201 sources.
        retrieval_steps=4 if tiny else 40,
        slice_steps=1,
        in_flight=wave,
    )


def churn_derived(tiny: bool = False) -> Served:
    people = 60 if tiny else 2000
    structure = random.Random(STRUCTURE_SEED)
    pairs = sorted(
        random_forest_parent(
            people,
            seed=STRUCTURE_SEED,
            extra_parents=6 if tiny else 200,
        )
    )
    base = [
        ("mother" if structure.random() < 0.5 else "father", pair)
        for pair in pairs
    ]
    persons = sorted({value for pair in pairs for value in pair})
    pool = sorted(structure.sample(persons, 12 if tiny else 200))
    lines = [format_fact(name, pair) for name, pair in base]
    lines.extend(format_fact("self", (person, person)) for person in persons)
    all_pairs = frozenset(pairs)

    def steps(rng):
        sources = _epochs(rng, pool)
        while True:
            fact = rng.choice(base)
            for op in ("remove", "add"):
                for _ in range(SOLVES_PER_MUTATION):
                    yield [("solve", next(sources))]
                yield [(op, fact)]

    def oracle(source, removed=frozenset()):
        parent = all_pairs - {row for _name, row in removed}
        return fact2_answer(
            CSLQuery.same_generation(parent, source, persons=persons)
        )

    source = persons[-1]
    return Served(
        name="churn_derived",
        program_text=DERIVED_SAMEGEN_PROGRAM.format(source=source),
        facts_text="\n".join(lines) + "\n",
        first_source=source,
        steps=steps,
        oracle=oracle,
        warmup_steps=2 * (SOLVES_PER_MUTATION + 1),
        # One epoch of the pool, ending with the database back at base.
        retrieval_steps=len(pool) // SOLVES_PER_MUTATION
        * (SOLVES_PER_MUTATION + 1),
        # one remove/re-add pair with its eight solves
        slice_steps=2 * (SOLVES_PER_MUTATION + 1),
        in_flight=1,
    )


def _dataset(query: CSLQuery, sources: List) -> Dict:
    return {
        "left": sorted(query.left),
        "exit": sorted(query.exit),
        "right": sorted(query.right),
        "sources": sources,
        "program": CSL_PROGRAM,
    }


def _expected(datasets: Dict[str, Dict]) -> Dict[str, Dict[str, List]]:
    return {
        name: {
            source: sorted(
                fact2_answer(
                    CSLQuery(data["left"], data["exit"], data["right"], source)
                )
            )
            for source in data["sources"]
        }
        for name, data in datasets.items()
    }


def library_methods(tiny: bool = False) -> Library:
    scale = 1 if tiny else 8
    families = {
        "regular": regular_workload(scale=scale, seed=STRUCTURE_SEED),
        "acyclic": acyclic_workload(scale=scale, seed=STRUCTURE_SEED),
        "cyclic": cyclic_workload(scale=scale, seed=STRUCTURE_SEED),
    }
    datasets = {
        name: _dataset(query, [query.source])
        for name, query in families.items()
    }
    cells = []
    for family in families:
        for strategy in Strategy:
            for mode in Mode:
                cells.append(
                    {
                        "kind": "solve",
                        "dataset": family,
                        "label": f"{strategy.value}_{mode.value}",
                        "method": "magic_counting",
                        "strategy": strategy.value,
                        "mode": mode.value,
                    }
                )
        named = ["magic_set", "auto"]
        if family != "cyclic":
            named.append("counting")  # diverges on a cyclic magic graph
        for method in named:
            cells.append(
                {
                    "kind": "solve",
                    "dataset": family,
                    "label": method,
                    "method": method,
                }
            )
    return Library(
        name="library_methods",
        datasets=datasets,
        cells=cells,
        expected=_expected(datasets),
        warmup_rounds=1,
    )


def engine_samegen(tiny: bool = False) -> Library:
    datasets = {}
    cells = []
    structure = random.Random(STRUCTURE_SEED)
    for label, depth, engine, backend in (
        ("columnar", 3 if tiny else 8, "columnar", "columnar"),
        ("compiled", 3 if tiny else 7, "compiled", "set"),
        # no cell: the small database the traced run's three-engine
        # replay (interpreter included) is checked on
        ("oracle", 2 if tiny else 6, None, None),
    ):
        pairs = balanced_tree_parent(depth, fanout=2)
        leaves = sorted(
            {child for child, _ in pairs} - {parent for _, parent in pairs}
        )
        sources = sorted(structure.sample(leaves, 4))
        datasets[label] = _dataset(
            CSLQuery.same_generation(pairs, sources[0]), sources
        )
        if engine is not None:
            cells.append(
                {
                    "kind": "engine",
                    "dataset": label,
                    "label": label,
                    "engine": engine,
                    "backend": backend,
                }
            )
    return Library(
        name="engine_samegen",
        datasets=datasets,
        cells=cells,
        expected=_expected(datasets),
        warmup_rounds=2,
    )


BUILDERS = {
    "point_acyclic": point_acyclic,
    "wave_cyclic": wave_cyclic,
    "churn_derived": churn_derived,
    "library_methods": library_methods,
    "engine_samegen": engine_samegen,
}
NAMES = tuple(BUILDERS)


def build(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks it for the harness's tests."""
    return BUILDERS[name](tiny)


def inputs_digest(workload, seed: int, steps: int = 256) -> str:
    """SHA-256 over everything the seed and the builder decide: the
    generated texts or datasets and the first ``steps`` steps (or the
    first rounds' cell order).  Same seed, same digest — on any
    interpreter, whatever its hash randomisation."""
    rng = random.Random(seed)
    if workload.kind == "served":
        stream = workload.steps(rng)
        payload = [
            workload.program_text,
            workload.facts_text,
            [next(stream) for _ in range(steps)],
        ]
    else:
        payload = [
            workload.datasets,
            workload.cells,
            [
                round_plan(workload.cells, workload.datasets, rng)
                for _ in range(8)
            ],
        ]
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def round_plan(
    cells: List[Dict], datasets: Dict[str, Dict], rng: random.Random
) -> List[Tuple[int, str]]:
    """One round's ``(cell index, source)`` list in seeded order: every
    cell once, its goal constant drawn from its dataset's sources."""
    order = rng.sample(range(len(cells)), len(cells))
    return [
        (index, rng.choice(datasets[cells[index]["dataset"]]["sources"]))
        for index in order
    ]
