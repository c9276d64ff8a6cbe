"""One adjacency index per pair-set version, shared by every analysis.

``CSLQuery.index`` is the only place a whole relation is iterated;
``with_source`` and ``CompiledPlan.query_for`` hand the same object to
every per-source question, and a mutation hands the next version the
old index's patched successor.  These tests pin the things that could
go wrong with that: an analysis that reads the shared index answers
differently from one that built its own, the index gets rebuilt per
source (or per mutation) after all, a plan keeps an index older than
its pair sets, or a successor — its adjacency, or the condensation it
carried across — differs from a from-scratch build of the same pairs.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.graph_index as graph_index
from repro.analysis.cost import certify_cost, collect_statistics
from repro.analysis.static import certify_counting_safety
from repro.core.classification import classify_nodes
from repro.core.counting_method import counting_method
from repro.core.csl import CSLQuery
from repro.core.graph_index import GraphIndex
from repro.core.query_graph import build_query_graph
from repro.core.solver import fact2_answer
from repro.datalog.database import Database
from repro.service import SolverService
from repro.service.plan import compile_program_plan
from repro.workloads.generators import acyclic_workload

from .conftest import _L_VALUES, _R_VALUES, csl_queries
from .test_service import sg_database, sg_program


def _analyses(query):
    return (
        build_query_graph(query),
        collect_statistics(query).summary(),
        certify_cost(query).to_json(),
        certify_counting_safety(query),
        classify_nodes(query),
    )


@settings(max_examples=60, deadline=None)
@given(csl_queries())
def test_shared_index_answers_like_a_fresh_query(query):
    magic_side = {query.source} | {b for b, _c in query.exit}
    magic_side.update(value for pair in query.left for value in pair)
    for source in sorted(magic_side):
        sibling = query.with_source(source)
        assert sibling.index is query.index
        fresh = CSLQuery(query.left, query.exit, query.right, source)
        assert sibling == fresh
        assert _analyses(sibling) == _analyses(fresh)


def _count_index_builds(monkeypatch):
    builds = []
    build = GraphIndex.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(GraphIndex, "__init__", counted)
    return builds


def _snapshot(index):
    """A deep, order-free copy of an index's adjacency."""
    return (
        {b: frozenset(cs) for b, cs in index.l_successors.items()},
        {c: sorted(bs, key=repr) for c, bs in index.l_predecessors.items()},
        {b: sorted(cs, key=repr) for b, cs in index.e_successors.items()},
        {y1: sorted(ys, key=repr) for y1, ys in index.r_predecessors.items()},
    )


def test_one_index_per_pair_set_version(monkeypatch):
    """50 cold sources, then a mutation, then 50 more: one from-scratch
    build; the second version's index is the first one's successor."""
    database = Database()
    database.add_facts("up", [(f"n{i}", f"n{i + 1}") for i in range(50)])
    database.add_facts("flat", [("n50", "f")])
    database.add_facts("down", [(f"g{i + 1}", f"g{i}") for i in range(50)])
    database.add_facts("down", [("g0", "f")])
    service = SolverService(database)
    builds = _count_index_builds(monkeypatch)
    sources = [f"n{i}" for i in range(50)]

    for source in sources:
        result = service.solve(sg_program(source))
        assert result.answers == {f"g{49 - int(source[1:])}"}
    assert len(builds) == 1

    plan = service.compile(sg_program())
    base = plan.query_for("n0")
    first = base.index
    assert base.with_source("n7").index is first is builds[0]
    assert len(builds) == 1
    before = _snapshot(first)

    assert service.mutate(inserts={"up": [("n50", "n51")]}).plans_maintained
    for source in sources:
        service.solve(sg_program(source))
    assert len(builds) == 1
    query = plan.query_for("n0")
    second = query.index
    assert second is not first
    assert _snapshot(first) == before
    assert _snapshot(second) == _snapshot(
        GraphIndex(query.left, query.exit, query.right)
    )
    # What the delta did not touch is the same object in both.
    assert second.l_successors["n7"] is first.l_successors["n7"]
    assert second.e_successors is first.e_successors
    assert second.r_predecessors is first.r_predecessors


def test_a_maintained_plan_never_reads_a_stale_index():
    """Close an L-cycle by insertion, then open it again by deletion:
    the plan's certificates track a fresh compile and the adaptive
    choice — the fresh plan's recommendation — flips with them."""
    service = SolverService(sg_database())
    program = sg_program("a")
    plan = service.compile(program)
    served = []

    def check(unsafe):
        fresh = compile_program_plan(program, service.database)
        assert service.compile(program) is plan
        assert plan.counting_certificate("a") == fresh.counting_certificate("a")
        assert plan.counting_certificate("a").is_unsafe is unsafe
        assert (
            plan.cost_certificate("a").to_json()
            == fresh.cost_certificate("a").to_json()
        )
        served.append(service.solve(program).method)
        assert served[-1] == (
            "service_" + fresh.cost_report("a").recommendation.method
        )

    check(unsafe=False)
    service.mutate(inserts={"up": [("c", "a")]})
    check(unsafe=True)
    assert plan.counting_certificate("a").cycle is not None
    service.mutate(deletes={"up": [("c", "a")]})
    check(unsafe=False)
    assert served[0] == served[2] != served[1]


# --- the successor index against a from-scratch build ------------------------


def _assert_same_index(index, fresh):
    assert _snapshot(index) == _snapshot(fresh)
    condensation, expected = index.condensation, fresh.condensation
    assert condensation.cores == expected.cores
    assert set(condensation.rank) == set(expected.rank) == index.l_nodes()
    assert (condensation.first_cyclic is None) == (
        expected.first_cyclic is None
    )
    rank, cores = condensation.rank, condensation.cores
    for b, targets in index.l_successors.items():
        for c in targets:
            if b in cores and c in cores:
                assert rank[b] >= rank[c]
            else:
                assert rank[b] > rank[c]


def _assert_same_plan(plan, fresh):
    query = fresh.query_for(fresh.default_source)
    assert plan.query_for(plan.default_source) == query
    _assert_same_index(plan.query_for(plan.default_source).index, query.index)
    assert (
        plan.relation_certificate.describe()
        == fresh.relation_certificate.describe()
    )
    for source in sorted(
        {query.source} | {value for pair in query.left for value in pair}
    ):
        assert plan.decision(source) == fresh.decision(source)
        assert (
            plan.counting_certificate(source).describe()
            == fresh.counting_certificate(source).describe()
        )
        assert (
            plan.cost_certificate(source).to_json()
            == fresh.cost_certificate(source).to_json()
        )


_PART_DOMAINS = {
    "l": (_L_VALUES, _L_VALUES),
    "e": (_L_VALUES, _R_VALUES),
    "r": (_R_VALUES, _R_VALUES),
}


@st.composite
def _deltas(draw, database):
    """One signed EDB delta over ``l``/``e``/``r``: a few new pairs (any
    pair of the domain: self-loops, back arcs, new nodes) and a few of
    the pairs that are there (so nodes leave ``L`` and cycles reopen)."""
    inserts, deletes = {}, {}
    for part, (firsts, seconds) in _PART_DOMAINS.items():
        added = draw(
            st.sets(
                st.tuples(st.sampled_from(firsts), st.sampled_from(seconds)),
                max_size=2,
            )
        )
        present = sorted(database.facts(part))
        removed = (
            draw(st.sets(st.sampled_from(present), max_size=2))
            if present else set()
        )
        if added:
            inserts[part] = sorted(added)
        if removed:
            deletes[part] = sorted(removed)
    return inserts, deletes


@settings(max_examples=60, deadline=None)
@given(csl_queries(max_l=8), st.booleans(), st.data())
def test_a_patched_index_is_a_fresh_build(query, acyclic, data):
    """Random signed-delta sequences, each delta followed by its undo
    (the same pairs removed then re-added, a closed cycle reopened):
    after every step the maintained plan — index, condensation,
    decisions, certificates — is a fresh compile's, and the index it
    succeeded is as it was."""
    if acyclic:
        query = CSLQuery(
            {(b, c) for b, c in query.left if b < c},
            query.exit, query.right, query.source,
        )
    service = SolverService(query.database())
    database = service.database
    program = query.to_program()
    plan = service.compile(program)
    source = plan.default_source
    _assert_same_plan(plan, compile_program_plan(program, database))
    for _step in range(data.draw(st.integers(min_value=1, max_value=4))):
        inserts, deletes = data.draw(_deltas(database))
        if acyclic:
            inserts["l"] = [(b, c) for b, c in inserts.get("l", ()) if b < c]
        # The undo: what the delta really added goes, what it really
        # removed comes back.
        undo = (
            {
                part: [row for row in rows if row in database.facts(part)]
                for part, rows in deletes.items()
            },
            {
                part: [row for row in rows if row not in database.facts(part)]
                for part, rows in inserts.items()
            },
        )
        for ins, dels in ((inserts, deletes), undo):
            predecessor = plan.query_for(source).index
            before = _snapshot(predecessor)
            service.mutate(inserts=ins, deletes=dels)
            assert service.compile(program) is plan
            assert _snapshot(predecessor) == before
            if data.draw(st.booleans(), label="analyze between deltas"):
                _assert_same_plan(plan, compile_program_plan(program, database))
            else:
                # The next delta patches an index nobody has condensed.
                assert _snapshot(plan.query_for(source).index) == _snapshot(
                    GraphIndex(*map(database.facts, _PART_DOMAINS))
                )
    _assert_same_plan(plan, compile_program_plan(program, database))


A, B, C, D, Z = "abcdz"


@pytest.mark.parametrize(
    "left, added, removed, carried",
    [
        # On a DAG every deletion keeps the condensation (C leaves L).
        ({(A, B), (B, C)}, (), {(B, C)}, True),
        # An arc that runs down the ranks closes nothing.
        ({(A, B), (B, C)}, {(A, C)}, (), True),
        ({(A, B), (C, D)}, {(D, A)}, (), True),
        # Endpoints new to L: tail, head, both.
        ({(A, B)}, {(Z, A)}, (), True),
        ({(A, B)}, {(B, Z)}, (), True),
        ({(A, B)}, {(C, D)}, (), True),
        # The same pair removed and re-added, in one delta and in two.
        ({(A, B), (B, C)}, {(B, C)}, {(B, C)}, True),
        # A rank inversion: one that closes a cycle, one that does not.
        ({(A, B), (B, C)}, {(C, A)}, (), False),
        ({(A, B), (C, D)}, {(B, C)}, (), False),
        # A self-loop, on an old node and on a new one.
        ({(A, B)}, {(A, A)}, (), False),
        ({(A, B)}, {(Z, Z)}, (), False),
        # Any L delta on a graph with cores.
        ({(A, B), (B, A), (C, D)}, (), {(C, D)}, False),
        ({(A, B), (B, A), (C, D)}, (), {(B, A)}, False),
        ({(A, A), (C, D)}, {(D, Z)}, (), False),
    ],
)
def test_the_condensation_is_carried_when_the_delta_keeps_it(
    monkeypatch, left, added, removed, carried
):
    exit_pairs, right = {(A, "y")}, {("y", "y")}
    index = GraphIndex(left, exit_pairs, right)
    old = index.condensation
    ranks = dict(old.rank)
    successor = index.patched(left=(added, removed))
    passes = []
    condense = graph_index.condense
    monkeypatch.setattr(
        graph_index, "condense",
        lambda *args: passes.append(args) or condense(*args),
    )
    condensation = successor.condensation
    monkeypatch.undo()
    assert len(passes) == (0 if carried else 1)
    assert index.condensation is old and old.rank == ranks
    _assert_same_index(
        successor,
        GraphIndex((left | set(added)) - set(removed), exit_pairs, right),
    )
    for node, rank in condensation.rank.items():
        if carried and node not in ranks:
            assert rank > max(ranks.values()) or rank < min(ranks.values())
    # A delta that leaves L alone hands the condensation over as it is.
    assert index.patched(exit=({(B, "y")}, ())).condensation is old
    assert index.patched(right=((), {("y", "y")})).condensation is old


@pytest.mark.parametrize(
    "delta, carried",
    [
        ({"left": ({(B, C)}, set())}, True),
        ({"left": (set(), {(A, B)})}, True),
        ({"exit": ({(B, "z")}, set())}, False),
        ({"exit": (set(), {(A, "y")})}, False),
        ({"right": ({("z", "y")}, set())}, False),
        ({"right": (set(), {("y", "y")})}, False),
        ({"left": ({(B, C)}, set()), "right": ({("z", "y")}, set())}, False),
    ],
)
def test_the_bit_index_is_carried_iff_e_and_r_are_untouched(delta, carried):
    left, exit_pairs, right = {(A, B)}, {(A, "y"), (B, "x")}, {("y", "y"), ("x", "y")}
    query = CSLQuery(left, exit_pairs, right, A)
    bits = query.index.bits
    successor = query.patched(**delta)
    assert (successor.index._bits is bits) is carried
    assert query.index.bits is bits  # the predecessor keeps its own
    fresh = CSLQuery(successor.left, successor.exit, successor.right, A)
    new = successor.index.bits
    for x, targets in fresh.index.e_successors.items():
        assert new.decode(successor.index.ebits.row(x)) == set(targets)
    for y1, ys in fresh.index.r_predecessors.items():
        mask = new.encode([y1])
        assert new.decode(new.image(mask, {})) == set(ys)
        assert new.degree(mask) == len(ys)


#: the drawn instances' domains, and values no instance starts with: a
#: delta over these appends bits, past the first byte too
_NEW_L = [f"x{i}" for i in range(7, 12)]
_NEW_R = [f"y{i}" for i in range(7, 12)]


def _images(index):
    """Every image and weight of the three bit indexes, decoded: ``L``
    and ``E`` per ``L``-side value, ``R⁻¹`` per answer-side value, one
    many-value mask per side, and ``{k: values}`` per weight mask."""
    lbits, ebits, bits = index.lbits, index.ebits, index.bits
    out = {}
    for side, one, decode in (
        ("l", lbits, lbits.decode), ("e", ebits, bits.decode), ("r", bits, bits.decode),
    ):
        numbering = sorted(one.values, key=repr)
        for value in numbering:
            out[side, value] = decode(one.image(one.encode([value]), {}))
        out[side, "*"] = decode(one.image(one.encode(numbering[::2]), {}))
        out[side, "weights"] = {
            k: one.decode(w) for k, w in enumerate(one.weights) if w
        }
    out["rows"] = {x: bits.decode(ebits.row(x)) for x in sorted(ebits.values, key=repr)}
    return out


def _expected_images(fresh, lvalues, rvalues):
    """``_images`` of ``fresh``'s adjacency over the given numberings."""
    out = {}
    for side, values, adjacency in (
        ("l", lvalues, fresh.l_successors),
        ("e", lvalues, fresh.e_successors),
        ("r", rvalues, fresh.r_predecessors),
    ):
        numbering = sorted(values, key=repr)
        for value in numbering:
            out[side, value] = set(adjacency.get(value, ()))
        out[side, "*"] = {y for x in numbering[::2] for y in adjacency.get(x, ())}
        weights = {}
        for value in values:
            degree = len(adjacency.get(value, ()))
            for k in range(degree.bit_length()):
                if degree >> k & 1:
                    weights.setdefault(k, set()).add(value)
        out[side, "weights"] = weights
    out["rows"] = {
        x: set(fresh.e_successors.get(x, ())) for x in sorted(lvalues, key=repr)
    }
    return out


@settings(max_examples=80, deadline=None)
@given(csl_queries(max_l=8), st.data())
def test_patched_bit_indexes_decode_like_a_fresh_build(query, data):
    """Random signed ``L``/``E``/``R`` deltas, some adding values and
    some not: each successor's ``L``, ``E`` and ``R⁻¹`` images, rows
    and weights decode to a from-scratch index's, over a numbering that
    is the predecessor's with the new values appended (shared when
    there are none); the predecessor still reads as it did."""
    pairs = {"left": set(query.left), "exit": set(query.exit), "right": set(query.right)}
    domains = {
        "left": (_L_VALUES + _NEW_L, _L_VALUES + _NEW_L),
        "exit": (_L_VALUES + _NEW_L, _R_VALUES + _NEW_R),
        "right": (_R_VALUES + _NEW_R, _R_VALUES + _NEW_R),
    }
    index = GraphIndex(pairs["left"], pairs["exit"], pairs["right"])
    before = _images(index)  # builds the three, fills their tables
    for _step in range(data.draw(st.integers(min_value=1, max_value=4))):
        deltas = {}
        for part, (firsts, seconds) in domains.items():
            if not data.draw(st.booleans()):
                continue
            added = data.draw(st.sets(
                st.tuples(st.sampled_from(firsts), st.sampled_from(seconds)),
                max_size=3,
            ))
            present = sorted(pairs[part])
            removed = (
                data.draw(st.sets(st.sampled_from(present), max_size=2))
                if present else set()
            )
            deltas[part] = (added, removed)
            pairs[part] = (pairs[part] | added) - removed
        old = index.lbits, index.ebits, index.bits
        successor = index.patched(**deltas)
        lbits, ebits, bits = successor._lbits, successor._ebits, successor._bits
        for new, carried in zip((lbits, ebits, bits), old):
            assert new is not None
            assert new.values[: len(carried.values)] == carried.values
            if len(new.values) == len(carried.values):
                assert new.values is carried.values
            assert new is carried or new.table is not carried.table
        assert ebits.values is lbits.values and ebits.target is bits
        fresh = GraphIndex(pairs["left"], pairs["exit"], pairs["right"])
        assert set(fresh.lbits.values) <= set(lbits.values)
        assert set(fresh.bits.values) <= set(bits.values)
        images = _images(successor)
        assert images == _expected_images(fresh, lbits.values, bits.values)
        assert _images(index) == before
        index, before = successor, images


def test_walks_filling_the_tables_race_the_patches_that_copy_them():
    """Counting fills the ``L``, ``E`` and ``R⁻¹`` tables without a lock
    while another thread succeeds the index: each walk answers on the
    index it started on, and each successor like a fresh build."""
    query = acyclic_workload(scale=2, seed=0)
    sources = sorted({value for pair in query.left for value in pair}, key=repr)
    expected = {source: fact2_answer(query.with_source(source)) for source in sources}
    wrong = []

    def walk():
        for source in sources * 3:
            if counting_method(query.with_source(source)).answers != expected[source]:
                wrong.append(source)

    arcs = sorted(query.left, key=repr)[::7]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk) for _ in range(3)]
        for thread in threads:
            thread.start()
        index, left = query.index, set(query.left)
        for step, arc in enumerate(arcs):
            delta = ({(f"new{step}", arc[1])}, {arc})  # a new value, an arc gone
            index = index.patched(left=delta)
            left = (left | delta[0]) - delta[1]
            successor = CSLQuery(left, query.exit, query.right, query.source)
            successor._shared.index = index
            source = sources[step % len(sources)]
            assert counting_method(successor.with_source(source)).answers == (
                fact2_answer(successor.with_source(source))
            )
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
