"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from repro.core.csl import CSLQuery
from repro.datalog.columnar import ColumnarBackend, SymbolTable
from repro.datalog.relation import CostCounter, Relation

# --- hypothesis strategies -------------------------------------------------

_L_VALUES = [f"x{i}" for i in range(7)]
_R_VALUES = [f"y{i}" for i in range(7)]


def _pairs(domain_a, domain_b, max_size):
    return st.sets(
        st.tuples(st.sampled_from(domain_a), st.sampled_from(domain_b)),
        max_size=max_size,
    )


@st.composite
def csl_queries(draw, max_l=14, max_e=6, max_r=14):
    """Arbitrary small CSL instances: cycles, self-loops, multi-paths,
    unreachable junk and empty relations all occur."""
    left = draw(_pairs(_L_VALUES, _L_VALUES, max_l))
    exit_pairs = draw(_pairs(_L_VALUES, _R_VALUES, max_e))
    right = draw(_pairs(_R_VALUES, _R_VALUES, max_r))
    return CSLQuery(left, exit_pairs, right, "x0")


@st.composite
def acyclic_csl_queries(draw, max_l=14, max_e=6, max_r=14):
    """CSL instances whose magic graph is guaranteed acyclic: L arcs only
    go from lower-numbered to higher-numbered values."""
    arcs = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=max_l,
        )
    )
    left = {(f"x{a}", f"x{b}") for a, b in arcs if a < b}
    exit_pairs = draw(_pairs(_L_VALUES, _R_VALUES, max_e))
    right = draw(_pairs(_R_VALUES, _R_VALUES, max_r))
    return CSLQuery(left, exit_pairs, right, "x0")


# --- the oracle side of the kernel-vs-oracle differential suites ------------

#: ``columnar`` follows the environment (numpy, or the ``array`` fallback
#: under ``REPRO_COLUMNAR_FALLBACK=1`` — CI runs those suites both ways);
#: ``columnar-array`` forces the fallback in every run.
BACKENDS = ["set", "columnar", "columnar-array"]

SOURCES = [f"x{i}" for i in range(7)] + ["outside"]


@st.composite
def sourced_queries(draw):
    """The small CSL instances above — free L (cycles, self-loops) or
    acyclic L, E and R possibly empty — asked from any value, including
    one that occurs nowhere in L."""
    query = draw(st.one_of(csl_queries(), acyclic_csl_queries()))
    return query.with_source(draw(st.sampled_from(SOURCES)))


@dataclass
class RelationTriple:
    """What a per-tuple oracle reads: ``L``/``E``/``R`` as charged
    :class:`Relation`s on one storage backend, and the source.  The
    kernels under test read the graph index instead (``query.instance``)."""

    left: Relation
    exit: Relation
    right: Relation
    source: object
    counter: CostCounter


def make_instance(query: CSLQuery, backend: str, counter=None) -> RelationTriple:
    """A fresh oracle instance of ``query`` on ``backend`` (own counter
    unless one is given)."""
    counter = counter if counter is not None else CostCounter()
    symbols = SymbolTable()

    def relation(name, pairs):
        if backend == "set":
            return Relation(name, 2, pairs, counter)
        vector = False if backend == "columnar-array" else None
        storage = ColumnarBackend(name, 2, symbols, vector=vector)
        return Relation(name, 2, pairs, counter, backend=storage)

    return RelationTriple(
        left=relation("l", query.left),
        exit=relation("e", query.exit),
        right=relation("r", query.right),
        source=query.source,
        counter=counter,
    )


# --- fixtures ---------------------------------------------------------------


@pytest.fixture
def samegen_query():
    """A small regular same-generation instance (chain ancestry)."""
    parent = {("d", "b"), ("e", "b"), ("b", "a"), ("c", "a")}
    return CSLQuery.same_generation(parent, source="d")


@pytest.fixture
def acyclic_query():
    """A small acyclic, non-regular instance (``c`` at distances 1 and 2)."""
    left = {("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")}
    exit_pairs = {("d", "u"), ("c", "v"), ("a", "t")}
    right = {("w", "u"), ("z", "w"), ("y", "z"), ("x", "v"), ("s", "x")}
    return CSLQuery(left, exit_pairs, right, "a")


@pytest.fixture
def cyclic_query():
    """A small instance with a cyclic magic graph."""
    left = {("a", "b"), ("b", "c"), ("c", "a"), ("b", "d")}
    exit_pairs = {("d", "u"), ("a", "v")}
    right = {("w", "u"), ("z", "v"), ("u", "w")}
    return CSLQuery(left, exit_pairs, right, "a")


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def validate_sarif():
    """Validate a SARIF document against the vendored 2.1.0 schema subset.

    One loader shared by every analyzer's SARIF suite (static program
    lint, concurrency, cost bounds, optimizer): skips uniformly when
    ``jsonschema`` is unavailable and parses the schema once per
    session.  Returns the document so call sites can keep asserting on
    it.
    """
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (pathlib.Path(__file__).parent / "data" / "sarif-2.1.0-subset.json")
        .read_text()
    )

    def _validate(document):
        jsonschema.validate(instance=document, schema=schema)
        return document

    return _validate
