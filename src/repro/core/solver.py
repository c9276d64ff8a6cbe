"""Top-level entry points: solve a CSL query with any method.

``solve`` is the public one-call API.  Two independent oracles back the
test suite:

* :func:`naive_answer` — builds the original (unrewritten) Datalog
  program and runs the naive bottom-up engine of
  :mod:`repro.datalog.evaluation`;
* :func:`fact2_answer` — a direct implementation of the paper's Fact 2
  (graph characterization of the answer) as a product-graph reachability
  sweep, sharing no code with the engines it validates.
"""

from __future__ import annotations

from typing import Optional

from ..errors import EvaluationError
from .cost import AnswerResult
from .csl import CSLQuery
from .methods import METHODS, magic_counting, method_name
from .reduced_sets import Mode, Strategy

#: What ``"auto"`` runs: always safe, coincides with the counting method
#: on regular graphs, and sits at the top of the paper's efficiency
#: hierarchy (Figure 3).
AUTO_METHOD = method_name(Strategy.RECURRING, Mode.INTEGRATED, scc_step1=True)

#: Every name :func:`solve` accepts: the table plus its four spellings
#: that are not rows (the CLI's ``--method`` choices and the REPL's
#: ``.method`` list).
SOLVE_METHODS = ("auto", "adaptive", *METHODS, "magic_counting", "naive")


def solve(
    query: CSLQuery,
    method: str = "auto",
    strategy: Optional[Strategy] = None,
    mode: Optional[Mode] = None,
    counter=None,
) -> AnswerResult:
    """Answer a CSL query.

    ``method`` is any name of :data:`repro.core.methods.METHODS` —
    ``"counting"`` (raises :class:`UnsafeQueryError` on cyclic magic
    graphs), ``"extended_counting"`` (the cyclic-safe [MPS] extension),
    ``"magic_set"``, ``"henschen_naqvi"``, the eight
    ``"mc_<strategy>_<mode>"`` and the two ``"…_scc"`` — or one of

    * ``"auto"`` (default) — an alias for the integrated recurring magic
      counting method with the linear-time SCC Step 1;
    * ``"adaptive"`` — :func:`adaptive_solve`;
    * ``"magic_counting"`` — the coordinate spelling: the method
      selected by ``strategy``/``mode`` (defaults: MULTIPLE, INTEGRATED);
    * ``"naive"`` — the reference oracle (no binding propagation at all).
    """
    if method == "adaptive":
        return adaptive_solve(query, counter=counter)
    if method == "magic_counting":
        return magic_counting(
            query,
            strategy=strategy or Strategy.MULTIPLE,
            mode=mode or Mode.INTEGRATED,
            counter=counter,
        )
    if method == "naive":
        return naive_answer(query, counter=counter)
    row = METHODS.get(AUTO_METHOD if method == "auto" else method)
    if row is None:
        raise EvaluationError(f"unknown method {method!r}")
    return row.run(query, counter=counter)


def solve_program(program, database, method: str = "auto",
                  strategy: Optional[Strategy] = None,
                  mode: Optional[Mode] = None) -> AnswerResult:
    """One call from a Datalog program + database to answers.

    Recognizes the CSL shape (materializing derived ``L``/``E``/``R``
    parts), then dispatches to :func:`solve`.  Raises
    :class:`~repro.errors.NotCSLError` when the program is outside the
    class — fall back to :func:`repro.datalog.answer_tuples` there.
    """
    query = CSLQuery.from_program(program, database=database)
    return solve(query, method=method, strategy=strategy, mode=mode)


def adaptive_solve(query: CSLQuery, counter=None) -> AnswerResult:
    """Run the method the certified-bound ranking picks.

    :func:`repro.analysis.cost.analyze_cost_query` (one uncharged region
    walk that also names the regime) certifies a retrieval bound per
    method, and :func:`repro.core.methods.recommended_plan` ranks them:
    the smallest certified bound wins, ties and abstentions fall back to
    the regime rule.  The service's ``adaptive``, ``repro analyze`` and
    the static report's ``recommended_method`` read the same call, so
    all of them name the method this runs.

    The chosen plan's provenance, reason, certified bound, and the full
    ranked table land in the result's ``details["plan"]``.
    """
    from ..analysis.cost import analyze_cost_query

    report = analyze_cost_query(query)
    recommendation = report.recommendation
    result = METHODS[recommendation.method].run(query, counter=counter)
    result.details["plan"] = {
        "provenance": recommendation.provenance,
        "reason": recommendation.details.get("reason"),
        "bound": report.certificate.bound_for(recommendation.method),
        "ranking": recommendation.details.get("ranking"),
    }
    return result


def _fact_count(database, name: str) -> int:
    """Row count of a relation without materializing its tuple set
    (columnar relations decode on materialization; a count is free)."""
    return len(database.relation(name)) if database.has_relation(name) else 0


def naive_answer(query: CSLQuery, counter=None) -> AnswerResult:
    """Reference oracle: naive bottom-up evaluation of the original
    program (computes the whole of ``P`` and selects ``P(a, ·)``)."""
    from ..datalog.evaluation import answer_tuples
    from ..datalog.relation import CostCounter

    program = query.to_program()
    database = query.database(counter if counter is not None else CostCounter())
    tuples = answer_tuples(program, database, engine="naive")
    return AnswerResult(
        answers=frozenset(value for (value,) in tuples),
        method="naive",
        cost=database.counter,
        details={"p_facts": _fact_count(database, "p")},
    )


def seminaive_answer(
    query: CSLQuery, counter=None, engine: str = "seminaive"
) -> AnswerResult:
    """Second oracle: semi-naive evaluation of the original program.

    ``engine`` is forwarded to :func:`repro.datalog.answer_tuples`:
    ``"seminaive"`` (the compiled default), or explicitly ``"compiled"``
    / ``"interpreted"`` for differential engine testing.
    """
    from ..datalog.evaluation import answer_tuples
    from ..datalog.relation import CostCounter

    program = query.to_program()
    database = query.database(counter if counter is not None else CostCounter())
    tuples = answer_tuples(program, database, engine=engine)
    return AnswerResult(
        answers=frozenset(value for (value,) in tuples),
        method="seminaive" if engine == "seminaive" else f"seminaive_{engine}",
        cost=database.counter,
        details={"p_facts": _fact_count(database, "p")},
    )


def fact2_answer(query: CSLQuery) -> frozenset:
    """Direct implementation of Fact 2, as an independent oracle.

    A value ``b0`` is an answer iff there is a path from the source made
    of exactly ``k`` L-arcs, one E-arc, and ``k`` (reversed) R-arcs.
    Equivalently: the pair ``(a, b0)`` is reachable in the product
    construction that walks L backwards and R backwards simultaneously
    from each E pair.  Terminates on every input (the pair space is
    finite) and shares no code with the engines under test.
    """
    left_in = {}
    for b, c in query.left:
        left_in.setdefault(c, set()).add(b)
    right_pairs_by_second = {}
    for y, y1 in query.right:
        right_pairs_by_second.setdefault(y1, set()).add(y)

    magic = query.magic_set()
    seen = set()
    stack = []
    for b, c in query.exit:
        if b in magic:
            pair = (b, c)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    while stack:
        x1, y1 = stack.pop()
        for x in left_in.get(x1, ()):
            if x not in magic:
                continue
            for y in right_pairs_by_second.get(y1, ()):
                pair = (x, y)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    return frozenset(y for (x, y) in seen if x == query.source)
