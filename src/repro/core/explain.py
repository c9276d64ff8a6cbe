"""EXPLAIN for the magic counting optimizer.

:func:`explain_evaluation` produces the narrative a database EXPLAIN
would: the magic-graph diagnosis, the counting-set levels (when finite),
every strategy's RC/RM split with predicted costs, and the method the
certified-bound ranking picks, with its reason — all as plain text,
used by the REPL's ``.plan`` command and handy in notebooks.
"""

from __future__ import annotations

from typing import List, Optional

from .complexity import all_method_predictions, compute_statistics
from .counting_method import compute_counting_set
from .csl import CSLQuery
from .reduced_sets import Strategy
from .solver import adaptive_solve
from .step1 import compute_reduced_sets


def _format_values(values, limit: int = 8) -> str:
    ordered = sorted(values, key=repr)
    shown = ", ".join(str(v) for v in ordered[:limit])
    if len(ordered) > limit:
        shown += f", … (+{len(ordered) - limit})"
    return "{" + shown + "}"


def explain_evaluation(query: CSLQuery, max_level_rows: int = 12) -> str:
    """A textual evaluation plan for ``query``."""
    from ..analysis.cost import collect_statistics, interpret

    stats = compute_statistics(query)
    # The unbounded abstract is exact: its classes are the paper's.
    abstract = interpret(collect_statistics(query, node_budget=None))
    multiple = abstract.finite - abstract.provably_single
    lines: List[str] = []

    lines.append("== magic graph ==")
    lines.append(
        f"class: {stats.graph_class.value}   "
        f"n_L={stats.n_l} m_L={stats.m_l}  n_R={stats.n_r} m_R={stats.m_r}  "
        f"m_E={stats.m_e}"
    )
    lines.append(
        f"nodes: {stats.n_s} single, {len(multiple)} multiple, "
        f"{len(abstract.recurring)} recurring   (i_x = {stats.i_x})"
    )
    if multiple:
        lines.append(f"multiple:  {_format_values(multiple)}")
    if abstract.recurring:
        lines.append(f"recurring: {_format_values(abstract.recurring)}")
    lines.append("")

    lines.append("== counting set ==")
    if abstract.recurring:
        lines.append(
            "cyclic magic graph: the counting set is infinite — the pure "
            "counting method is UNSAFE here."
        )
    else:
        levels = compute_counting_set(query.instance())
        for index in sorted(levels)[:max_level_rows]:
            # a mask that decodes to nothing is a source off the numbering
            values = query.index.lbits.decode(levels[index]) or {query.source}
            lines.append(f"CS[{index}] = {_format_values(values)}")
        if len(levels) > max_level_rows:
            lines.append(f"… ({len(levels) - max_level_rows} more levels)")
    lines.append("")

    lines.append("== reduced sets per strategy ==")
    for strategy in Strategy:
        reduced = compute_reduced_sets(query.instance(), strategy)
        lines.append(
            f"{strategy.value:9s}: |RC| = {len(reduced.rc):4d}  "
            f"RM = {_format_values(reduced.rm, limit=6)}"
        )
    lines.append("")

    lines.append("== predicted costs (tuple retrievals) ==")
    for method, predicted in all_method_predictions(stats).items():
        cell = "unsafe" if predicted is None else str(predicted)
        lines.append(f"{method:30s} {cell}")
    lines.append("")

    chosen = adaptive_solve(query)
    lines.append(
        f"== plan ==\nadaptive choice: {chosen.method}  "
        f"({len(chosen.answers)} answer(s), {chosen.cost.retrievals} "
        "retrievals when executed)"
    )
    lines.append(f"why: {chosen.details['plan']['reason']}")
    return "\n".join(lines)
