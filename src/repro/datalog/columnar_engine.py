"""Batch (vectorized) semi-naive engine over the columnar backend.

The compiled kernel engine (:mod:`repro.datalog.engine`) lowers each rule
body once into a flat op list and runs it a frontier at a time over rows
of Python values.  This module executes *the same op lists* over
interned column vectors: the register file holds one id column per slot
instead of a list of value rows, a ``scan`` becomes one batch hash-join
(probe all frontier rows against a CSR index, expand the ragged result),
and the delta flush confirms a round's candidates as packed row codes
instead of tuple-by-tuple set insertion.

Cost parity is structural, not re-derived:

* the interpreter's ``scan`` charges one probe per binding and one unit
  per matched tuple (before the intra-literal equality checks filter) —
  the batch scan charges ``charge_probe_batch(name, n)`` and
  ``charge_tuples(name, total_matches)``;
* ``negcheck`` charges one probe per row plus one unit per *found*
  pattern (found rows are then dropped);
* builtins, emits, and the delta-confirmation dedupe are uncharged in
  the set-backed engines and stay uncharged here.

Because :meth:`CostCounter.snapshot` exposes only order-independent
totals (global and per relation), equal per-relation sums mean equal
snapshots — the differential fuzz suite asserts exactly that across
interpreter, compiled, and columnar runs.

The fixpoint driver (:func:`run_columnar`) is the one driver that is
*not* the shared set-backed loop
(:func:`repro.datalog.evaluation._run_strata`): it never materializes
value tuples — a round's candidates stay packed row codes from kernel
output to delta flush — so it keeps its own loop, round for round the
same: round-0 rule pass with per-rule flush, ``Δ<pred>`` delta relations
charged to the database counter, an uncharged dedupe of each round's
candidates against the stored facts and each other, iteration guard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import EvaluationError, UnsafeQueryError
from .builtins import evaluate_builtin
from .columnar import ColumnarBackend, SymbolTable
from .database import Database
from .relation import Relation
from .term import Constant

try:
    import numpy as _np
except Exception:  # pragma: no cover - exercised via REPRO_COLUMNAR_FALLBACK
    _np = None  # type: ignore[assignment]

#: A chunk of rows as (columns, row_count); columns are id vectors.
_Chunk = Tuple[List, int]


def _const_col(sid: int, n: int, vector: bool):
    if vector:
        return _np.full(n, sid, dtype=_np.int64)
    return [sid] * n


def _take_col(col, idx, vector: bool):
    if vector:
        return col[idx]
    return [col[i] for i in idx]


def _parent_vector(counts, n: int, total: int, vector: bool):
    if vector:
        return _np.repeat(_np.arange(n, dtype=_np.int64), counts)
    parent: List[int] = []
    for i, c in enumerate(counts):
        parent.extend([i] * c)
    return parent


def _filter_regs(regs: List, mask, n: int, vector: bool) -> Tuple[List, int]:
    if vector:
        mask = _np.asarray(mask, dtype=bool)
        kept = int(mask.sum())
        return [col[mask] if col is not None else None for col in regs], kept
    keep = [i for i in range(n) if mask[i]]
    return (
        [[col[i] for i in keep] if col is not None else None for col in regs],
        len(keep),
    )


def execute_kernel_batch(
    kernel,
    relations: Sequence[Relation],
    symbols: SymbolTable,
    vector: bool,
) -> Tuple[Optional[List], int]:
    """Run one compiled kernel over column vectors.

    Returns the emitted head rows as ``(columns, count)`` — duplicates
    included, exactly like the set-backed kernel's ``out`` list; the
    caller dedupes at flush time.
    """
    regs: List = [None] * kernel.num_slots
    n = 1  # one empty frontier row, as the set-backed kernel starts
    result_cols: Optional[List] = None
    result_n = 0
    for op in kernel.ops:
        if n == 0:
            # An empty frontier reaches no further ops in the set-backed
            # engines: nothing is charged, unsafe/unbound never trip.
            break
        kind = op[0]
        if kind == "scan":
            _, ri, positions, key_template, key_fills, binds, checks = op
            rel = relations[ri]
            counter = rel.counter
            counter.charge_probe_batch(rel.name, n)
            backend = rel.backend
            if not isinstance(backend, ColumnarBackend):
                raise EvaluationError(
                    f"columnar engine requires columnar storage for "
                    f"{rel.name!r} (got {backend.kind!r})"
                )
            fill_map = dict(key_fills)
            keycols: List = []
            dead = False
            for key_index, value in enumerate(key_template):
                if value is not None:
                    sid = symbols.get(value)
                    if sid is None:
                        # Constant never interned: no stored row can
                        # match; probes above are still charged.
                        dead = True
                        break
                    keycols.append(_const_col(sid, n, vector))
                else:
                    keycols.append(regs[fill_map[key_index]])
            if dead:
                n = 0
                continue
            counts, rowids = backend.probe_batch(positions, keycols, n)
            total = len(rowids)
            counter.charge_tuples(rel.name, total)
            if total == 0:
                n = 0
                continue
            parent = _parent_vector(counts, n, total, vector)
            new_regs: List = [None] * len(regs)
            for s, col in enumerate(regs):
                if col is not None:
                    new_regs[s] = _take_col(col, parent, vector)
            for position, slot in binds:
                new_regs[slot] = backend.take(position, rowids)
            regs = new_regs
            n = total
            if checks:
                mask = None
                for position, slot in checks:
                    stored_vals = backend.take(position, rowids)
                    bound_vals = regs[slot]
                    if vector:
                        m = stored_vals == bound_vals
                    else:
                        m = [
                            stored_vals[i] == bound_vals[i] for i in range(n)
                        ]
                    if mask is None:
                        mask = m
                    elif vector:
                        mask = mask & m
                    else:
                        mask = [mask[i] and m[i] for i in range(n)]
                regs, n = _filter_regs(regs, mask, n, vector)
        elif kind == "negcheck":
            _, ri, template, fills = op
            rel = relations[ri]
            rel.counter.charge_probe_batch(rel.name, n)
            backend = rel.backend
            fill_map = dict(fills)
            cols: List = []
            dead = False
            for position, value in enumerate(template):
                if value is not None:
                    sid = symbols.get(value)
                    if sid is None:
                        dead = True
                        break
                    cols.append(_const_col(sid, n, vector))
                else:
                    cols.append(regs[fill_map[position]])
            if dead:
                # Pattern constant never interned: nothing is found, so
                # every row survives and no tuples are charged.
                continue
            codes = backend.pack_cols(cols, n)
            found = backend.contains_codes(codes)
            if isinstance(found, list):
                nfound = sum(found)
                keep_mask = [not f for f in found]
            else:
                nfound = int(found.sum())
                keep_mask = ~found
            rel.counter.charge_tuples(rel.name, nfound)
            if nfound:
                regs, n = _filter_regs(regs, keep_mask, n, vector)
        elif kind == "builtin":
            _, builtin, in_pairs, out_pairs = op
            values = symbols.values_snapshot()
            keep: List[int] = []
            outs: List[List] = [[] for _ in out_pairs]
            for i in range(n):
                theta = {
                    v: Constant(values[int(regs[slot][i])])
                    for v, slot in in_pairs
                }
                for extended in evaluate_builtin(builtin, theta):
                    keep.append(i)
                    for j, (v, _slot) in enumerate(out_pairs):
                        outs[j].append(extended[v].value)
            if not keep:
                n = 0
                continue
            idx = _np.asarray(keep, dtype=_np.int64) if vector else keep
            new_regs = [None] * len(regs)
            for s, col in enumerate(regs):
                if col is not None:
                    new_regs[s] = _take_col(col, idx, vector)
            for j, (_v, slot) in enumerate(out_pairs):
                ids = symbols.intern_many(outs[j])
                new_regs[slot] = (
                    _np.asarray(ids, dtype=_np.int64) if vector else ids
                )
            regs = new_regs
            n = len(keep)
        elif kind == "emit":
            _, template, fills = op
            fill_map = dict(fills)
            out_cols: List = []
            for position, value in enumerate(template):
                if value is not None:
                    out_cols.append(_const_col(symbols.intern(value), n, vector))
                else:
                    out_cols.append(regs[fill_map[position]])
            result_cols, result_n = out_cols, n
        elif kind == "unbound_head":
            _, term, head = op
            raise ValueError(f"unbound variable {term} instantiating {head}")
        elif kind == "unsafe":
            _, elements = op
            raise EvaluationError(
                "no evaluable body element; rule is unsafe: "
                + ", ".join(str(e) for e in elements)
            )
        else:  # pragma: no cover - compiler invariant
            raise EvaluationError(f"unknown kernel op {kind!r}")
    return result_cols, result_n


def _decode_rows(cols: Optional[List], n: int, symbols: SymbolTable) -> List[Tuple]:
    if not n or cols is None:
        return []
    if not cols:
        return [()] * n
    values = symbols.values_snapshot()
    decoded = []
    for col in cols:
        ids = col.tolist() if hasattr(col, "tolist") else col
        decoded.append([values[i] for i in ids])
    return list(zip(*decoded))


def materialize_kernel_columnar(kernel, database: Database) -> List[Tuple]:
    """Run a standalone kernel (no delta) on a columnar database and
    decode the emitted rows back to value tuples."""
    cols, n = execute_kernel_batch(
        kernel,
        kernel.resolve(database),
        database.symbols,
        database.columnar_vector,
    )
    return _decode_rows(cols, n, database.symbols)


def _concat_chunks(chunks: List[_Chunk], arity: int, vector: bool) -> _Chunk:
    if len(chunks) == 1:
        return chunks[0]
    total = sum(n for _cols, n in chunks)
    if vector:
        cols = [
            _np.concatenate([chunk[0][j] for chunk in chunks])
            for j in range(arity)
        ]
    else:
        cols = []
        for j in range(arity):
            merged: List[int] = []
            for chunk_cols, _n in chunks:
                merged.extend(chunk_cols[j])
            cols.append(merged)
    return cols, total


def run_columnar(compiled, database: Database, max_iterations: int) -> Database:
    """Semi-naive fixpoint over compiled kernels, batched per round.

    Its own driver rather than the shared set-backed loop because a
    delta here is packed id codes flushed with ``append_unique``, never
    a set of value tuples (see the module docstring); derived facts land
    in ``database`` in place.
    """
    symbols = database.symbols
    vector = database.columnar_vector
    arities = compiled.arities
    for rules in compiled.strata:
        predicates = sorted({rule.head.predicate for rule in rules})
        for compiled_rule in rules:
            head = compiled_rule.head
            database.relation_or_empty(head.predicate, head.arity)

        deltas: Dict[str, List[_Chunk]] = {p: [] for p in predicates}

        # Round 0: every rule once against the current database, with a
        # per-rule flush so later rules see earlier derivations.
        for compiled_rule in rules:
            head = compiled_rule.head
            head_relation = database.relation_or_empty(
                head.predicate, head.arity
            )
            cols, n = execute_kernel_batch(
                compiled_rule.base,
                compiled_rule.base.resolve(database),
                symbols,
                vector,
            )
            if n:
                fresh_cols, k = head_relation.backend.insert_batch(cols, n)
                if k:
                    deltas[head.predicate].append((fresh_cols, k))

        iterations = 0
        while any(deltas.values()):
            iterations += 1
            if iterations > max_iterations:
                raise UnsafeQueryError(
                    f"seminaive fixpoint exceeded {max_iterations} "
                    f"iterations on stratum {predicates}"
                )
            delta_relations: Dict[str, Relation] = {}
            for predicate, chunks in deltas.items():
                if not chunks:
                    continue
                arity = arities.get(predicate, len(chunks[0][0]))
                delta_backend = ColumnarBackend(
                    f"Δ{predicate}", arity, symbols, vector=vector
                )
                for chunk_cols, chunk_n in chunks:
                    # Chunks are disjoint by construction: round-0 ones
                    # were deduplicated by the per-rule flush, later
                    # ones by the bucket phase.
                    delta_backend.append_unique(chunk_cols, chunk_n)
                delta_relations[predicate] = Relation(
                    f"Δ{predicate}",
                    arity,
                    (),
                    counter=database.counter,
                    backend=delta_backend,
                )
            next_deltas: Dict[str, List[_Chunk]] = {p: [] for p in predicates}
            bucket_codes: Dict[str, set] = {p: set() for p in predicates}
            # Vector-mode buckets keep a sorted code array instead of a
            # Python set, so the dedupe below stays fully vectorized.
            bucket_sorted: Dict[str, Optional[object]] = {
                p: None for p in predicates
            }
            for compiled_rule in rules:
                head = compiled_rule.head
                head_relation = database.relation_or_empty(
                    head.predicate, head.arity
                )
                head_backend = head_relation.backend
                chunks = next_deltas[head.predicate]
                for delta_predicate, kernel in compiled_rule.delta_variants:
                    delta = delta_relations.get(delta_predicate)
                    if delta is None:
                        continue
                    cols, n = execute_kernel_batch(
                        kernel, kernel.resolve(database, delta), symbols, vector
                    )
                    if not n:
                        continue
                    # Uncharged dedupe, as in the set-backed flush:
                    # keep candidates not yet in the head relation and
                    # not yet in this round's bucket.
                    codes = head_backend.pack_cols(cols, n)
                    in_head = head_backend.contains_codes(codes)
                    if vector and not isinstance(codes, list):
                        cand = _np.nonzero(~_np.asarray(in_head))[0]
                        if len(cand) == 0:
                            continue
                        uniq, first = _np.unique(
                            codes[cand], return_index=True
                        )
                        seen = bucket_sorted[head.predicate]
                        if seen is not None and len(seen):
                            pos = _np.searchsorted(seen, uniq)
                            safe = _np.minimum(pos, len(seen) - 1)
                            new_mask = ~(
                                (pos < len(seen)) & (seen[safe] == uniq)
                            )
                            fresh_codes = uniq[new_mask]
                            if len(fresh_codes) == 0:
                                continue
                            bucket_sorted[head.predicate] = _np.sort(
                                _np.concatenate([seen, fresh_codes])
                            )
                        else:
                            new_mask = _np.ones(len(uniq), dtype=bool)
                            bucket_sorted[head.predicate] = uniq
                        idx = _np.sort(cand[first[new_mask]])
                        chunks.append(
                            ([col[idx] for col in cols], int(len(idx)))
                        )
                        continue
                    codeset = bucket_codes[head.predicate]
                    codes_seq = codes if isinstance(codes, list) else codes.tolist()
                    head_seq = (
                        in_head if isinstance(in_head, list) else in_head.tolist()
                    )
                    keep: List[int] = []
                    for i in range(n):
                        if head_seq[i]:
                            continue
                        code = codes_seq[i]
                        if code in codeset:
                            continue
                        codeset.add(code)
                        keep.append(i)
                    if keep:
                        idx = (
                            _np.asarray(keep, dtype=_np.int64)
                            if vector
                            else keep
                        )
                        chunks.append(
                            (
                                [_take_col(col, idx, vector) for col in cols],
                                len(keep),
                            )
                        )
            flushed: Dict[str, List[_Chunk]] = {p: [] for p in predicates}
            for predicate, chunks in next_deltas.items():
                if not chunks:
                    continue
                arity = arities.get(predicate, len(chunks[0][0]))
                relation = database.relation_or_empty(predicate, arity)
                cols, n = _concat_chunks(chunks, arity, vector)
                # Every candidate was confirmed fresh against the head
                # (unchanged since) and this round's bucket, so the
                # flush appends without a second dedupe pass.
                relation.backend.append_unique(cols, n)
                flushed[predicate].append((cols, n))
            deltas = flushed
    return database


def columnar_seminaive_evaluate(
    program,
    database: Database,
    max_iterations: int,
) -> Database:
    """Entry point used by :func:`repro.datalog.evaluation.seminaive_evaluate`.

    Converts a set-backed ``database`` to the columnar backend in place
    (constants interned through ``database.symbols``) before running.
    """
    from .engine import compile_program

    if database.backend != "columnar":
        database.to_columnar()
    return run_columnar(compile_program(program), database, max_iterations)
