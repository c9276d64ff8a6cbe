"""Columnar interned storage: dense-int columns behind the Relation API.

The set backend stores relations as Python sets of value tuples; every
join step pays CPython's per-tuple costs (hashing, allocation, pointer
chasing).  This module stores the same logical relation column-wise:

* every constant is interned once, per :class:`~repro.datalog.database.
  Database`, through a :class:`SymbolTable` mapping values to dense
  integer ids (and back);
* each relation column is a flat ``int64`` array — a numpy array when
  numpy is importable, an ``array('q')`` otherwise, so the core stays
  dependency-light (the fallback keeps the backend *correct*, not fast);
* hash indexes map key columns to row-id runs in CSR form (dense
  ``starts``/``counts`` arrays for single-column keys, packed-code
  binary search for two-column keys, plain dicts otherwise), rebuilt
  lazily whenever the mutation stamp has moved.

Rows are deduplicated through packed row codes (arity 1: the id itself;
arity 2: ``id0 << 32 | id1``; otherwise a tuple of ids), which is also
what the batch engine uses for delta confirmation.  Deletion swaps the
victim row with the last row and patches the code map, so maintenance
retraction stays O(1) per tuple.

Nothing in this module touches a :class:`CostCounter`: charging stays in
:class:`~repro.datalog.relation.Relation` and the batch executor, which
is what keeps the paper's retrieval counts backend-independent.
"""

from __future__ import annotations

import os
import threading
from array import array
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .relation import StorageBackend

try:  # numpy is optional: the array-module fallback covers its absence
    import numpy as _np
except Exception:  # pragma: no cover - exercised via REPRO_COLUMNAR_FALLBACK
    _np = None  # type: ignore[assignment]


def numpy_enabled() -> bool:
    """Whether new columnar backends should vectorize through numpy.

    ``REPRO_COLUMNAR_FALLBACK=1`` forces the ``array``-module fallback
    even when numpy is importable — tests use it to keep the fallback
    path honest.
    """
    return _np is not None and not os.environ.get("REPRO_COLUMNAR_FALLBACK")


class SymbolTable:
    """Thread-safe interner: constants to dense ids and back.

    Ids are append-only and never recycled, so a snapshot of the value
    list taken at any point stays valid forever — readers may hold it
    across batch operations without re-locking.  Interning uses dict
    equality, which conflates ``1``/``True`` exactly as Python sets do,
    so a round trip through the interner preserves set semantics.
    """

    #: Two interned ids must pack into one int64 (32 bits each, sign
    #: bit untouched), so the table refuses to grow past 2^31 symbols.
    MAX_SYMBOLS = 1 << 31

    __slots__ = ("_lock", "_ids", "_values")

    def __init__(self, values: Iterable[object] = ()):
        self._lock = threading.Lock()
        self._ids: Dict[object, int] = {}  # guarded-by: _lock
        self._values: List[object] = []  # guarded-by: _lock
        if values:
            self.intern_many(values)

    def _intern_locked(self, value) -> int:
        sid = self._ids.get(value)
        if sid is None:
            sid = len(self._values)
            if sid >= self.MAX_SYMBOLS:
                raise OverflowError(
                    "symbol table exceeded 2^31 distinct constants"
                )
            self._ids[value] = sid
            self._values.append(value)
        return sid

    def intern(self, value) -> int:
        """The id of ``value``, assigning a fresh one on first sight."""
        with self._lock:
            return self._intern_locked(value)

    def intern_many(self, values: Iterable[object]) -> List[int]:
        """Intern a batch under one lock acquisition."""
        with self._lock:
            return [self._intern_locked(v) for v in values]

    def get(self, value) -> Optional[int]:
        """The id of ``value`` or None — never assigns (probe keys)."""
        with self._lock:
            return self._ids.get(value)

    def get_many(self, values: Iterable[object]) -> List[Optional[int]]:
        with self._lock:
            ids = self._ids
            return [ids.get(v) for v in values]

    def value(self, sid: int):
        with self._lock:
            return self._values[sid]

    def values_snapshot(self) -> List[object]:
        """The id-ordered value list (read-only; append-only, so the
        first ``len()`` entries never change under the caller)."""
        with self._lock:
            return self._values

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def memory_bytes(self) -> int:
        with self._lock:
            return 64 + 96 * len(self._values)

    def __repr__(self):
        return f"SymbolTable(symbols={len(self)})"


def _pack_row(ids: Sequence[int]):
    """The stable dedupe code of one row of ids (see module docstring)."""
    k = len(ids)
    if k == 1:
        return ids[0]
    if k == 2:
        return (ids[0] << 32) | ids[1]
    if k == 0:
        return 0
    return tuple(ids)


class ColumnarBackend(StorageBackend):
    """Interned, column-major tuple storage with CSR hash indexes."""

    kind = "columnar"

    __slots__ = (
        "name",
        "arity",
        "version",
        "symbols",
        "vector",
        "_size",
        "_capacity",
        "_cols",
        "_code_rows",
        "_lock",
        "_indexes",
        "_sorted_codes",
        "_rows_cache",
        "_discard_epoch",
    )

    def __init__(
        self,
        name: str,
        arity: int,
        symbols: SymbolTable,
        vector: Optional[bool] = None,
    ):
        self.name = name
        self.arity = arity
        self.version = 0
        self.symbols = symbols
        self.vector = numpy_enabled() if vector is None else vector
        self._size = 0
        if self.vector:
            self._capacity = 16
            self._cols = [
                _np.empty(self._capacity, dtype=_np.int64) for _ in range(arity)
            ]
        else:
            self._capacity = 0
            self._cols = [array("q") for _ in range(arity)]
        # packed row code -> row id (row ids are dense, 0.._size-1).
        # Packable-vector backends defer building this until a per-tuple
        # operation needs it (the batch engine dedupes through sorted
        # codes instead); once built it is kept in sync.
        self._code_rows: Optional[Dict[object, int]] = (
            None if self._packable() else {}
        )
        self._lock = threading.Lock()
        # Bumped on any non-append mutation (discard).  While it stands
        # still, a stale index differs from a fresh one only by appended
        # rows, so it can be extended by merge instead of rebuilt.
        self._discard_epoch = 0
        # positions -> (version, epoch, rows, index struct)
        self._indexes: Dict[Tuple[int, ...], Tuple] = {}  # guarded-by: _lock
        # (version, epoch, rows, sorted row codes) for batch membership
        self._sorted_codes: Optional[Tuple] = None  # guarded-by: _lock
        # version-stamped decoded row list (see _materialize)
        self._rows_cache: Optional[Tuple[int, List[Tuple]]] = None

    # --- small helpers -------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._size

    def _packable(self) -> bool:
        return self.vector and self.arity <= 2

    def _ensure_capacity(self, extra: int) -> None:
        if not self.vector:
            return
        needed = self._size + extra
        if needed <= self._capacity:
            return
        capacity = max(self._capacity, 16)
        while capacity < needed:
            capacity *= 2
        for j, col in enumerate(self._cols):
            grown = _np.empty(capacity, dtype=_np.int64)
            grown[: self._size] = col[: self._size]
            self._cols[j] = grown
        self._capacity = capacity

    def _row_ids(self, rowid: int) -> List[int]:
        return [int(col[rowid]) for col in self._cols]

    def _code_map(self) -> Dict[object, int]:
        """The code->rowid dict, built on first per-tuple use."""
        rows = self._code_rows
        if rows is None:
            codes = self.pack_cols(
                [col[: self._size] for col in self._cols], self._size
            )
            if self._packable():
                codes = codes.tolist()
            rows = dict(zip(codes, range(self._size)))
            self._code_rows = rows
        return rows

    def _decode(self, rowid: int, values: List[object]) -> Tuple:
        return tuple(values[col[rowid]] for col in self._cols)

    def column_ids(self, position: int):
        """The live slice of one column (ids; read-only by convention)."""
        col = self._cols[position]
        if self.vector:
            return col[: self._size]
        return col

    def take(self, position: int, rowids):
        """Gather one column at ``rowids`` (an id vector)."""
        col = self._cols[position]
        if self.vector:
            return col[: self._size][rowids]
        return [col[r] for r in rowids]

    # --- packed codes --------------------------------------------------

    def pack_cols(self, cols: Sequence, n: int):
        """Row codes for ``n`` id-rows given column-wise (same packing
        as :func:`_pack_row`; a numpy vector when packable)."""
        arity = self.arity
        if self._packable():
            if arity == 0:
                return _np.zeros(n, dtype=_np.int64)
            if arity == 1:
                return _np.asarray(cols[0], dtype=_np.int64)
            return (
                _np.asarray(cols[0], dtype=_np.int64) << 32
            ) | _np.asarray(cols[1], dtype=_np.int64)
        if arity == 0:
            return [0] * n
        if arity == 1:
            c0 = cols[0]
            return [c0[i] for i in range(n)]
        if arity == 2:
            c0, c1 = cols
            return [(int(c0[i]) << 32) | int(c1[i]) for i in range(n)]
        return [tuple(int(c[i]) for c in cols) for i in range(n)]

    def _stored_sorted_codes(self):
        """Sorted array of all stored row codes (vector mode only).

        Cached per mutation stamp; when only appends happened since the
        cached stamp, the new codes are merge-inserted instead of
        re-sorting the whole store.
        """
        with self._lock:
            cached = self._sorted_codes
            size = self._size
            if cached is not None and cached[0] == self.version:
                return cached[3]
            if (
                cached is not None
                and cached[1] == self._discard_epoch
                and cached[2] < size
            ):
                old = cached[3]
                fresh = _np.sort(
                    self.pack_cols(
                        [col[cached[2] : size] for col in self._cols],
                        size - cached[2],
                    )
                )
                codes = _np.insert(old, _np.searchsorted(old, fresh), fresh)
            else:
                codes = _np.sort(
                    self.pack_cols(
                        [col[:size] for col in self._cols], size
                    )
                )
            self._sorted_codes = (
                self.version,
                self._discard_epoch,
                size,
                codes,
            )
            return codes

    def contains_codes(self, codes) -> "object":
        """Boolean membership mask of packed ``codes`` against storage."""
        if self._packable():
            stored = self._stored_sorted_codes()
            if len(stored) == 0:
                return _np.zeros(len(codes), dtype=bool)
            pos = _np.searchsorted(stored, codes)
            safe = _np.minimum(pos, len(stored) - 1)
            return (pos < len(stored)) & (stored[safe] == codes)
        rows = self._code_map()
        return [code in rows for code in codes]

    # --- mutation ------------------------------------------------------

    def _append_rows(self, cols: Sequence, codes, k: int) -> None:
        """Append ``k`` pre-deduplicated id-rows.  ``codes`` may be a
        callable producing the row-code list, so callers on the batch
        path can skip computing it when the code map was never built."""
        size = self._size
        if self.vector:
            self._ensure_capacity(k)
            for j, col in enumerate(self._cols):
                col[size : size + k] = cols[j]
        else:
            for j, col in enumerate(self._cols):
                src = cols[j]
                col.extend(int(src[i]) for i in range(k))
        if self._code_rows is not None:
            if callable(codes):
                codes = codes()
            self._code_rows.update(zip(codes, range(size, size + k)))
        self._size = size + k
        self.version += 1

    def add(self, tup: Tuple) -> bool:
        tup = self._check(tup)
        ids = self.symbols.intern_many(tup)
        code = _pack_row(ids)
        if code in self._code_map():
            return False
        self._append_rows([[i] for i in ids], [code], 1)
        return True

    def add_new(self, tuples: Iterable[Tuple]) -> List[Tuple]:
        # Arity-check the whole batch before storing any of it: callers
        # journal what add_new returns, so a refused batch must leave
        # nothing behind.
        checked = [self._check(tup) for tup in tuples]
        return [tup for tup in checked if self.add(tup)]

    def insert_batch(self, cols: Sequence, n: int) -> Tuple[Optional[List], int]:
        """Bulk insert of ``n`` id-rows; returns the fresh (new) rows as
        columns plus their count.  This is the batch engine's delta
        flush: the returned rows are deduplicated within the batch (first
        occurrence wins) and against storage."""
        if n == 0:
            return None, 0
        codes = self.pack_cols(cols, n)
        if self._packable():
            uniq, first = _np.unique(codes, return_index=True)
            stored = self._stored_sorted_codes()
            if len(stored):
                pos = _np.searchsorted(stored, uniq)
                safe = _np.minimum(pos, len(stored) - 1)
                fresh_mask = ~((pos < len(stored)) & (stored[safe] == uniq))
            else:
                fresh_mask = _np.ones(len(uniq), dtype=bool)
            take = _np.sort(first[fresh_mask])
            k = int(len(take))
            if k == 0:
                return None, 0
            fresh_cols = [_np.asarray(c, dtype=_np.int64)[take] for c in cols]
            fresh_codes = lambda: codes[take].tolist()  # noqa: E731
        else:
            seen = self._code_map()
            batch_seen: set = set()
            keep: List[int] = []
            for i, code in enumerate(codes):
                if code in seen or code in batch_seen:
                    continue
                batch_seen.add(code)
                keep.append(i)
            k = len(keep)
            if k == 0:
                return None, 0
            if self.vector:
                take = _np.asarray(keep, dtype=_np.int64)
                fresh_cols = [
                    _np.asarray(c, dtype=_np.int64)[take] for c in cols
                ]
            else:
                fresh_cols = [[c[i] for i in keep] for c in cols]
            fresh_codes = [codes[i] for i in keep]
        self._append_rows(fresh_cols, fresh_codes, k)
        return fresh_cols, k

    def append_unique(self, cols: Sequence, n: int) -> None:
        """Append ``n`` id-rows known to be distinct from each other and
        from storage — the engine's pre-deduplicated delta flush (the
        bucket phase already confirmed every row fresh, so re-checking
        here would repeat the same sorted-code searches)."""
        if n == 0:
            return
        codes = None if self._code_rows is None else self.pack_cols(cols, n)
        self._append_rows(cols, codes, n)

    def load_tuples(self, tuples: Sequence[Tuple]) -> int:
        """Bulk-load value tuples: one interner pass over every constant
        and a single :meth:`insert_batch`.  This is the set→columnar
        conversion path; returns how many rows were new."""
        arity = self.arity
        n = len(tuples)
        if n == 0:
            return 0
        if arity == 0:
            _, k = self.insert_batch([], 1)
            return k
        flat = self.symbols.intern_many(
            v for row in tuples for v in self._check(row)
        )
        if self.vector:
            mat = _np.asarray(flat, dtype=_np.int64).reshape(n, arity)
            cols = [_np.ascontiguousarray(mat[:, j]) for j in range(arity)]
        else:
            cols = [array("q", flat[j::arity]) for j in range(arity)]
        _, k = self.insert_batch(cols, n)
        return k

    def discard(self, tup: Tuple) -> bool:
        tup = self._check(tup)
        ids = self.symbols.get_many(tup)
        if any(i is None for i in ids):
            return False
        code = _pack_row(ids)  # type: ignore[arg-type]
        code_map = self._code_map()
        rowid = code_map.pop(code, None)
        if rowid is None:
            return False
        last = self._size - 1
        if rowid != last:
            last_ids = self._row_ids(last)
            for j, col in enumerate(self._cols):
                col[rowid] = last_ids[j]
            code_map[_pack_row(last_ids)] = rowid
        if not self.vector:
            for col in self._cols:
                col.pop()
        self._size = last
        self.version += 1
        self._discard_epoch += 1
        return True

    # --- indexes -------------------------------------------------------

    @staticmethod
    def _packed_runs(sorted_codes):
        """(uniq, start_idx, counts) of an already-sorted code array,
        computed in one linear pass (no re-sort)."""
        n = len(sorted_codes)
        if n == 0:
            empty = _np.zeros(0, dtype=_np.int64)
            return empty, empty, empty
        flags = _np.empty(n, dtype=bool)
        flags[0] = True
        _np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=flags[1:])
        start_idx = _np.nonzero(flags)[0]
        uniq = sorted_codes[start_idx]
        counts = _np.diff(_np.append(start_idx, n))
        return uniq, start_idx, counts

    def _build_index(self, positions: Tuple[int, ...]) -> Tuple:
        size = self._size
        if self.vector and len(positions) == 1:
            keys = self._cols[positions[0]][:size]
            nsym = len(self.symbols)
            counts = _np.bincount(keys, minlength=nsym)
            starts = _np.concatenate(
                ([0], _np.cumsum(counts)[:-1])
            ) if nsym else _np.zeros(0, dtype=_np.int64)
            order = _np.argsort(keys, kind="stable")
            return ("dense", starts, counts, order, keys[order])
        if self.vector and len(positions) == 2:
            codes = (self._cols[positions[0]][:size] << 32) | self._cols[
                positions[1]
            ][:size]
            order = _np.argsort(codes, kind="stable")
            sorted_codes = codes[order]
            uniq, start_idx, counts = self._packed_runs(sorted_codes)
            return ("packed", uniq, start_idx, counts, order, sorted_codes)
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        cols = [self._cols[p] for p in positions]
        for rowid in range(size):
            key = tuple(int(c[rowid]) for c in cols)
            buckets.setdefault(key, []).append(rowid)
        return ("dict", buckets)

    def _extend_index(
        self, positions: Tuple[int, ...], index: Tuple, rows: int
    ) -> Tuple:
        """Fold rows ``rows.._size`` into a CSR index by merge-insert.

        Valid only when every mutation since the index was built was an
        append (the discard epoch stood still): appended row ids are all
        larger than indexed ones, so a ``side="right"`` insert preserves
        the stable (row-id) order inside each key run.
        """
        size = self._size
        k = size - rows
        new_rowids = _np.arange(rows, size, dtype=_np.int64)
        if index[0] == "dense":
            _, starts, counts, order, sorted_keys = index
            newkeys = self._cols[positions[0]][rows:size]
            nsym = len(self.symbols)
            if len(counts) < nsym:
                grown = _np.zeros(nsym, dtype=_np.int64)
                grown[: len(counts)] = counts
                counts = grown
            else:
                counts = counts.copy()
            _np.add.at(counts, newkeys, 1)
            starts = _np.concatenate(([0], _np.cumsum(counts)[:-1]))
            ko = _np.argsort(newkeys, kind="stable")
            nk = newkeys[ko]
            pos = _np.searchsorted(sorted_keys, nk, side="right")
            order = _np.insert(order, pos, new_rowids[ko])
            sorted_keys = _np.insert(sorted_keys, pos, nk)
            return ("dense", starts, counts, order, sorted_keys)
        _, _uniq, _start_idx, _counts, order, sorted_codes = index
        p0, p1 = positions
        new_codes = (self._cols[p0][rows:size] << 32) | self._cols[p1][
            rows:size
        ]
        ko = _np.argsort(new_codes, kind="stable")
        nc = new_codes[ko]
        pos = _np.searchsorted(sorted_codes, nc, side="right")
        order = _np.insert(order, pos, new_rowids[ko])
        sorted_codes = _np.insert(sorted_codes, pos, nc)
        uniq, start_idx, counts = self._packed_runs(sorted_codes)
        return ("packed", uniq, start_idx, counts, order, sorted_codes)

    def _index_for(self, positions: Tuple[int, ...]) -> Tuple:
        with self._lock:
            entry = self._indexes.get(positions)
            if entry is not None and entry[0] == self.version:
                return entry[3]
            if (
                entry is not None
                and entry[1] == self._discard_epoch
                and entry[2] < self._size
                and entry[3][0] in ("dense", "packed")
            ):
                index = self._extend_index(positions, entry[3], entry[2])
            else:
                index = self._build_index(positions)
            self._indexes[positions] = (
                self.version,
                self._discard_epoch,
                self._size,
                index,
            )
            return index

    def _rowids_for_key(self, positions: Tuple[int, ...], ids: Sequence[int]):
        """Row ids whose ``positions`` columns equal ``ids`` (one key)."""
        index = self._index_for(positions)
        kind = index[0]
        if kind == "dense":
            _, starts, counts, order, _sk = index
            key = ids[0]
            if key >= len(counts):
                return ()
            start = int(starts[key])
            return order[start : start + int(counts[key])]
        if kind == "packed":
            _, uniq, start_idx, counts, order, _sc = index
            code = (ids[0] << 32) | ids[1]
            pos = int(_np.searchsorted(uniq, code))
            if pos >= len(uniq) or int(uniq[pos]) != code:
                return ()
            start = int(start_idx[pos])
            return order[start : start + int(counts[pos])]
        return index[1].get(tuple(ids), ())

    def probe_batch(
        self, positions: Tuple[int, ...], keycols: Sequence, n: int
    ) -> Tuple:
        """Batch probe: for ``n`` key rows, the per-row match counts and
        the concatenated matching row ids (in per-row runs).

        Uncharged — the batch executor charges ``n`` probes and
        ``sum(counts)`` tuples, reproducing ``n`` calls to
        :meth:`Relation.probe`.
        """
        size = self._size
        if not positions:
            # Full scan: every key row pairs with every stored row.
            if self.vector:
                counts = _np.full(n, size, dtype=_np.int64)
                rowids = _np.tile(_np.arange(size, dtype=_np.int64), n)
                return counts, rowids
            return [size] * n, list(range(size)) * n
        if self.vector:
            index = self._index_for(positions)
            kind = index[0]
            if kind == "dense":
                _, starts, counts_arr, order, _sk = index
                keys = keycols[0]
                nk = len(counts_arr)
                if nk == 0:
                    zero = _np.zeros(n, dtype=_np.int64)
                    return zero, _np.zeros(0, dtype=_np.int64)
                safe = _np.minimum(keys, nk - 1)
                valid = keys < nk
                cnt = _np.where(valid, counts_arr[safe], 0)
                st = _np.where(valid, starts[safe], 0)
            elif kind == "packed":
                _, uniq, start_idx, counts_arr, order, _sc = index
                codes = (
                    _np.asarray(keycols[0], dtype=_np.int64) << 32
                ) | _np.asarray(keycols[1], dtype=_np.int64)
                if len(uniq) == 0:
                    zero = _np.zeros(n, dtype=_np.int64)
                    return zero, _np.zeros(0, dtype=_np.int64)
                pos = _np.searchsorted(uniq, codes)
                safe = _np.minimum(pos, len(uniq) - 1)
                valid = (pos < len(uniq)) & (uniq[safe] == codes)
                cnt = _np.where(valid, counts_arr[safe], 0)
                st = _np.where(valid, start_idx[safe], 0)
            else:
                buckets = index[1]
                counts_out: List[int] = []
                rowids_out: List[int] = []
                for i in range(n):
                    key = tuple(int(c[i]) for c in keycols)
                    run = buckets.get(key, ())
                    counts_out.append(len(run))
                    rowids_out.extend(run)
                return (
                    _np.asarray(counts_out, dtype=_np.int64),
                    _np.asarray(rowids_out, dtype=_np.int64),
                )
            total = int(cnt.sum())
            if total == 0:
                return cnt, _np.zeros(0, dtype=_np.int64)
            rep_start = _np.repeat(st, cnt)
            cum = _np.cumsum(cnt)
            offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(
                cum - cnt, cnt
            )
            return cnt, order[rep_start + offsets]
        index = self._index_for(positions)
        buckets = index[1]
        counts_list: List[int] = []
        rowids_list: List[int] = []
        for i in range(n):
            key = tuple(int(c[i]) for c in keycols)
            run = buckets.get(key, ())
            counts_list.append(len(run))
            rowids_list.extend(run)
        return counts_list, rowids_list

    # --- StorageBackend reads ------------------------------------------

    def matches(self, positions: Tuple[int, ...], key: Tuple) -> Iterable[Tuple]:
        if not positions:
            return iter(self)
        ids = self.symbols.get_many(key)
        if any(i is None for i in ids):
            return ()
        if len(positions) == self.arity:
            # Reorder ids into column order (positions are ascending, so
            # the key already is column-ordered) and test membership.
            code = _pack_row(ids)  # type: ignore[arg-type]
            return (tuple(key),) if code in self._code_map() else ()
        rowids = self._rowids_for_key(positions, ids)  # type: ignore[arg-type]
        values = self.symbols.values_snapshot()
        return (self._decode(int(r), values) for r in rowids)

    def contains(self, tup: Tuple) -> bool:
        tup = tuple(tup)
        if len(tup) != self.arity:
            return False
        ids = self.symbols.get_many(tup)
        if any(i is None for i in ids):
            return False
        return _pack_row(ids) in self._code_map()  # type: ignore[arg-type]

    def _materialize(self) -> List[Tuple]:
        """Decode all rows to value tuples, column-at-a-time.

        Memoized against the mutation stamp: full scans and ``as_set``
        snapshots on an unchanged relation share one decoded list.
        """
        cached = self._rows_cache
        if cached is not None and cached[0] == self.version:
            return cached[1]
        values = self.symbols.values_snapshot()
        size = self._size
        if self.arity == 0:
            rows: List[Tuple] = [()] * size
        else:
            decoded = []
            for col in self._cols:
                ids = col[:size].tolist() if self.vector else col
                decoded.append([values[i] for i in ids])
            rows = list(zip(*decoded))
        self._rows_cache = (self.version, rows)
        return rows

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return self._size

    def column_values(self, column: int) -> FrozenSet:
        values = self.symbols.values_snapshot()
        if self.vector:
            distinct = _np.unique(self._cols[column][: self._size])
            return frozenset(values[int(i)] for i in distinct)
        return frozenset(
            values[self._cols[column][r]] for r in range(self._size)
        )

    def clone(self) -> "ColumnarBackend":
        twin = ColumnarBackend(
            self.name, self.arity, self.symbols, vector=self.vector
        )
        size = self._size
        if self.vector:
            twin._cols = [col[:size].copy() for col in self._cols]
            twin._capacity = size
        else:
            twin._cols = [array("q", col) for col in self._cols]
        twin._size = size
        twin._code_rows = (
            dict(self._code_rows) if self._code_rows is not None else None
        )
        return twin

    def memory_bytes(self) -> int:
        if self.vector:
            total = 64 + sum(col.nbytes for col in self._cols)
        else:
            total = 64 + 8 * self._size * self.arity
        if self._code_rows is not None:
            total += 64 * len(self._code_rows)
        with self._lock:
            for _version, _epoch, _rows, index in self._indexes.values():
                if index[0] == "dict":
                    total += 64 * len(index[1]) + 8 * self._size
                elif self.vector:
                    total += sum(
                        part.nbytes
                        for part in index[1:]
                        if hasattr(part, "nbytes")
                    )
        return total

    def __repr__(self):
        mode = "numpy" if self.vector else "array"
        return (
            f"ColumnarBackend({self.name!r}, arity={self.arity}, "
            f"rows={self._size}, mode={mode})"
        )
