"""Relations: tuple stores behind a storage backend, with cost accounting.

The paper measures every method in a single unit: "the cost of retrieving
a tuple in a database relation" (Section 3).  To reproduce its tables we
therefore instrument the storage layer itself.  Every probe of a relation
charges one unit to the attached :class:`CostCounter`, plus one unit per
tuple the probe yields.  All engines in this package — naive, seminaive,
counting, magic, and all eight magic counting variants — read the database
exclusively through this layer's charged reads (:meth:`Relation.lookup`
and :meth:`Relation.probe` per probe, :meth:`Relation.probe_repeated`
for one read that stands for several identical probes,
:meth:`Relation.probe_many` for one read that stands for one probe per
key), so their measured costs are directly comparable and have the
paper's asymptotic shape.

Physical storage lives behind :class:`StorageBackend`.  The default
:class:`SetBackend` stores plain Python tuples of hashable values in a
set, with hash indexes on arbitrary column subsets built lazily on first
use and maintained incrementally.  The columnar interned backend (see
``repro.datalog.columnar``) stores the same logical relation as flat
integer columns.  Charging lives entirely in :class:`Relation` and
:class:`CostCounter`, *above* the backend boundary, which is what makes
retrieval counts backend-independent by construction.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple


class CostCounter:
    """Accumulates tuple-retrieval costs, globally and per relation.

    ``retrievals`` is the paper's cost measure.  ``probes`` counts index
    lookups (charged one unit each so that unproductive probes are not
    free); ``retrievals`` includes both components.
    """

    __slots__ = ("retrievals", "probes", "tuples", "per_relation")

    def __init__(self):
        self.retrievals = 0
        self.probes = 0
        self.tuples = 0
        self.per_relation: Dict[str, int] = {}

    def charge_probe(self, relation_name: str) -> None:
        self.charge_probe_batch(relation_name, 1)

    def charge_probe_batch(self, relation_name: str, count: int) -> None:
        """Charge ``count`` probes at once.

        The single audited entry point for probe charging: a batch engine
        that issues one physical lookup on behalf of ``count`` frontier
        rows must end up with exactly the charges a per-tuple engine
        accrues from ``count`` calls to :meth:`charge_probe`.  Keeping
        both paths on one method makes that equivalence structural.
        """
        if count <= 0:
            return
        self.probes += count
        self.retrievals += count
        self.per_relation[relation_name] = (
            self.per_relation.get(relation_name, 0) + count
        )

    def charge_tuples(self, relation_name: str, count: int) -> None:
        if count <= 0:
            return
        self.tuples += count
        self.retrievals += count
        self.per_relation[relation_name] = (
            self.per_relation.get(relation_name, 0) + count
        )

    def reset(self) -> None:
        self.retrievals = 0
        self.probes = 0
        self.tuples = 0
        self.per_relation.clear()

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict summary, convenient for reports and assertions."""
        summary = {
            "retrievals": self.retrievals,
            "probes": self.probes,
            "tuples": self.tuples,
        }
        for name, value in sorted(self.per_relation.items()):
            summary[f"relation:{name}"] = value
        return summary

    def __repr__(self):
        return (
            f"CostCounter(retrievals={self.retrievals}, "
            f"probes={self.probes}, tuples={self.tuples})"
        )


class StorageBackend:
    """Physical storage for one relation: uncharged, set-semantic tuples.

    Backends own the bytes; :class:`Relation` owns the charging.  Every
    method below is cost-free by contract — a backend must never touch a
    :class:`CostCounter`, so the paper's retrieval counts cannot depend
    on which backend a database happens to use.

    ``version`` is a mutation stamp: it increases on every successful
    add/discard, letting callers memoize derived snapshots (frozen sets,
    rebuilt indexes) without watching individual mutations.
    """

    kind: str = "abstract"
    name: str
    arity: int
    version: int

    def add(self, tup: Tuple) -> bool:
        raise NotImplementedError

    def add_new(self, tuples: Iterable[Tuple]) -> List[Tuple]:
        raise NotImplementedError

    def discard(self, tup: Tuple) -> bool:
        raise NotImplementedError

    def matches(self, positions: Tuple[int, ...], key: Tuple) -> Iterable[Tuple]:
        """Uncharged: tuples whose ``positions`` columns equal ``key``."""
        raise NotImplementedError

    def matches_many(
        self, positions: Tuple[int, ...], keys: Iterable[Tuple]
    ) -> List[Iterable[Tuple]]:
        """Uncharged: :meth:`matches` for each of ``keys``, in order."""
        return [self.matches(positions, key) for key in keys]

    def contains(self, tup: Tuple) -> bool:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def column_values(self, column: int) -> FrozenSet:
        raise NotImplementedError

    def clone(self) -> "StorageBackend":
        """An independent copy (shared immutable state is allowed)."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Estimated resident bytes for tuples, columns, and indexes."""
        raise NotImplementedError

    def _check(self, tup: Tuple) -> Tuple:
        tup = tuple(tup)
        if len(tup) != self.arity:
            raise ValueError(
                f"relation {self.name} has arity {self.arity}, got tuple {tup!r}"
            )
        return tup


def _key_reader(positions: Tuple[int, ...]) -> Callable[[Tuple], Tuple]:
    """``tup -> key``: the ``positions`` columns of a tuple as the tuple an
    index is keyed by, chosen once per index instead of per tuple."""
    if len(positions) == 1:
        # A one-column key is still a tuple: the slice ``tup[p:p + 1]``.
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


class SetBackend(StorageBackend):
    """The classic store: a set of tuples plus lazy hash indexes."""

    kind = "set"

    __slots__ = ("name", "arity", "version", "_tuples", "_indexes")

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity
        self.version = 0
        self._tuples: set = set()
        # positions (sorted tuple of bound column indexes) ->
        # (key reader, key -> tuples)
        self._indexes: Dict[
            Tuple[int, ...],
            Tuple[Callable[[Tuple], Tuple], Dict[Tuple, List[Tuple]]],
        ] = {}

    def add(self, tup: Tuple) -> bool:
        tup = self._check(tup)
        if tup in self._tuples:
            return False
        self._tuples.add(tup)
        for key_of, index in self._indexes.values():
            index.setdefault(key_of(tup), []).append(tup)
        self.version += 1
        return True

    def add_new(self, tuples: Iterable[Tuple]) -> List[Tuple]:
        fresh: List[Tuple] = []
        stored = self._tuples
        arity = self.arity
        for tup in tuples:
            tup = tuple(tup)
            if len(tup) != arity:
                # All or nothing: callers journal what add_new returns,
                # so a refused batch must leave nothing behind.
                stored.difference_update(fresh)
                raise ValueError(
                    f"relation {self.name} has arity {arity}, got tuple {tup!r}"
                )
            if tup in stored:
                continue
            stored.add(tup)
            fresh.append(tup)
        if fresh:
            for key_of, index in self._indexes.values():
                for tup in fresh:
                    index.setdefault(key_of(tup), []).append(tup)
            self.version += 1
        return fresh

    def discard(self, tup: Tuple) -> bool:
        tup = self._check(tup)
        if tup not in self._tuples:
            return False
        self._tuples.discard(tup)
        for key_of, index in self._indexes.values():
            key = key_of(tup)
            bucket = index.get(key)
            if bucket is not None:
                try:
                    bucket.remove(tup)
                except ValueError:
                    pass
                if not bucket:
                    del index[key]
        self.version += 1
        return True

    def _index_for(self, positions: Tuple[int, ...]) -> Dict[Tuple, List[Tuple]]:
        entry = self._indexes.get(positions)
        if entry is None:
            key_of = _key_reader(positions)
            index: Dict[Tuple, List[Tuple]] = {}
            for tup in self._tuples:
                index.setdefault(key_of(tup), []).append(tup)
            entry = self._indexes[positions] = (key_of, index)
        return entry[1]

    def matches(self, positions: Tuple[int, ...], key: Tuple) -> Iterable[Tuple]:
        if not positions:
            return self._tuples
        if len(positions) == self.arity:
            tup = tuple(key)
            return (tup,) if tup in self._tuples else ()
        return self._index_for(positions).get(key, ())

    def matches_many(
        self, positions: Tuple[int, ...], keys: Iterable[Tuple]
    ) -> List[Iterable[Tuple]]:
        if not positions or len(positions) == self.arity:
            return super().matches_many(positions, keys)
        bucket = self._index_for(positions).get
        return [bucket(key, ()) for key in keys]

    def contains(self, tup: Tuple) -> bool:
        return tuple(tup) in self._tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def column_values(self, column: int) -> FrozenSet:
        return frozenset(tup[column] for tup in self._tuples)

    def clone(self) -> "SetBackend":
        twin = SetBackend(self.name, self.arity)
        twin._tuples = set(self._tuples)
        # Lazy indexes are rebuilt on demand in the clone.
        return twin

    def memory_bytes(self) -> int:
        # Estimate, not a measurement: a CPython tuple costs roughly
        # 56 bytes + 8 per slot, set/dict entries roughly 64 each.
        n = len(self._tuples)
        total = 64 + n * (56 + 8 * self.arity) + n * 64
        for _key_of, index in self._indexes.values():
            total += 64 * len(index) + 8 * n
        return total


class Relation:
    """A named relation: same-arity tuples behind a storage backend.

    ``lookup(pattern)`` is the per-probe read: ``pattern`` is a tuple
    whose bound positions carry values and whose free positions are
    ``None``.  Examples for a binary relation ``L``::

        L.lookup((b, None))   # all successors of b        (index on col 0)
        L.lookup((None, c))   # all predecessors of c      (index on col 1)
        L.lookup((b, c))      # membership test
        L.lookup((None, None))# full scan

    Every call charges the attached :class:`CostCounter` as described in
    the module docstring.  The bulk reads fetch once and charge what the
    probes they stand for would: :meth:`probe_repeated` a stated number
    of probes of one key, :meth:`probe_many` one probe of each key.
    """

    __slots__ = ("name", "arity", "counter", "_backend", "_frozen", "_frozen_version")

    def __init__(
        self,
        name: str,
        arity: int,
        tuples: Iterable[Tuple] = (),
        counter: Optional[CostCounter] = None,
        backend: Optional[StorageBackend] = None,
    ):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        # A counterless relation gets a private counter: charges stay
        # observable on the instance instead of leaking into shared
        # module state (which would mix costs across unrelated runs).
        self.counter = counter if counter is not None else CostCounter()
        self._backend = backend if backend is not None else SetBackend(name, arity)
        self._frozen: Optional[FrozenSet[Tuple]] = None
        self._frozen_version = -1
        if tuples:
            self._backend.add_new(tuples)

    @property
    def backend(self) -> StorageBackend:
        return self._backend

    def _set_backend(self, backend: StorageBackend) -> None:
        """Swap the physical store in place (same logical contents).

        Used by ``Database.to_columnar``: external holders of this
        Relation (maintenance views, compiled plans) keep working
        because the object identity and charged API are unchanged.
        """
        self._backend = backend
        self._frozen = None
        self._frozen_version = -1

    def add(self, tup: Tuple) -> bool:
        """Insert a tuple; returns True when it was new."""
        return self._backend.add(tup)

    def add_all(self, tuples: Iterable[Tuple]) -> int:
        """Insert many tuples; returns how many were new."""
        return len(self._backend.add_new(tuples))

    def add_new(self, tuples: Iterable[Tuple]) -> List[Tuple]:
        """Bulk insert; returns the tuples that were actually new.

        The semi-naive engines flush each round's delta through this:
        the returned list *is* the confirmed delta, already deduplicated
        against the stored facts, with backend indexes extended or
        invalidated in one sweep.
        """
        return self._backend.add_new(tuples)

    def discard(self, tup: Tuple) -> bool:
        """Remove a tuple; returns True when it was present.

        Backend indexes are updated (or invalidated) so the read path
        (:meth:`lookup`/:meth:`probe`) stays exact — the maintenance
        layer depends on this to retract facts without rebuilding.
        """
        return self._backend.discard(tup)

    def discard_all(self, tuples: Iterable[Tuple]) -> int:
        """Remove many tuples; returns how many were present."""
        return sum(1 for tup in tuples if self._backend.discard(tup))

    def lookup(self, pattern: Tuple) -> Iterator[Tuple]:
        """Yield tuples matching ``pattern`` (None = free position).

        Charges one probe plus one unit per tuple yielded.  A consumer
        that stops early (an existence check, a bounded scan) still pays
        for every tuple it retrieved: the charge covers exactly the
        tuples yielded and is recorded when the probe is exhausted *or
        abandoned* — the old exhaustion-only accounting let partially
        consumed probes escape the paper's cost measure entirely.
        """
        if len(pattern) != self.arity:
            raise ValueError(
                f"pattern {pattern!r} does not match arity {self.arity} "
                f"of relation {self.name}"
            )
        positions = tuple(i for i, v in enumerate(pattern) if v is not None)
        key = tuple(pattern[i] for i in positions)
        return self.probe(positions, key)

    def probe(self, positions: Tuple[int, ...], key: Tuple) -> Iterator[Tuple]:
        """Charged low-level read: tuples whose ``positions`` columns
        equal ``key`` (ascending column indexes, values in that order).

        This is :meth:`lookup` with the pattern already parsed —
        :meth:`lookup` derives ``(positions, key)`` per call, while the
        compiled join kernels precompute them once at plan time.  Both
        entry points share this body, so the charging is identical by
        construction: one probe, plus one unit per tuple yielded
        (settled on exhaustion or abandonment, as for :meth:`lookup`).
        """
        self.counter.charge_probe(self.name)
        matches = self._backend.matches(positions, key)
        count = 0
        try:
            for tup in matches:
                count += 1
                yield tup
        finally:
            self.counter.charge_tuples(self.name, count)

    def probe_repeated(
        self, positions: Tuple[int, ...], key: Tuple, times: int
    ) -> Tuple[Tuple, ...]:
        """One physical read standing for ``times`` identical probes.

        Returns the tuples whose ``positions`` columns equal ``key`` and
        charges what ``times`` exhausted :meth:`probe` calls would:
        ``times`` probes plus ``times * len(rows)`` tuples.  This is the
        per-key form of :meth:`CostCounter.charge_probe_batch`'s
        contract, for a set-at-a-time kernel whose cost model is a
        nested loop re-retrieving the same tuples: the *charge* stays
        the nested loop's, the *read* happens once.  ``times=0`` reads
        without charging — the caller owes the probes and settles them
        with a later call on the same key.
        """
        if times < 0:
            raise ValueError(f"times must be non-negative, got {times}")
        rows = tuple(self._backend.matches(positions, key))
        self.counter.charge_probe_batch(self.name, times)
        self.counter.charge_tuples(self.name, times * len(rows))
        return rows

    def probe_many(
        self, positions: Tuple[int, ...], keys: Iterable[Tuple]
    ) -> List[Tuple[Tuple, ...]]:
        """One physical read standing for one probe per key.

        Returns, for each of ``keys`` in order, the tuples whose
        ``positions`` columns equal it, and charges what one exhausted
        :meth:`probe` per key would: ``len(keys)`` probes (an absent key
        still costs its probe, a repeated key is charged each time) plus
        every matched tuple.  This is the per-frontier form of
        :meth:`CostCounter.charge_probe_batch`'s contract, for a
        level-synchronous kernel that expands a whole frontier at once.
        """
        rows = [
            tuple(matched)
            for matched in self._backend.matches_many(positions, keys)
        ]
        self.counter.charge_probe_batch(self.name, len(rows))
        self.counter.charge_tuples(self.name, sum(map(len, rows)))
        return rows

    def contains(self, tup: Tuple) -> bool:
        """Membership test, charged as one probe (plus one hit if found)."""
        self.counter.charge_probe(self.name)
        found = self._backend.contains(tup)
        if found:
            self.counter.charge_tuples(self.name, 1)
        return found

    # --- uncharged structural accessors -------------------------------
    # Used by tests, workload generators, and analysis code that inspects
    # relations without modelling database work.

    def __contains__(self, tup) -> bool:
        return self._backend.contains(tup)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._backend)

    def __len__(self) -> int:
        return len(self._backend)

    def as_set(self) -> FrozenSet[Tuple]:
        """A frozen snapshot of the stored tuples (uncharged).

        Memoized against the backend's mutation stamp: repeated calls on
        an unchanged relation return the same frozenset instead of
        materializing a fresh copy each time — snapshot export and the
        maintenance layer call this in loops.
        """
        backend = self._backend
        if self._frozen is None or self._frozen_version != backend.version:
            self._frozen = frozenset(backend)
            self._frozen_version = backend.version
        return self._frozen

    def column_values(self, column: int) -> FrozenSet:
        """Distinct values of one column (uncharged; used for statistics)."""
        return self._backend.column_values(column)

    def memory_bytes(self) -> int:
        """Estimated resident bytes of this relation's storage."""
        return self._backend.memory_bytes()

    def copy(self, counter: Optional[CostCounter] = None) -> "Relation":
        """An independent relation with the same tuples.

        Clones the backend wholesale (a set copy, or columnar array
        copies sharing the interner) instead of re-adding tuple by
        tuple through the index-maintenance path.
        """
        return Relation(
            self.name,
            self.arity,
            (),
            counter or self.counter,
            backend=self._backend.clone(),
        )

    def __repr__(self):
        return f"Relation({self.name!r}, arity={self.arity}, size={len(self)})"
