"""EDB snapshots: export a service's database, import it elsewhere.

The replication primitive of the cluster serving topology
(:mod:`repro.cluster`): the front process exports its authoritative
database as one JSON file, worker processes import it into a fresh
read-only :class:`SolverService` at spawn — and again whenever a worker
misses a delta and must resynchronize.  The file carries the cluster
**epoch** (the front's ``db_version`` at export) so both sides agree on
which state a later ``apply_delta`` applies to, plus the default
program text so workers can pre-compile a warm plan before the first
request arrives (:func:`warm_plan_cache`).

The format is deliberately plain JSON — inspectable, diffable, no
pickle (snapshots cross a process-trust boundary).  Tuples inside fact
rows travel as nested arrays and decode back to tuples, the same
convention as the wire protocol.  Writes are atomic (temp file +
``os.replace``) so a worker never reads a half-written snapshot.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterable, Optional, Tuple

from ..datalog.database import BACKENDS, Database
from ..errors import ReproError
from .service import SolverService

#: Bumped when the on-disk layout changes; imports refuse other values.
SNAPSHOT_FORMAT = "repro-snapshot/1"


def _encode(value):
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(value):
    if isinstance(value, list):
        return tuple(_decode(item) for item in value)
    return value


def export_snapshot(
    service: SolverService,
    path: str,
    program_text: Optional[str] = None,
) -> Dict[str, object]:
    """Write ``service``'s EDB (plus its version as the epoch) to
    ``path`` atomically; returns the snapshot's metadata."""
    database = service.database
    relations = {}
    for name in database.names():
        relation = database.relation(name)
        relations[name] = {
            "arity": relation.arity,
            # Iterate the relation directly (uncharged) instead of
            # forcing an as_set() materialization of a frozen copy.
            "rows": sorted(
                ([_encode(v) for v in row] for row in relation),
                key=repr,
            ),
        }
    payload = {
        "format": SNAPSHOT_FORMAT,
        "epoch": service.db_version,
        "program": program_text,
        "backend": database.backend,
        "relations": relations,
    }
    if database.backend == "columnar":
        # Export the interner dictionary in id order so an import can
        # re-intern identically: same value -> same dense id on both
        # sides of the replication boundary.
        payload["symbols"] = [
            _encode(v) for v in database.symbols.values_snapshot()
        ]
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle, staging = tempfile.mkstemp(
        prefix=".snapshot-", suffix=".json", dir=directory
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, separators=(",", ":"), sort_keys=True)
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    facts = sum(len(r["rows"]) for r in relations.values())
    return {"epoch": payload["epoch"], "facts": facts, "path": path}


def read_snapshot(path: str) -> Tuple[Database, int, Optional[str]]:
    """Load ``(database, epoch, program_text)`` from a snapshot file."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ReproError(
            f"unsupported snapshot format {payload.get('format')!r} "
            f"in {path} (expected {SNAPSHOT_FORMAT})"
        )
    backend = str(payload.get("backend", "set"))
    if backend not in BACKENDS:
        raise ReproError(
            f"unsupported snapshot backend {backend!r} in {path} "
            f"(expected one of {BACKENDS})"
        )
    database = Database(backend=backend)
    if database.backend == "columnar":
        # Replay the exporter's interner in id order before any fact
        # lands, so the imported columns carry identical dense ids.
        database.symbols.intern_many(
            _decode(v) for v in payload.get("symbols", [])
        )
    for name, relation in sorted(payload.get("relations", {}).items()):
        database.create(name, int(relation["arity"]))
        database.add_facts(
            name, [tuple(_decode(v) for v in row) for row in relation["rows"]]
        )
    program = payload.get("program")
    return database, int(payload.get("epoch", 0)), program


def import_snapshot(path: str) -> "ImportedSnapshot":
    """A fresh :class:`SolverService` over the snapshot's database."""
    database, epoch, program_text = read_snapshot(path)
    return ImportedSnapshot(SolverService(database), epoch, program_text)


class ImportedSnapshot:
    """What :func:`import_snapshot` hands back: the rebuilt service,
    the epoch its state corresponds to, and the exporter's default
    program text (None when the exporter had no default program)."""

    __slots__ = ("service", "epoch", "program_text")

    def __init__(
        self,
        service: SolverService,
        epoch: int,
        program_text: Optional[str],
    ):
        self.service = service
        self.epoch = epoch
        self.program_text = program_text

    def __repr__(self):
        return (
            f"ImportedSnapshot(epoch={self.epoch}, "
            f"program={'yes' if self.program_text else 'no'})"
        )


def warm_plan_cache(
    service: SolverService,
    program_texts: Iterable[str],
) -> int:
    """Pre-compile plans so a worker's first request is a cache hit.

    Compiles (never executes) the plan for each program text; texts
    that fail to parse or compile are skipped — warming is an
    optimization, not a correctness gate.  Returns how many plans were
    compiled.  Plans are shared across batch methods, so one compile
    warms them all.
    """
    from ..datalog.parser import parse_program
    from ..datalog.program import Program

    warmed = 0
    for text in program_texts:
        if not text:
            continue
        try:
            parsed = parse_program(text)
            program = Program(
                [rule for rule in parsed.rules if not rule.is_fact],
                parsed.query,
            )
            service.compile(program)
            warmed += 1
        except ReproError:
            continue
    return warmed
