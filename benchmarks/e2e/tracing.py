"""Spans recorded from outside the program: ``TracedService``.

ROADMAP item 4 will put spans *inside* ``src/repro``; until then the
traced run hosts this subclass, which records one span around each call
that crosses the server → service boundary and lifts what the service
already reports about its own phases into child spans:

* ``service.service.solve_batch`` / ``service.service.mutate`` — real
  intervals, taken here;
* ``core.multi_source.union``, ``core.magic_method.fixpoint``,
  ``core.counting_method.counting`` — the ``duration_ms:<phase>`` /
  ``phase:<phase>`` entries of ``BatchResult.metrics``.  Only their
  durations are known, so they are laid end to end up to the parent's
  end and flagged ``synthetic``;
* ``service.plan.compile`` — ``plan.compile_seconds`` on a cache miss
  (synthetic likewise);
* ``analysis.cost.certify`` and ``core.classification.classify`` — real
  intervals, taken by wrapping the two analysis entry points the plan
  calls on a memo miss, so a span *is* a recomputation.

Spans are plain dicts ``{id, name, start, end, parent, ...}`` kept in
memory; the child hands them over when it stops.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Dict, List, Optional

from repro.service import SolverService

#: ``BatchResult.metrics`` phase -> the layer that ran it
PHASE_LAYERS = {
    "reachability": "core.multi_source.union",
    "fixpoint": "core.magic_method.fixpoint",
    "counting": "core.counting_method.counting",
}

#: ``(module, attribute, span name)``: analysis entry points reached
#: from inside ``solve_batch`` through a module-level name lookup.
PROBES = (
    ("repro.analysis.cost", "analyze_cost_query", "analysis.cost.certify"),
    ("repro.service.plan", "classify_nodes", "core.classification.classify"),
)


class TracedService(SolverService):
    """A ``SolverService`` at its defaults that appends spans to ``spans``.

    Installing it wraps the :data:`PROBES` entry points for the life of
    the process — it is meant for the traced server child only.
    """

    def __init__(self, database, spans: List[Dict]):
        super().__init__(database)
        self.spans = spans
        self._spans_lock = threading.Lock()
        # Per worker thread: the probe intervals seen inside the
        # solve_batch call in progress (None outside one).
        self._inside = threading.local()
        for module_name, attribute, span_name in PROBES:
            module = importlib.import_module(module_name)
            setattr(
                module,
                attribute,
                self._probe(getattr(module, attribute), span_name),
            )

    def _probe(self, function, span_name: str):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seen = getattr(self._inside, "seen", None)
                if seen is not None:
                    seen.append((span_name, start, time.perf_counter()))

        return timed

    def _add(self, name: str, start: float, end: float,
             parent: Optional[int] = None, **attributes) -> int:
        with self._spans_lock:
            span_id = len(self.spans)
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    **attributes,
                }
            )
        return span_id

    def solve_batch(self, target, sources=None, method="shared_magic"):
        self._inside.seen = []
        start = time.perf_counter()
        try:
            result = super().solve_batch(target, sources, method=method)
        finally:
            end = time.perf_counter()
            seen, self._inside.seen = self._inside.seen, None
        parent = self._add(
            "service.service.solve_batch",
            start,
            end,
            sources=list(result.answers),
            method=result.method,
            retrievals=result.retrievals,
            cache_hit=result.cache_hit,
            plan_bytes=result.metrics.get("plan_bytes", 0),
        )
        for name, probe_start, probe_end in seen:
            self._add(name, probe_start, probe_end, parent)
        # The service's own phase report: durations only, so the spans
        # are packed backwards from the parent's end, last phase last.
        cursor = end
        for phase, layer in reversed(PHASE_LAYERS.items()):
            duration_ms = result.metrics.get(f"duration_ms:{phase}")
            if duration_ms is None:
                continue
            self._add(
                layer,
                cursor - duration_ms / 1000.0,
                cursor,
                parent,
                synthetic=True,
                retrievals=result.metrics.get(f"phase:{phase}", 0),
            )
            cursor -= duration_ms / 1000.0
        if not result.cache_hit:
            compile_s = result.plan.compile_seconds
            self._add(
                "service.plan.compile",
                start,
                start + compile_s,
                parent,
                synthetic=True,
            )
        return result

    def mutate(self, inserts=None, deletes=None):
        start = time.perf_counter()
        result = super().mutate(inserts=inserts, deletes=deletes)
        self._add(
            "service.service.mutate",
            start,
            time.perf_counter(),
            changed=result.changed,
            maintenance=dict(result.maintenance),
        )
        return result
