"""Unit tests for the wire protocol, the coalescer, and latency metrics."""

import asyncio
import time

import pytest

from repro.errors import EvaluationError, UnsafeQueryError
from repro.server import RequestCoalescer
from repro.server.protocol import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ServerError,
    ShuttingDownError,
    decode_answer_map,
    decode_answers,
    decode_request,
    decode_rows,
    decode_value,
    encode_answer_map,
    encode_answers,
    encode_frame,
    encode_rows,
    encode_value,
    error_for_exception,
    error_from_payload,
    error_response,
    ok_response,
)
from repro.service.metrics import LatencyHistogram


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"id": 3, "op": "ping", "params": {}})
        assert frame.endswith(b"\n")
        request = decode_request(frame)
        assert request["op"] == "ping"
        assert request["id"] == 3

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_request(b"this is not json\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_request(b"[1, 2, 3]\n")

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError):
            decode_request(b'{"id": 1}\n')

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b'{"op": "bogus"}\n')
        assert "bogus" in str(excinfo.value)

    def test_rejects_non_dict_params(self):
        with pytest.raises(ProtocolError):
            decode_request(b'{"op": "ping", "params": [1]}\n')

    def test_mutation_ops_are_known(self):
        from repro.server.protocol import OPS

        for op in ("add_fact", "add_facts", "remove_fact", "remove_facts"):
            assert op in OPS
            request = decode_request(
                encode_frame({"id": 1, "op": op, "params": {}})
            )
            assert request["op"] == op

    def test_response_shapes(self):
        ok = ok_response(7, {"answers": []})
        assert ok == {"id": 7, "ok": True, "result": {"answers": []}}
        err = error_response(7, "overloaded", "queue full")
        assert err["ok"] is False
        assert err["error"]["code"] == "overloaded"


class TestValueEncoding:
    def test_scalars_round_trip(self):
        for value in ("ann", 42, 3.5, None, True):
            assert decode_value(encode_value(value)) == value

    def test_tuples_become_arrays_and_back(self):
        value = ("a", 1, ("nested", 2))
        encoded = encode_value(value)
        assert encoded == ["a", 1, ["nested", 2]]
        assert decode_value(encoded) == value

    def test_object_refused_at_any_depth(self):
        # No constant is a mapping; a dict reaching the coalescer is an
        # unhashable "source".  Top-level null still means "absent".
        for bad in ({"x": 1}, [{"x": 1}], ["a", ["b", {}]]):
            with pytest.raises(ProtocolError, match="object"):
                decode_value(bad)
        assert decode_value(None) is None

    def test_rows_round_trip(self):
        rows = [("a", 1), (("x", 2), "b")]
        assert decode_rows(encode_rows(rows)) == rows
        assert decode_rows([]) == []

    @pytest.mark.parametrize(
        "bad", ["ab", ["ab"], [7], [None], [["a", "b"], "cd"], {"a": 1}, None]
    )
    def test_rows_must_be_arrays_of_arrays(self, bad):
        with pytest.raises(ProtocolError, match="tuples"):
            decode_rows(bad)

    def test_answers_round_trip_sorted(self):
        answers = frozenset({"b", "a", 3})
        encoded = encode_answers(answers)
        assert encoded == sorted(encoded, key=repr)
        assert decode_answers(encoded) == answers

    def test_answer_map_keeps_non_string_sources(self):
        answers = {1: frozenset({"x"}), ("a", "b"): frozenset({2, 3})}
        decoded = decode_answer_map(encode_answer_map(answers))
        assert decoded == answers


class TestErrorMapping:
    def test_payload_rehydrates_to_classes(self):
        for code, cls in (
            ("overloaded", OverloadedError),
            ("deadline_exceeded", DeadlineExceededError),
            ("shutting_down", ShuttingDownError),
            ("bad_request", ProtocolError),
        ):
            error = error_from_payload({"code": code, "message": "m"})
            assert isinstance(error, cls)
            assert error.code == code

    def test_unknown_code_keeps_code(self):
        error = error_from_payload({"code": "weird", "message": "m"})
        assert isinstance(error, ServerError)
        assert error.code == "weird"

    def test_exception_mapping(self):
        assert error_for_exception(OverloadedError("x"))[0] == "overloaded"
        assert error_for_exception(UnsafeQueryError("x"))[0] == "unsafe_query"
        assert error_for_exception(EvaluationError("x"))[0] == "bad_request"
        assert error_for_exception(RuntimeError("x"))[0] == "internal"


class TestMalformedRowsLeaveTheDatabaseAlone:
    """A string row used to be iterated into a tuple of its characters
    (``"ab"`` stored the fact ``(a, b)``); rows that are not JSON arrays
    are now a ``bad_request`` and nothing is stored or deleted."""

    BAD_ROWS = ["ab", ["ab"], [7], [["a", "b"], "cd"]]

    @staticmethod
    def _refused(server, request):
        database = server.service.database
        before = {name: database.facts(name) for name in database.names()}
        version = server.service.db_version
        with pytest.raises(ProtocolError) as caught:
            run(server._dispatch(request))
        assert error_for_exception(caught.value)[0] == "bad_request"
        assert {
            name: database.facts(name) for name in database.names()
        } == before
        assert server.service.db_version == version

    @staticmethod
    def _service():
        from repro.datalog.database import Database
        from repro.service import SolverService

        database = Database()
        database.add_facts("l", [("a", "b"), ("c", "d")])
        return SolverService(database)

    @pytest.mark.parametrize("op", ["add_facts", "remove_facts"])
    @pytest.mark.parametrize("rows", BAD_ROWS)
    def test_mutation_ops_refuse_malformed_rows(self, op, rows):
        from repro.server import SolverServer

        self._refused(
            SolverServer(self._service()),
            {"op": op, "params": {"name": "l", "tuples": rows}},
        )

    @pytest.mark.parametrize("field", ["inserts", "deletes"])
    @pytest.mark.parametrize("rows", BAD_ROWS)
    def test_apply_delta_refuses_malformed_rows(self, field, rows):
        from repro.cluster.worker import ClusterWorkerServer

        self._refused(
            ClusterWorkerServer(self._service(), token="t"),
            {
                "op": "apply_delta",
                "params": {
                    "token": "t", "parent": 0, "epoch": 1, field: {"l": rows},
                },
            },
        )


class TestMethodIsValidatedBeforeItIsAKey:
    """``(program, method)`` is the coalescer's window key and ``method``
    is tested against ``BATCH_METHODS`` with ``in``: a wire value that is
    not a string (possibly unhashable) must be a ``bad_request`` naming
    the accepted methods, never a ``TypeError`` and never a window."""

    @pytest.mark.parametrize("op", ["solve", "solve_batch"])
    @pytest.mark.parametrize("method", [["x"], {"a": 1}, 7, None, "bogus"])
    def test_non_method_values_are_bad_requests(self, op, method):
        from repro.server import SolverServer
        from repro.service import BATCH_METHODS, SolverService

        from .test_service import sg_database, sg_program

        async def scenario():
            server = SolverServer(
                SolverService(sg_database()), program=sg_program(), window_ms=0
            )
            params = {"source": "a", "sources": ["a"]}
            try:
                with pytest.raises(ProtocolError) as caught:
                    await server._dispatch(
                        {"op": op, "params": {**params, "method": method}}
                    )
                assert error_for_exception(caught.value)[0] == "bad_request"
                assert ", ".join(BATCH_METHODS) in str(caught.value)
                assert server.coalescer.stats()["open_windows"] == 0
                assert server.coalescer.stats()["requests"] == 0
                # the same server goes on answering
                reply = await server._dispatch({"op": op, "params": params})
                assert server.coalescer.stats()["open_windows"] == 0
                return reply
            finally:
                await server.stop()

        reply = run(scenario())
        answers = reply["answers"]
        assert (answers if op == "solve" else dict(answers)["a"]) == [
            "a1", "y2",
        ]


def test_a_repeated_source_in_an_explicit_wire_batch_is_one_goal():
    """``submit_batch`` hands the sources over as the client sent them
    (only windows are deduplicated): the service collapses the repeat,
    so the batch is charged and counted as the goals it answers."""
    from repro.server import SolverServer
    from repro.service import SolverService

    from .test_service import sg_database, sg_program

    async def scenario(sources):
        service = SolverService(sg_database())
        server = SolverServer(service, program=sg_program(), window_ms=0)
        try:
            reply = await server._dispatch(
                {
                    "op": "solve_batch",
                    "params": {
                        "sources": sources,
                        "method": "mc_multiple_integrated",
                    },
                }
            )
        finally:
            await server.stop()
        stats = service.stats()
        return reply, stats["goals"], stats["retrievals"]

    repeated = run(scenario(["a", "d", "a"]))
    assert repeated == run(scenario(["a", "d"]))
    reply, goals, _retrievals = repeated
    assert [source for source, _answers in reply["answers"]] == ["a", "d"]
    assert goals == 2


async def _echo_execute(key, sources):
    return {source: frozenset({f"{source}!"}) for source in sources}


def run(coroutine):
    return asyncio.run(coroutine)


async def _within_a_few_ticks(task):
    for _ in range(10):
        if task.done():
            break
        await asyncio.sleep(0)
    return task.done()


def _recording(sizes, gate=None):
    """An execute hook that records each batch's size (and parks on
    ``gate`` first, to keep a batch executing)."""

    async def execute(key, sources):
        sizes.append(len(sources))
        if gate is not None:
            await gate.wait()
        return await _echo_execute(key, sources)

    return execute


async def _wave(coalescer, number, size=32):
    """One pipelined wave as the server hands it over: the ``size``
    frames of one client write, submitted in one loop iteration and all
    awaited before the caller goes on (closed loop)."""
    return await asyncio.gather(
        *(coalescer.submit("k", (number, index)) for index in range(size))
    )


async def _parked(coalescer, sizes):
    """Start one batch that keeps executing until the hook's gate opens
    (the coalescer runs ``_recording(sizes, gate)``); returns its task."""
    parked = asyncio.ensure_future(coalescer.submit("k", "parked"))
    before = len(sizes)
    while len(sizes) == before:
        await asyncio.sleep(0)
    return parked


class TestCoalescer:
    def test_concurrent_submits_share_one_batch(self):
        async def main():
            coalescer = RequestCoalescer(_echo_execute, window=0.05)
            results = await asyncio.gather(
                *(coalescer.submit("k", s) for s in ["a", "b", "c", "a", "b"])
            )
            assert results == [
                frozenset({"a!"}),
                frozenset({"b!"}),
                frozenset({"c!"}),
                frozenset({"a!"}),
                frozenset({"b!"}),
            ]
            assert coalescer.batches == 1
            assert coalescer.coalesced == 5
            # duplicate sources dedupe inside the batch
            assert coalescer.largest_batch == 3
            assert coalescer.pending == 0

        run(main())

    def test_groups_do_not_mix(self):
        async def main():
            seen = []

            async def execute(key, sources):
                seen.append((key, tuple(sources)))
                return {s: frozenset({key}) for s in sources}

            coalescer = RequestCoalescer(execute, window=0.05)
            one, two = await asyncio.gather(
                coalescer.submit(("p1", "m"), "a"),
                coalescer.submit(("p2", "m"), "a"),
            )
            assert one == frozenset({("p1", "m")})
            assert two == frozenset({("p2", "m")})
            assert coalescer.batches == 2
            assert sorted(key for key, _ in seen) == [("p1", "m"), ("p2", "m")]

        run(main())

    def test_max_batch_flushes_before_window(self):
        async def main():
            coalescer = RequestCoalescer(
                _echo_execute, window=30.0, max_batch=3
            )
            started = time.monotonic()
            await asyncio.gather(
                *(coalescer.submit("k", s) for s in ["a", "b", "c"])
            )
            assert time.monotonic() - started < 5.0
            assert coalescer.batches == 1

        run(main())

    def test_overflow_rejected_not_queued(self):
        async def main():
            coalescer = RequestCoalescer(
                _echo_execute, window=0.2, max_pending=2
            )
            results = await asyncio.gather(
                *(coalescer.submit("k", s) for s in ["a", "b", "c", "d", "e"]),
                return_exceptions=True,
            )
            rejected = [r for r in results if isinstance(r, OverloadedError)]
            served = [r for r in results if isinstance(r, frozenset)]
            assert len(rejected) == 3
            assert len(served) == 2
            assert coalescer.overloaded == 3

        run(main())

    def test_expired_deadline_rejected_at_admission(self):
        async def main():
            coalescer = RequestCoalescer(_echo_execute, window=0.01)
            with pytest.raises(DeadlineExceededError):
                await coalescer.submit("k", "a", deadline=0)
            with pytest.raises(DeadlineExceededError):
                await coalescer.submit("k", "a", deadline=-1)
            assert coalescer.expired == 2
            assert coalescer.pending == 0

        run(main())

    def test_deadline_expires_while_waiting(self):
        async def main():
            sizes = []
            gate = asyncio.Event()
            coalescer = RequestCoalescer(
                _recording(sizes, gate), window=30.0
            )
            # A batch executing: the next group is held for the window.
            parked = await _parked(coalescer, sizes)
            with pytest.raises(DeadlineExceededError):
                await coalescer.submit("k", "a", deadline=0.05)
            gate.set()
            assert await parked == frozenset({"parked!"})
            # The held waiter expired, so the drain flush has nothing to
            # execute: a source wanted only by dead requests never runs.
            await coalescer.drain()
            assert sizes == [1]
            assert coalescer.batches == 1
            assert coalescer.expired == 1

        run(main())

    def test_execute_failure_reaches_every_waiter(self):
        async def explode(key, sources):
            raise EvaluationError("boom")

        async def main():
            coalescer = RequestCoalescer(explode, window=0.02)
            results = await asyncio.gather(
                coalescer.submit("k", "a"),
                coalescer.submit("k", "b"),
                return_exceptions=True,
            )
            assert all(isinstance(r, EvaluationError) for r in results)
            assert coalescer.pending == 0

        run(main())

    def test_unhashable_source_fails_its_window_not_the_task(self):
        """Deduping hashes the sources; an unhashable one used to raise
        outside the ``try`` — the batch task died, no future of the
        window was ever resolved and the slots leaked."""

        async def main():
            coalescer = RequestCoalescer(_echo_execute, window=0.02)
            results = await asyncio.wait_for(
                asyncio.gather(
                    coalescer.submit("k", {"x": 1}),
                    coalescer.submit("k", "b"),
                    return_exceptions=True,
                ),
                timeout=5,
            )
            assert all(isinstance(r, TypeError) for r in results)
            assert coalescer.pending == 0
            assert coalescer.stats()["open_windows"] == 0

        run(main())

    def test_drain_flushes_open_windows_immediately(self):
        async def main():
            coalescer = RequestCoalescer(_echo_execute, window=30.0)
            tasks = [
                asyncio.ensure_future(coalescer.submit("k", s))
                for s in ["a", "b"]
            ]
            await asyncio.sleep(0)  # let the submits enqueue
            started = time.monotonic()
            await coalescer.drain()
            results = await asyncio.gather(*tasks)
            assert time.monotonic() - started < 5.0
            assert results == [frozenset({"a!"}), frozenset({"b!"})]
            with pytest.raises(ShuttingDownError):
                await coalescer.submit("k", "c")

        run(main())

    def test_submit_batch_shares_admission_control(self):
        async def main():
            coalescer = RequestCoalescer(_echo_execute, max_pending=4)
            answers = await coalescer.submit_batch("k", ["a", "b"])
            assert answers == {
                "a": frozenset({"a!"}),
                "b": frozenset({"b!"}),
            }
            with pytest.raises(OverloadedError):
                await coalescer.submit_batch("k", ["a", "b", "c", "d", "e"])

        run(main())

    def test_stats_shape(self):
        async def main():
            coalescer = RequestCoalescer(_echo_execute, window=0.01)
            await coalescer.submit("k", "a")
            stats = coalescer.stats()
            assert stats["requests"] == 1
            assert stats["batches"] == 1
            assert stats["pending"] == 0
            assert stats["open_windows"] == 0
            assert stats["immediate"] == 1  # opened on an idle coalescer
            assert stats["window_ms"] == pytest.approx(10.0)

        run(main())

    # --- the window closes on evidence, not on a clock ----------------

    def test_a_lone_callers_first_request_is_not_held(self):
        async def main():
            # A window this long would never come back: every request
            # below opens its group on an idle coalescer and is flushed
            # as soon as a loop iteration brings nobody new.
            coalescer = RequestCoalescer(_echo_execute, window=30.0)
            for source in ["a", "b", "c"]:
                request = asyncio.ensure_future(coalescer.submit("k", source))
                assert await _within_a_few_ticks(request)
                assert request.result() == frozenset({f"{source}!"})
            stats = coalescer.stats()
            assert stats["immediate"] == 3
            assert stats["batches"] == 3
            assert stats["open_windows"] == 0 and stats["pending"] == 0

        run(main())

    def test_a_burst_is_one_batch_held_or_not(self):
        """100 submits in one tick (the benchmarks/test_server_throughput
        shape): one batch on an idle coalescer, flushed without a hold,
        and one batch when a batch already executing holds its window."""

        async def idle():
            coalescer = RequestCoalescer(
                _echo_execute, window=30.0, max_batch=128
            )
            burst = asyncio.ensure_future(
                asyncio.gather(*(coalescer.submit("k", n) for n in range(100)))
            )
            assert await _within_a_few_ticks(burst)
            assert coalescer.batches == 1
            assert coalescer.largest_batch == 100
            assert coalescer.immediate == 1

        async def held():
            sizes = []
            gate = asyncio.Event()
            coalescer = RequestCoalescer(
                _recording(sizes, gate), window=0.05, max_batch=128
            )
            parked = await _parked(coalescer, sizes)
            burst = asyncio.gather(
                *(coalescer.submit("k", n) for n in range(100))
            )
            gate.set()
            await asyncio.gather(parked, burst)
            assert sizes == [1, 100]
            assert coalescer.immediate == 1  # the parked batch only

        run(idle())
        run(held())

    def test_pipelined_waves_coalesce_whole(self):
        async def main():
            sizes = []
            coalescer = RequestCoalescer(_recording(sizes), window=30.0)
            for number in range(10):
                wave = asyncio.ensure_future(_wave(coalescer, number))
                # not held: a 30 s window would not come back
                assert await _within_a_few_ticks(wave)
            assert sizes == [32] * 10
            assert coalescer.coalesced / coalescer.batches == 32
            assert coalescer.immediate == 10

        run(main())

    def test_waves_after_a_lone_caller_coalesce_whole(self):
        """No learning period: lone requests leave nothing behind, and
        the first wave after them is as whole as every later one."""

        async def main():
            sizes = []
            coalescer = RequestCoalescer(_recording(sizes), window=0.1)
            for source in ["lone0", "lone1"]:
                await coalescer.submit("k", source)
            for number in range(3):
                await _wave(coalescer, number)
            assert sizes == [1, 1, 32, 32, 32]
            assert coalescer.immediate == 5

        run(main())

    def test_a_straggler_does_not_cascade(self):
        """A wave cut 31 + 1 — the straggler arrives while the 31 execute
        and is held alone — leaves nothing behind: the next wave finds an
        idle coalescer and is whole."""

        async def main():
            sizes = []
            gate = asyncio.Event()
            coalescer = RequestCoalescer(
                _recording(sizes, gate), window=0.05
            )
            wave = [
                asyncio.ensure_future(coalescer.submit("k", n))
                for n in range(31)
            ]
            while not sizes:  # flushed when quiet; its batch parks
                await asyncio.sleep(0)
            straggler = asyncio.ensure_future(coalescer.submit("k", 31))
            while len(sizes) < 2:  # held for the window, then parks
                await asyncio.sleep(0.005)
            gate.set()
            await asyncio.gather(*wave, straggler)
            await _wave(coalescer, 1)
            assert sizes == [31, 1, 32]
            assert coalescer.immediate == 2

        run(main())

    def test_a_request_arriving_while_a_batch_executes_waits(self):
        async def main():
            sizes = []
            gate = asyncio.Event()
            coalescer = RequestCoalescer(
                _recording(sizes, gate), window=0.05
            )
            parked = await _parked(coalescer, sizes)
            assert coalescer.immediate == 1 and sizes == [1]
            # Company: something is executing, so this one is held — and
            # its neighbour joins it.
            started = time.monotonic()
            held = [
                asyncio.ensure_future(coalescer.submit("k", source))
                for source in ["b", "c"]
            ]
            assert not await _within_a_few_ticks(held[0])
            assert coalescer.stats()["open_windows"] == 1
            gate.set()
            await asyncio.gather(parked, *held)
            assert time.monotonic() - started >= 0.045
            assert sizes == [1, 2]
            assert coalescer.immediate == 1

        run(main())

    def test_guarantees_hold_on_an_immediately_dispatched_group(self):
        async def settled(coalescer, immediate):
            stats = coalescer.stats()
            assert stats["immediate"] == immediate
            assert stats["open_windows"] == 0 and stats["pending"] == 0

        async def deadline():
            coalescer = RequestCoalescer(_echo_execute, window=30.0)
            answer = await coalescer.submit("k", "a", deadline=5.0)
            assert answer == frozenset({"a!"})
            gate = asyncio.Event()
            coalescer._execute = _recording([], gate)
            with pytest.raises(DeadlineExceededError):
                await coalescer.submit("k", "b", deadline=0.02)
            gate.set()
            await coalescer.drain()
            assert coalescer.expired == 1
            await settled(coalescer, immediate=2)

        async def drain():
            coalescer = RequestCoalescer(_echo_execute, window=30.0)
            task = asyncio.ensure_future(coalescer.submit("k", "a"))
            await asyncio.sleep(0)  # enqueued, its quiet check not yet run
            await coalescer.drain()
            assert await task == frozenset({"a!"})
            assert coalescer.batches == 1
            with pytest.raises(ShuttingDownError):
                await coalescer.submit("k", "b")
            await settled(coalescer, immediate=1)

        async def max_batch():
            sizes = []
            coalescer = RequestCoalescer(
                _recording(sizes), window=30.0, max_batch=2
            )
            tasks = [
                asyncio.ensure_future(coalescer.submit("k", s))
                for s in ["a", "b", "c"]
            ]
            # "a" opened a group on an idle coalescer and "b" filled it;
            # "c" opened the next one behind a queued batch, so it is
            # held: the first group's cancelled quiet check must not
            # flush it.
            assert not await _within_a_few_ticks(tasks[2])
            assert sizes == [2]
            assert coalescer.stats()["open_windows"] == 1
            await coalescer.drain()
            answers = await asyncio.gather(*tasks)
            assert answers[2] == frozenset({"c!"})
            assert sizes == [2, 1]
            await settled(coalescer, immediate=1)

        run(deadline())
        run(drain())
        run(max_batch())

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            RequestCoalescer(_echo_execute, window=-1)
        with pytest.raises(ValueError):
            RequestCoalescer(_echo_execute, max_batch=0)


class TestLatencyHistogram:
    def test_percentiles_nearest_rank(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):
            histogram.observe(ms / 1000.0)
        assert histogram.percentile(50) == pytest.approx(0.050)
        assert histogram.percentile(95) == pytest.approx(0.095)
        assert histogram.percentile(99) == pytest.approx(0.099)
        assert histogram.count == 100
        assert histogram.max == pytest.approx(0.100)

    def test_empty_histogram_reports_zero(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(99) == 0.0
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["p99_ms"] == 0.0

    def test_reservoir_keeps_recent_samples(self):
        histogram = LatencyHistogram(capacity=10)
        for _ in range(50):
            histogram.observe(1.0)
        for _ in range(10):
            histogram.observe(0.001)
        # Lifetime counters see everything; percentiles see the window.
        assert histogram.count == 60
        assert histogram.percentile(99) == pytest.approx(0.001)
