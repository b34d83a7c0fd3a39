"""Span-tracing telemetry: lifecycle and attribution.

The trace every job carries must tell a coherent story — spans nest
where the code nested, phases land in pipeline order, completion stamps
win exactly once, and dedupe followers adopt the execution window they
waited through.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.circuits import CircuitBuilder
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_circuit,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.telemetry import (
    PHASES,
    JobTrace,
    adopt_follower_spans,
    aggregate_phases,
)

PARAMS = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)


def _server_with_jobs(backend="", n_jobs=3, pool_size=2, cache=0,
                      circuit_jobs=0):
    bfv = Bfv(PARAMS, seed=0xC0F4EE)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(5)

    def fresh():
        return serialize_ciphertext(bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
            keys.public,
        ))

    server = FheServer(pool_size=pool_size, result_cache_size=cache)
    sid = server.open_session(
        "t", serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )
    job_ids = [
        server.submit(sid, JobKind.MULTIPLY, (fresh(), fresh()),
                      backend=backend)
        for _ in range(n_jobs)
    ]
    if circuit_jobs:
        b = CircuitBuilder("mul")
        x, y = b.input("x"), b.input("y")
        b.output("z", b.mul_relin(x, y))
        payload = serialize_circuit(b.build())
        job_ids += [
            server.submit(sid, JobKind.CIRCUIT, (fresh(), fresh()),
                          payload=payload, backend=backend)
            for _ in range(circuit_jobs)
        ]
    return server, sid, job_ids


class TestSpanLifecycle:
    def test_nesting_records_parent_indices(self):
        trace = JobTrace()
        with trace.span("submit"):
            with trace.span("decode"):
                pass
            with trace.span("cache_check"):
                pass
        assert [s.phase for s in trace.spans] == [
            "submit", "decode", "cache_check"
        ]
        assert [s.parent for s in trace.spans] == [-1, 0, 0]
        # Exits closed every span with end >= start.
        assert all(s.end >= s.start for s in trace.spans)

    def test_mark_returns_index_for_children(self):
        trace = JobTrace()
        top = trace.mark("worker_execute", 1.0, 2.0)
        child = trace.mark("execute", 1.2, 1.5, parent=top)
        assert trace.spans[child].parent == top
        assert trace.spans[top].parent == -1

    def test_stamp_done_first_wins(self):
        trace = JobTrace()
        trace.mark("submit", 0.0, 0.1)
        trace.stamp_done()
        first = trace.done_at
        time.sleep(0.001)
        trace.stamp_done()  # dedupe fan-out settles followers again
        assert trace.done_at == first

    def test_wall_seconds_is_submit_start_to_done(self):
        trace = JobTrace()
        assert trace.wall_seconds == 0.0
        with trace.span("submit"):
            pass
        assert trace.wall_seconds == 0.0  # not done yet
        trace.stamp_done()
        assert trace.wall_seconds == pytest.approx(
            trace.done_at - trace.spans[0].start
        )

    def test_phase_seconds_counts_top_level_only(self):
        trace = JobTrace()
        with trace.span("submit"):
            with trace.span("decode"):
                pass
        trace.mark("execute", 10.0, 11.0)
        totals = trace.phase_seconds()
        assert "decode" not in totals  # child of submit: no double count
        assert totals["execute"] == pytest.approx(1.0)

    def test_until_done_excludes_post_completion_spans(self):
        trace = JobTrace()
        trace.mark("submit", 0.0, 0.1)
        trace.stamp_done()
        after = trace.done_at + 1.0
        trace.mark("serialize", after, after + 5.0)
        assert "serialize" in trace.phase_seconds(until_done=False)
        assert "serialize" not in trace.phase_seconds(until_done=True)


class TestServingTraces:
    @pytest.mark.parametrize("backend", ("software", "chip_pool"))
    def test_phases_arrive_in_pipeline_order(self, backend):
        """Raw and circuit jobs alike record only glossary phases,
        children included."""
        server, _, job_ids = _server_with_jobs(backend=backend,
                                               circuit_jobs=2)
        server.run()
        order = {name: i for i, name in enumerate(PHASES)}
        for job_id in job_ids:
            assert server.poll(job_id) is JobStatus.DONE
            trace = server.job_trace(job_id)
            assert {s.phase for s in trace.spans} <= set(PHASES)
            assert trace.spans[0].phase == "submit"
            assert trace.done_at is not None
            top = [s.phase for s in trace.spans if s.parent == -1]
            assert top == sorted(top, key=lambda p: order[p])
            assert {"queue_wait", "execute"} <= set(top)
            # submit's decode/cache_check work is recorded as children.
            children = {s.phase for s in trace.spans if s.parent == 0}
            assert "decode" in children

    @pytest.mark.parametrize("backend", ("software", "chip_pool"))
    def test_serialize_span_ends_by_done(self, backend):
        """An executed job is framed as it settles, inside its wall."""
        server, _, job_ids = _server_with_jobs(backend=backend, n_jobs=1,
                                               circuit_jobs=1)
        server.run()
        for job_id in job_ids:
            trace = server.job_trace(job_id)
            (serialize,) = [s for s in trace.spans if s.phase == "serialize"]
            assert serialize.parent == -1
            assert serialize.end <= trace.done_at
            server.result(job_id)  # encodes nothing more
            assert sum(s.phase == "serialize" for s in trace.spans) == 1

    @staticmethod
    def _primary_hit_follower():
        server, sid, (primary,) = _server_with_jobs(n_jobs=1, cache=4)
        operands = server._jobs[primary].wire_operands
        follower = server.submit(sid, JobKind.MULTIPLY, operands)
        server.run()
        hit = server.submit(sid, JobKind.MULTIPLY, operands)
        metrics = server.job_metrics
        assert metrics(follower).backend == "dedupe"
        assert metrics(hit).backend == "cache"
        return server, primary, hit, follower

    def test_cache_hit_and_follower_record_no_serialize(self):
        server, _, hit, follower = self._primary_hit_follower()
        for job_id in (hit, follower):
            phases = {s.phase for s in server.job_trace(job_id).spans}
            assert "serialize" not in phases

    def test_cache_hit_and_follower_share_the_primary_bytes(self):
        server, primary, hit, follower = self._primary_hit_follower()
        wire = server.result(primary)
        assert isinstance(wire, bytes)
        assert server.result(hit) is wire
        assert server.result(follower) is wire
        (cached,) = server._results.values()
        assert cached is wire

    def test_phase_report_coverage(self):
        """The spans must explain >= 90% of end-to-end job latency."""
        server, _, _ = _server_with_jobs(backend="chip_pool", n_jobs=4)
        server.run()
        rows = server.phase_report(backend="chip_pool")
        assert rows[-1]["phase"] == "(total)"
        assert rows[-1]["percent"] >= 90.0
        assert rows[-1]["percent"] <= 100.0 + 1e-6
        phases = [r["phase"] for r in rows[:-1]]
        assert phases == sorted(phases, key=PHASES.index)

    def test_aggregate_phases_empty(self):
        rows = aggregate_phases([])
        assert rows == [
            {"phase": "(total)", "seconds": 0.0, "percent": 0.0, "spans": 0}
        ]


class TestDedupeFanoutTraces:
    """Regression: dedupe followers used to get an empty execution window.

    A follower attached to a primary's execution spent its whole wall
    clock inside the primary's execution, but its own trace recorded none
    of it — the profiler attributed everything to untraced time. Fan-out
    now adopts the primary's execution-window spans, clipped at the moment
    the follower actually queued.
    """

    def test_adopt_clips_at_follower_queue_time(self):
        primary = JobTrace()
        primary.queued_at = 0.0
        primary.mark("queue_wait", 0.0, 2.0)
        primary.mark("execute", 2.0, 10.0)
        follower = JobTrace()
        follower.queued_at = 4.0  # joined mid-execute
        copied = adopt_follower_spans(follower, primary)
        # queue_wait ended before the follower existed.
        assert copied == 1
        (execute,) = follower.spans
        assert execute.phase == "execute"
        assert (execute.start, execute.end) == (4.0, 10.0)

    def test_adopt_fills_the_gap_with_queue_wait(self):
        primary = JobTrace()
        primary.mark("execute", 5.0, 9.0)
        follower = JobTrace()
        follower.queued_at = 3.0  # queued before the primary executed
        assert adopt_follower_spans(follower, primary) == 1
        phases = [(s.phase, s.start, s.end) for s in follower.spans]
        assert ("execute", 5.0, 9.0) in phases
        assert ("queue_wait", 3.0, 5.0) in phases

    def test_follower_trace_explains_its_latency_end_to_end(self):
        """Two identical submits: the dedupe follower's trace now shows
        the execute window it actually waited through."""
        bfv = Bfv(PARAMS, seed=0xC0F4EE)
        keys = bfv.keygen(relin_digit_bits=14)
        encoder = BatchEncoder(PARAMS)
        wire = serialize_ciphertext(bfv.encrypt(
            encoder.encode(list(range(PARAMS.n))), keys.public
        ))
        server = FheServer(pool_size=2)
        sid = server.open_session(
            "t", serialize_params(PARAMS),
            relin_key=serialize_relin_key(keys.relin, PARAMS),
        )
        j1 = server.submit(sid, JobKind.MULTIPLY, (wire, wire))
        j2 = server.submit(sid, JobKind.MULTIPLY, (wire, wire))
        server.run()
        assert server.scheduler.stats.dedupe_hits == 1
        assert server.result(j1) == server.result(j2)
        follower = server.job_trace(j2)
        top = {s.phase for s in follower.spans if s.parent == -1}
        assert "execute" in top, top  # the regression: this was missing
        # The adopted window is the follower's own timeline: nothing
        # adopted starts before it queued.
        for span in follower.spans:
            if span.phase in ("execute", "worker_execute"):
                assert span.start >= follower.queued_at
        # And the trace now explains most of the follower's latency.
        rows = aggregate_phases([follower])
        assert rows[-1]["phase"] == "(total)"
        assert rows[-1]["percent"] >= 90.0
