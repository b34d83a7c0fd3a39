"""Per-job settlement: a formed batch settles one job per scheduler tick.

The scheduler still packs compatible jobs into batches, but a
synchronous backend runs them one at a time and each job completes at
its own end — the host-side analogue of CoFHEE's per-command completion
interrupt. These tests pin that down in-process (one ``tick()`` settles
exactly one job, results and modelled cycles unchanged) and over a real
socket (completion EVENTs stream out mid-batch, in dispatch order).
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.client import AsyncFheClient
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.transport import FheTransportServer

PARAMS = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)
WAVE = 4

#: Modelled per-job cycles of one keyed EvalMult at these params on the
#: chip pool: three Algorithm 3 towers plus the key-switch tail. They
#: depend on the job alone, never on how the scheduler batched it.
CHIP_TOWER_CYCLES = (1143, 1143, 1143)
CHIP_RELIN_CYCLES = 5760
EXPECTED_CYCLES = {
    "chip_pool": (sum(CHIP_TOWER_CYCLES) + CHIP_RELIN_CYCLES,
                  CHIP_TOWER_CYCLES, CHIP_RELIN_CYCLES),
    "software": (0, (), 0),
    "fastntt": (0, (), 0),
}


@pytest.fixture(scope="module")
def stack():
    bfv = Bfv(PARAMS, seed=0x5E77)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(20)
    pairs = [
        tuple(
            bfv.encrypt(encoder.encode(
                [rng.randrange(16) for _ in range(PARAMS.n)]), keys.public)
            for _ in range(2)
        )
        for _ in range(WAVE)
    ]
    return bfv, keys, pairs


def _wire(pair):
    return tuple(serialize_ciphertext(ct) for ct in pair)


class TestInProcess:
    @pytest.mark.parametrize("backend", sorted(EXPECTED_CYCLES))
    def test_each_tick_settles_exactly_one_job(self, stack, backend):
        bfv, keys, pairs = stack
        server = FheServer(pool_size=4, max_batch=WAVE, result_cache_size=0)
        sid = server.open_session(
            "t", serialize_params(PARAMS),
            relin_key=serialize_relin_key(keys.relin, PARAMS),
        )
        jids = [
            server.submit(sid, JobKind.MULTIPLY, _wire(pair), backend=backend)
            for pair in pairs
        ]
        settled = []
        for tick in range(1, WAVE + 1):
            assert server.tick()
            done = [j for j in jids if server.status(j) is JobStatus.DONE]
            assert len(done) == tick, f"tick {tick} settled {done}"
            settled.append(next(j for j in done if j not in settled))
        assert not server.tick()
        # One formed batch, settled in its dispatch order.
        metrics = [server.job_metrics(j) for j in jids]
        assert len({m.batch_id for m in metrics}) == 1
        assert settled == sorted(
            jids, key=lambda j: server.job_metrics(j).dispatched_seq
        )
        cycles, towers, relin = EXPECTED_CYCLES[backend]
        for jid, (a, b) in zip(jids, pairs):
            assert server.result(jid) == serialize_ciphertext(
                bfv.multiply_relin(a, b, keys.relin)
            )
            m = server.job_metrics(jid)
            assert (m.cycles, m.tower_cycles, m.relin_cycles) == (
                cycles, towers, relin
            )
            assert m.relin_fidelity == "engine"

    def test_result_returns_before_later_batch_siblings_run(self, stack):
        bfv, keys, pairs = stack
        server = FheServer(pool_size=4, max_batch=WAVE, result_cache_size=0)
        sid = server.open_session(
            "t", serialize_params(PARAMS),
            relin_key=serialize_relin_key(keys.relin, PARAMS),
        )
        jids = [
            server.submit(sid, JobKind.MULTIPLY, _wire(pair))
            for pair in pairs
        ]
        server.result(jids[0])
        assert [server.status(j) for j in jids] == (
            [JobStatus.DONE] + [JobStatus.RUNNING] * (WAVE - 1)
        )

    def test_kth_job_waits_across_its_predecessors(self, stack):
        _, keys, pairs = stack
        server = FheServer(pool_size=4, max_batch=WAVE, result_cache_size=0)
        sid = server.open_session(
            "t", serialize_params(PARAMS),
            relin_key=serialize_relin_key(keys.relin, PARAMS),
        )
        jids = [
            server.submit(sid, JobKind.MULTIPLY, _wire(pair),
                          backend="software")
            for pair in pairs
        ]
        server.run()
        traces = [server.job_trace(j) for j in jids]
        for k in range(1, WAVE):
            waits = [s for s in traces[k].spans if s.phase == "batch_wait"]
            earlier = traces[k - 1]
            # The wait covers the predecessor's whole execution window.
            assert min(s.start for s in waits) <= earlier.spans[
                [s.phase for s in earlier.spans].index("execute")
            ].start
            assert max(s.end for s in waits) >= earlier.done_at
        for trace in traces:
            top = [s.phase for s in trace.spans if s.parent == -1]
            assert "keyswitch" in top and top.index("keyswitch") > top.index(
                "execute"
            )


class TestOverSocket:
    def test_events_stream_mid_batch_in_dispatch_order(self, stack):
        """Four SUBMITs land while the scheduler is held, so they form
        one batch; released, each completion EVENT goes out before the
        next job runs. The verdict reads trace timestamps, not wall-clock
        thresholds, so host speed cannot change it."""
        bfv, keys, pairs = stack
        fhe = FheServer(pool_size=4, max_batch=WAVE, result_cache_size=0)
        arrivals: list[str] = []

        async def scenario():
            async with FheTransportServer(fhe) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(host, port)
                sid = await client.open_session(
                    "t", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                server.pause_execution()
                jids = [
                    await client.submit(
                        sid, JobKind.MULTIPLY, _wire(pair),
                        on_done=lambda ev: arrivals.append(ev.job_id),
                    )
                    for pair in pairs
                ]
                server.resume_execution()
                results = [await client.result(j) for j in jids]
                await client.aclose()
            return jids, results

        jids, results = asyncio.run(scenario())
        for result, (a, b) in zip(results, pairs):
            assert result == serialize_ciphertext(
                bfv.multiply_relin(a, b, keys.relin)
            )
        order = sorted(jids, key=lambda j: fhe.job_metrics(j).dispatched_seq)
        assert len({fhe.job_metrics(j).batch_id for j in jids}) == 1
        assert arrivals == order

        def span(job_id, phase):
            return next(
                s for s in fhe.job_trace(job_id).spans
                if s.phase == phase and s.parent == -1
            )

        assert span(order[0], "reply").end < span(order[-1], "execute").start
