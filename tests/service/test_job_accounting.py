"""A job's cost is recorded once, on its ``JobMetrics``.

Backends settle jobs; the scheduler folds each settled job into
``ServiceStats``' running totals. These tests pin the direct
``execute_batch(batch_id, jobs, registry)`` call (the layer ladder's:
four jobs, each settled alone) and the accounting rules the fold keeps
across the chip pool, the software backend and a thread fleet: every
executed cycle counts, a failed job's too, and a job counts toward
``fidelity`` only when it is done and its backend named a path.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.core.driver import CofheeDriver
from repro.core.isa import Opcode
from repro.service.backends import ChipPoolBackend, SoftwareBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

PARAMS = BfvParameters.toy_rns(64, 3, 30)
WIDTH = 4


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=43)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(43)
    cts = [
        bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
            keys.public,
        )
        for _ in range(WIDTH + 1)
    ]
    return bfv, keys, cts


def _break_the_tensor_stream(monkeypatch):
    """Serve every Algorithm 3 stream with its first PMODMUL reading
    ``A0'`` twice, so the chip's tensor fails the mod-q cross-check."""
    alg3_commands = CofheeDriver._alg3_commands

    def broken(self, *names):
        commands = list(alg3_commands(self, *names))
        assert commands[2].opcode is Opcode.PMODMUL
        commands[2] = replace(commands[2], y_addr=commands[2].x_addr)
        return commands

    monkeypatch.setattr(CofheeDriver, "_alg3_commands", broken)


def _server_session(server, keys) -> str:
    return server.open_session(
        "t", serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )


@pytest.mark.parametrize("make", [lambda: ChipPoolBackend(pool_size=4),
                                  SoftwareBackend],
                         ids=["chip_pool_x4", "software"])
def test_execute_batch_settles_each_job_alone(tenant, make):
    bfv, keys, cts = tenant
    backend = make()
    registry = SessionRegistry()
    session = registry.open_session("t", PARAMS, relin=keys.relin)
    pairs = [(cts[i], cts[i + 1]) for i in range(WIDTH)]
    jobs = [
        Job(session_id=session.session_id, tenant="t",
            kind=JobKind.MULTIPLY, operands=[a, b])
        for a, b in pairs
    ]
    orphan = Job(session_id="no-such-session", tenant="t",
                 kind=JobKind.MULTIPLY, operands=list(pairs[0]))
    jobs.insert(2, orphan)

    assert backend.execute_batch(1, jobs, registry) is None

    assert orphan.status is JobStatus.FAILED
    assert orphan.metrics.backend == backend.name
    served = [job for job in jobs if job is not orphan]
    assert all(job.status is JobStatus.DONE for job in served)
    for job, (a, b) in zip(served, pairs):
        assert job.result == serialize_ciphertext(
            bfv.multiply_relin(a, b, keys.relin)
        )
    if isinstance(backend, ChipPoolBackend):
        assert sum(job.metrics.cycles for job in jobs) == backend.total_cycles
        assert orphan.metrics.cycles == 0


def test_totals_across_chip_pool_software_and_fleet(tenant):
    """One EvalMult per backend on one server: the chip pool counts its
    path and the relinearization's, the fleet job its worker's path
    only, the software backend nothing; every cycle is the pool's or
    the fleet's."""
    _, keys, cts = tenant
    wires = [serialize_ciphertext(ct) for ct in cts[:2]]
    with FheServer(pool_size=2, fleet_size=1, fleet_mode="thread",
                   result_cache_size=0) as server:
        sid = _server_session(server, keys)
        for backend in ("chip_pool", "software", "fleet"):
            jid = server.submit(sid, JobKind.MULTIPLY, wires, backend=backend)
            server.result(jid)
            assert server.status(jid) is JobStatus.DONE
        stats = server.scheduler.stats
        fleet = server.fleet_report()
        assert stats.fidelity == {"chip": 2, "relin_engine": 1}
        assert server.pool_report()["fidelity"] == stats.fidelity
        assert stats.total_cycles == (
            server.chip_pool.total_cycles + fleet["total_cycles"]
        )
        assert stats.makespan_cycles >= (
            server.chip_pool.wall_cycles + fleet["makespan_cycles"]
        )
        assert [b.jobs for b in stats.batches] == [1, 1, 1]


def test_a_failed_cross_check_counts_its_cycles_and_no_path(
        tenant, monkeypatch):
    _, keys, cts = tenant
    wires = [serialize_ciphertext(ct) for ct in cts[:2]]
    server = FheServer(pool_size=2, result_cache_size=0)
    sid = _server_session(server, keys)
    _break_the_tensor_stream(monkeypatch)
    jid = server.submit(sid, JobKind.MULTIPLY, wires)
    with pytest.raises(RuntimeError, match="datapath fault"):
        server.result(jid)
    pool, stats = server.chip_pool, server.scheduler.stats
    assert pool.total_cycles > 0
    assert stats.total_cycles == pool.total_cycles
    assert stats.makespan_cycles >= pool.wall_cycles
    assert stats.fidelity == {}
    assert server.pool_report()["tower_cycles"] == []


def test_a_failed_job_carries_the_cycles_it_added(tenant, monkeypatch):
    """The chip pool records a job's busy cycles on its metrics even when
    the job fails mid-replay."""
    _, keys, cts = tenant
    backend = ChipPoolBackend(pool_size=2)
    registry = SessionRegistry()
    session = registry.open_session("t", PARAMS, relin=keys.relin)
    job = Job(session_id=session.session_id, tenant="t",
              kind=JobKind.MULTIPLY, operands=cts[:2])
    _break_the_tensor_stream(monkeypatch)
    backend.execute_batch(0, [job], registry)
    assert job.status is JobStatus.FAILED
    assert "datapath fault" in job.error
    assert job.metrics.cycles == backend.total_cycles > 0
    assert job.metrics.makespan_cycles == backend.wall_cycles


def test_a_fleet_job_failing_on_its_worker_reports_its_cycles(
        tenant, monkeypatch):
    """A job that fails on a fleet worker's chip pool reports the busy
    cycles it added there, as the same job on an in-process pool does:
    the worker's failure EVENT carries them."""
    _, keys, cts = tenant
    wires = [serialize_ciphertext(ct) for ct in cts[:2]]
    _break_the_tensor_stream(monkeypatch)
    cycles = {}
    for backend, options in (("chip_pool", {"pool_size": 1}),
                             ("fleet", {"fleet_size": 1,
                                        "fleet_mode": "thread"})):
        with FheServer(result_cache_size=0, **options) as server:
            sid = _server_session(server, keys)
            jid = server.submit(sid, JobKind.MULTIPLY, wires, backend=backend)
            with pytest.raises(RuntimeError, match="datapath fault"):
                server.result(jid)
            cycles[backend] = server.job_metrics(jid).cycles
            assert server.scheduler.stats.total_cycles == cycles[backend]
            if backend == "fleet":
                assert server.fleet_report()["total_cycles"] == cycles[backend]
    assert cycles["fleet"] == cycles["chip_pool"] > 0
