"""A warm chip replay executes the stream it is given.

After its first run, a driver computes a word-sized Algorithm 3 stream
with the MDMC's compiled program instead of command by command. That
program is the stream's, not a copy of Algorithm 3's dataflow: on a warmed pool,
a job whose stream has one PMODMUL reading the wrong buffer fails the
per-tower cross-check with "datapath fault", its first run cold and its
second warm, and so does a job whose iNTTs carry a wrong ``n^-1`` (the
same stream key, so it runs warm at once). Served with the real stream
again, the pool is bit-identical to in-process ``Bfv``.
"""

import random
from dataclasses import replace

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.core.driver import CofheeDriver
from repro.core.isa import Opcode
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.serialization import serialize_ciphertext

PARAMS = BfvParameters.toy_rns(64, 3, 30)


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=37)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(37)
    cts = [
        bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
            keys.public,
        )
        for _ in range(3)
    ]
    return bfv, keys, cts


def _broken(monkeypatch, patch):
    """Serve every Algorithm 3 stream with ``patch`` applied to it."""
    commands = CofheeDriver._alg3_commands

    def broken(self, *names):
        return patch(commands(self, *names))

    monkeypatch.setattr(CofheeDriver, "_alg3_commands", broken)


def _wrong_y(commands):
    """Y0' = A0' * A0' instead of A0' * B0'."""
    commands = list(commands)
    commands[2] = replace(commands[2], y_addr=commands[2].x_addr)
    assert commands[2].opcode is Opcode.PMODMUL
    return commands


def _wrong_n_inverse(commands):
    return [
        replace(c, constant=c.constant + 1) if c.opcode is Opcode.INTT else c
        for c in commands
    ]


@pytest.mark.parametrize("patch,new_streams", [(_wrong_y, 1),
                                               (_wrong_n_inverse, 0)])
def test_a_broken_stream_fails_warm(tenant, monkeypatch, patch, new_streams):
    bfv, keys, cts = tenant
    registry = SessionRegistry()
    backend = ChipPoolBackend(pool_size=1)
    scheduler = JobScheduler(
        registry, {"chip_pool": backend}, default="chip_pool",
    )
    session = registry.open_session("t", PARAMS, relin=keys.relin)
    driver = backend.workers[0].driver

    def serve(a, b):
        job = scheduler.submit(Job(
            session_id=session.session_id, tenant="t",
            kind=JobKind.MULTIPLY,
            operands=[
                registry.ingest_ciphertext(session, serialize_ciphertext(ct))
                for ct in (a, b)
            ],
        ))
        scheduler.run_all()
        return job

    for a, b in ((cts[0], cts[1]), (cts[1], cts[2])):
        assert serve(a, b).status is JobStatus.DONE
    assert len(driver._streams) == 1

    with monkeypatch.context() as m:
        _broken(m, patch)
        for a, b in ((cts[0], cts[2]), (cts[2], cts[0])):
            job = serve(a, b)
            assert job.status is JobStatus.FAILED
            assert "datapath fault" in job.error
            assert len(driver._streams) == 1 + new_streams

    job = serve(cts[2], cts[1])
    assert job.status is JobStatus.DONE
    assert job.result == serialize_ciphertext(
        bfv.multiply_relin(cts[2], cts[1], keys.relin)
    )
