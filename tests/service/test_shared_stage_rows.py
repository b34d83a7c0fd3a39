"""One derivation of the NTT kernel's tables per twiddle table, shared
across the pool.

Every chip of a pool that holds the same ``(q, n)`` twiddle table runs
its vector NTT/iNTT from one pair of kernel tables (forward and
inverse), derived once per process from the words the MDMC reads out of
the twiddle bank and keyed on ``q`` and those words. The key is the
bank's content, so a corrupted table derives tables of its own and the
per-tower cross-check catches it, and a bank promoted to ``object``
dtype by a wide-modulus session still keys on its values.
"""

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.core import mdmc
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_relin_key,
)
from repro.service.server import FheServer

N = 64


def _tenant(params, seed, digit_bits):
    bfv = Bfv(params, seed=seed)
    keys = bfv.keygen(relin_digit_bits=digit_bits)
    encoder = BatchEncoder(params)
    rng = random.Random(seed)
    cts = [
        bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(params.n)]),
            keys.public,
        )
        for _ in range(4)
    ]
    return bfv, keys, cts


class _Pool:
    """A chip pool behind a scheduler, serving EvalMult jobs."""

    def __init__(self, pool_size):
        self.registry = SessionRegistry()
        self.backend = ChipPoolBackend(pool_size=pool_size)
        self.scheduler = JobScheduler(
            self.registry, {"chip_pool": self.backend}, default="chip_pool",
        )

    def open(self, params, keys):
        return self.registry.open_session("t", params, relin=keys.relin)

    def multiply(self, session, a, b):
        job = self.scheduler.submit(Job(
            session_id=session.session_id, tenant="t",
            kind=JobKind.MULTIPLY,
            operands=[
                self.registry.ingest_ciphertext(
                    session, serialize_ciphertext(ct)
                )
                for ct in (a, b)
            ],
        ))
        self.scheduler.run_all()
        return job


@pytest.fixture
def table_builds(monkeypatch):
    """``(q, n)`` of every MDMC table derivation, from an empty cache."""
    mdmc._shared_tables.cache_clear()
    builds = []
    original = mdmc.NttTables

    class Spy:
        @staticmethod
        def derive(psi_brv, q, inverse=False, scale=None):
            if not inverse:
                builds.append((q[0], psi_brv.shape[-1]))
            return original.derive(psi_brv, q, inverse, scale)

    monkeypatch.setattr(mdmc, "NttTables", Spy)
    yield builds
    mdmc._shared_tables.cache_clear()


def test_one_derivation_per_table_across_the_pool(table_builds):
    """Served EvalMults home 3 towers on 2 chips, so one chip alternates
    two twiddle tables and reprograms on every tower unit; the tables
    are still derived once per distinct ``(q, n)``."""
    params = BfvParameters.toy_rns(N, 3, 30)
    bfv, keys, cts = _tenant(params, 30, 30)
    pool = _Pool(pool_size=2)
    session = pool.open(params, keys)
    jobs = 6
    for i in range(jobs):
        a, b = cts[i % 4], cts[(i + 1) % 4]
        job = pool.multiply(session, a, b)
        assert job.status is JobStatus.DONE
        assert job.result == serialize_ciphertext(
            bfv.multiply_relin(a, b, keys.relin)
        )
    tables = {(q, N) for q in params.q_basis.moduli}
    assert sorted(table_builds) == sorted(tables)
    reprograms = [w.driver.reprograms for w in pool.backend.workers]
    assert sum(reprograms) > len(tables)  # the churn the cache survives


def test_corrupted_twiddle_word_trips_the_cross_check(table_builds):
    """One twiddle word overwritten through the bus on a programmed chip:
    the next tower unit runs on tables derived from the corrupted
    table, fails with a datapath fault and returns no result.
    Reprogramming restores the table, and the good tables are still
    shared."""
    params = BfvParameters.toy_rns(N, 1, 30)
    bfv, keys, cts = _tenant(params, 31, 30)
    pool = _Pool(pool_size=1)
    session = pool.open(params, keys)
    assert pool.multiply(session, cts[0], cts[1]).status is JobStatus.DONE
    chip = pool.backend.workers[0].chip
    q = params.q_basis.moduli[0]
    assert pool.backend.workers[0].driver.programmed == (q, N)
    word = chip.memory_map.base_address("TWD") + 16  # table entry 1
    value, _ = chip.bus.single_read(word)
    chip.bus.single_write(word, (value + 1) % q)

    job = pool.multiply(session, cts[2], cts[3])
    assert job.status is JobStatus.FAILED
    assert "datapath fault" in job.error
    assert job.result is None
    assert table_builds == [(q, N), (q, N)]  # the corrupted table's own

    pool.backend.workers[0].driver.program(q, N)
    job = pool.multiply(session, cts[2], cts[3])
    assert job.status is JobStatus.DONE
    assert job.result == serialize_ciphertext(
        bfv.multiply_relin(cts[2], cts[3], keys.relin)
    )
    assert len(table_builds) == 2


def test_object_dtype_twiddle_bank_then_word_sized_session():
    """A wide-modulus session promotes the chip's banks to ``object``
    dtype for good; a 30-bit session on the same pool afterwards keys
    its kernel tables on the values, not on the object array's pointers."""
    server = FheServer(pool_size=1, result_cache_size=0)
    chip = server.chip_pool.workers[0].chip
    for params, digit_bits in (
        (BfvParameters.toy(n=16, log_q=80), 12),
        (BfvParameters.toy_rns(16, 3, 30), 30),
    ):
        bfv, keys, cts = _tenant(params, 80 + digit_bits, digit_bits)
        session = server.open_session(
            "t", params, relin_key=serialize_relin_key(keys.relin, params),
        )
        for a, b in ((cts[0], cts[1]), (cts[2], cts[3])):
            job_id = server.submit(
                session, JobKind.MULTIPLY,
                (serialize_ciphertext(a), serialize_ciphertext(b)),
            )
            assert server.result(job_id) == serialize_ciphertext(
                bfv.multiply_relin(a, b, keys.relin)
            )
        assert chip.memory_map.bank("TWD").data.dtype == object
    report = server.pool_report()
    assert report["fidelity"]["chip"] == 4
    # The wide tower's first unit, then at least the 30-bit session's
    # first three.
    assert report["reprograms"][0] >= 4
