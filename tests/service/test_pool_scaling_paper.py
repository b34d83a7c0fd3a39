"""Paper-scale pool scaling: n = 2^12, 3 towers, pool of 1 vs pool of 4.

The acceptance claim of the tower-sharding PR, at the paper's small
evaluation degree: on a 3-tower parameter set, a pool of 4 chips must
yield at least a 1.5x shorter EvalMult makespan than a pool of 1, with
every tower executed through ``CofheeDriver.ciphertext_multiply_rns``'s
per-tower path and the results bit-identical across pool sizes.

Part of tier-1: each pool run pushes real Algorithm 3 command streams
through the chip model at n = 2^12, and the whole test takes a few
seconds.
"""

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.polymath.fastntt import RnsExactMultiplier
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler

N = 2**12
TOWERS = 3
N_JOBS = 2


@pytest.fixture(scope="module")
def paper_world():
    params = BfvParameters.toy_rns(n=N, towers=TOWERS, tower_bits=30)
    # The client uses the vectorized exact multiplier: bit-identical to the
    # pure-Python path, fast enough for n = 2^12 key generation.
    bfv = Bfv(params, seed=2023,
              multiplier=RnsExactMultiplier(params.n, params.q))
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(params)
    rng = random.Random(46)
    operands = [
        (
            bfv.encrypt(encoder.encode(
                [rng.randrange(64) for _ in range(256)]), keys.public),
            bfv.encrypt(encoder.encode(
                [rng.randrange(64) for _ in range(256)]), keys.public),
        )
        for _ in range(N_JOBS)
    ]
    return params, bfv, keys, operands


def _run_pool(pool_size, params, keys, operands):
    registry = SessionRegistry()
    backend = ChipPoolBackend(pool_size=pool_size, strict_fidelity=True)
    scheduler = JobScheduler(
        registry, {"chip_pool": backend}, default="chip_pool",
    )
    session = registry.open_session("paper", params, relin=keys.relin)
    jobs = [
        scheduler.submit(Job(
            session_id=session.session_id, tenant="paper",
            kind=JobKind.MULTIPLY, operands=list(ops),
        ))
        for ops in operands
    ]
    stats = scheduler.run_all()
    assert all(j.status is JobStatus.DONE for j in jobs)
    return backend, stats, jobs


def test_pool_of_four_halves_paper_scale_makespan(paper_world):
    params, bfv, keys, operands = paper_world
    makespan = {}
    results = {}
    for size in (1, 4):
        backend, stats, jobs = _run_pool(size, params, keys, operands)
        for job in jobs:
            m = job.metrics
            # Every tower went through the worker's driver (Algorithm 3).
            assert m.fidelity == "chip"
            assert len(m.tower_cycles) == TOWERS
            assert all(c > 0 for c in m.tower_cycles)
            assert m.cycles == sum(m.tower_cycles) + m.relin_cycles
        # Conservative wall time: per-job makespans add (no overlap).
        makespan[size] = stats.makespan_cycles
        assert backend.wall_cycles <= stats.makespan_cycles
        results[size] = [
            [p.coeffs for p in job.result.polys] for job in jobs
        ]
        # Work is conserved regardless of pool size.
        assert backend.total_cycles == sum(j.metrics.cycles for j in jobs)
    assert results[4] == results[1]
    # The acceptance bar: >= 1.5x shorter makespan on 4 chips.
    assert makespan[4] * 3 <= makespan[1] * 2, (
        f"pool-of-4 makespan {makespan[4]} is not >= 1.5x shorter than "
        f"pool-of-1 {makespan[1]}"
    )
