"""Pool scaling: a bigger chip pool shortens the makespan, not the work.

Tower sharding runs every RNS tower of an EvalMult on its own home chip,
so the same traffic on more chips costs the same total cycles and
finishes sooner. Three sizes of the same claim:

* toy degree (tier-1): 6 EvalMult + 6 Add jobs on a 3-tower set through
  pools of 1, 2 and 4 — equal total cycles, a pool of 4 at least 1.5x
  shorter on the busiest worker, and the sum of per-job makespans
  strictly shrinking with each step up in pool size;
* the paper's small evaluation degree, n = 2^12 (tier-1, a few
  seconds): a pool of 4 at least 1.5x shorter than a pool of 1 with
  every tower executed through the worker drivers and the results
  bit-identical across pool sizes;
* the Section VI-B large configuration, n = 2^13 (``paper_scale``, run
  with ``--slow``): a 4-tower EvalMult sharded across every chip of a
  pool of 4, bit-identical to local ground truth.
"""

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.polymath.fastntt import RnsExactMultiplier
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.serialization import serialize_ciphertext

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


def _mults(operands):
    return [(JobKind.MULTIPLY, ops) for ops in operands]


def _run_pool(pool_size, params, keys, requests):
    """Serve ``(kind, operands)`` requests on a fresh pool; all must finish."""
    registry = SessionRegistry()
    backend = ChipPoolBackend(pool_size=pool_size)
    scheduler = JobScheduler(
        registry, {"chip_pool": backend}, default="chip_pool",
    )
    session = registry.open_session("paper", params, relin=keys.relin)
    jobs = [
        scheduler.submit(Job(
            session_id=session.session_id, tenant="paper",
            kind=job_kind, operands=list(ops),
        ))
        for job_kind, ops in requests
    ]
    stats = scheduler.run_all()
    assert all(j.status is JobStatus.DONE for j in jobs)
    return backend, stats, jobs


TOY_PARAMS = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)
TOY_MULTS = 6
TOY_ADDS = 6


@pytest.fixture(scope="module")
def toy_world():
    bfv = Bfv(TOY_PARAMS, seed=31337)
    keys = bfv.keygen(relin_digit_bits=12)
    encoder = BatchEncoder(TOY_PARAMS)
    rng = random.Random(3)
    ops = [
        (kind, tuple(
            bfv.encrypt(encoder.encode(
                [rng.randrange(32) for _ in range(TOY_PARAMS.n)]),
                keys.public)
            for _ in range(2)
        ))
        for kind, count in ((JobKind.MULTIPLY, TOY_MULTS),
                            (JobKind.ADD, TOY_ADDS))
        for _ in range(count)
    ]
    return keys, ops


def test_toy_pool_scaling_keeps_work_and_cuts_makespan(toy_world):
    keys, ops = toy_world
    pools = {size: _run_pool(size, TOY_PARAMS, keys, ops)
             for size in (1, 2, 4)}
    wall = {size: backend.wall_cycles for size, (backend, _, _) in pools.items()}
    makespan = {size: stats.makespan_cycles
                for size, (_, stats, _) in pools.items()}
    total = {backend.total_cycles for backend, _, _ in pools.values()}
    # The same work on any pool size (the chips don't get faster)...
    assert len(total) == 1, total
    # ...and >= 1.5x shorter on the busiest of 4 chips than on 1.
    assert wall[4] * 3 <= wall[1] * 2, wall
    # Summed per-job makespans: each EvalMult's key-switch tail is one
    # unit on one worker, so this view scales less, but every step up in
    # pool size must still shrink it.
    assert makespan[4] < makespan[2] < makespan[1], makespan
    # Every EvalMult ran all of its towers through worker drivers.
    for _, stats, jobs in pools.values():
        assert stats.fidelity["chip"] == TOY_MULTS, stats.fidelity
        assert len(jobs) == TOY_MULTS + TOY_ADDS
    results = {
        size: [job.result for job in jobs]
        for size, (_, _, jobs) in pools.items()
    }
    assert results[1] == results[2] == results[4]


@pytest.mark.parametrize("pool_size", [1, 2, 4])
def test_busiest_chip_bounds_the_per_job_makespan_sum(toy_world, pool_size):
    """The pool's two makespan views and its work, in order.

    A chip's busy cycles are its share of each job, never more than that
    job's makespan, so the busiest chip is at most the sum of per-job
    makespans; a job's makespan is at most its cycles, so that sum is at
    most the work. On one chip nothing overlaps and all three are equal.
    """
    keys, ops = toy_world
    backend, stats, _ = _run_pool(pool_size, TOY_PARAMS, keys, ops)
    assert all(r.makespan_cycles <= r.cycles for r in stats.batches)
    assert stats.total_cycles == backend.total_cycles
    views = (backend.wall_cycles, stats.makespan_cycles, backend.total_cycles)
    if pool_size == 1:
        assert len(set(views)) == 1, views
    else:
        assert views[0] <= views[1] < views[2], views


def test_pool_of_four_halves_paper_scale_makespan(paper_world):
    params, bfv, keys, operands = paper_world
    makespan = {}
    results = {}
    for size in (1, 4):
        backend, stats, jobs = _run_pool(size, params, keys, _mults(operands))
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
        results[size] = [job.result for job in jobs]
        # Work is conserved regardless of pool size.
        assert backend.total_cycles == sum(j.metrics.cycles for j in jobs)
    assert results[4] == results[1]
    # The acceptance bar: >= 1.5x shorter makespan on 4 chips.
    assert makespan[4] * 3 <= makespan[1] * 2, (
        f"pool-of-4 makespan {makespan[4]} is not >= 1.5x shorter than "
        f"pool-of-1 {makespan[1]}"
    )


PAPER_MULTS = 2


@pytest.mark.paper_scale
def test_paper_scale_evalmult_shards_across_the_pool():
    """EvalMult at n = 2^13, 4 towers, through a pool of 4 chips."""
    params = BfvParameters.toy_rns(n=2**13, towers=4, tower_bits=30)
    bfv = Bfv(params, seed=131)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(params)
    rng = random.Random(8)
    operands = [
        tuple(
            bfv.encrypt(encoder.encode(
                [rng.randrange(64) for _ in range(params.n)]), keys.public)
            for _ in range(2)
        )
        for _ in range(PAPER_MULTS)
    ]
    _, stats, jobs = _run_pool(4, params, keys, _mults(operands))
    # Every tensor executed chip-natively, tower-sharded across workers.
    assert stats.fidelity.get("chip") == PAPER_MULTS
    metrics = jobs[0].metrics
    assert len(metrics.tower_cycles) == params.cofhee_tower_count
    assert len(set(metrics.tower_workers)) == params.cofhee_tower_count
    # The served result is bit-for-bit local ground truth.
    expected = bfv.multiply_relin(*operands[0], keys.relin)
    assert jobs[0].result == serialize_ciphertext(expected)
