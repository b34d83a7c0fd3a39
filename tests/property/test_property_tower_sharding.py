"""Property tests: tower sharding is invisible to results and accounting.

Three layers, from pure math up to the serving stack:

* **CRT sub-bases** — a sub-basis's residues are its parent's residues at
  the chosen towers.
* **Driver** — per-tower ``ciphertext_multiply_tower`` calls on one
  driver, recombined with ``RnsBasis.reconstruct_poly``, equal the
  software baseline's full-basis tensor, and each tower costs the
  one-tower Algorithm 3 cycles.
* **Chip pool** — any pool size produces the bit-identical ciphertext the
  sequential pool-of-1 produces, and every chip-path job's reported total
  equals the sum of its per-tower cycles plus the relinearization tail.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.software import SoftwareBfv
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.core.driver import CofheeDriver
from repro.polymath.rns import RnsBasis
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler

N = 16
#: Primes == 1 (mod 2N): every one supports the degree-16 negacyclic NTT.
_NTT_PRIMES = (97, 193, 257, 353, 449, 577, 641, 769, 929, 1153)


@st.composite
def bases(draw, max_towers=5):
    count = draw(st.integers(min_value=1, max_value=max_towers))
    moduli = draw(st.lists(
        st.sampled_from(_NTT_PRIMES), min_size=count, max_size=count,
        unique=True,
    ))
    return RnsBasis(moduli)


def _random_ct(data, basis):
    coeffs = st.lists(
        st.integers(min_value=0, max_value=basis.modulus - 1),
        min_size=N, max_size=N,
    )
    return (data.draw(coeffs), data.draw(coeffs))


class TestCrtSharding:
    @given(basis=bases(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sub_basis_residues_match_parent(self, basis, data):
        value = data.draw(st.integers(0, basis.modulus - 1))
        indices = data.draw(st.lists(
            st.integers(0, len(basis) - 1), min_size=1,
            max_size=len(basis), unique=True,
        ))
        sub = basis.sub_basis(indices)
        full = basis.decompose(value)
        assert sub.decompose(value % sub.modulus) == tuple(
            full[i] for i in indices
        )


class TestDriverTowerComposition:
    @given(basis=bases(max_towers=3), data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_per_tower_calls_compose_to_rns(self, basis, data):
        """Tower-by-tower execution on one driver (reprogrammed between
        towers) CRT-recombines to the full-basis tensor, and every tower
        costs one tower's Algorithm 3 cycles."""
        ct_a = _random_ct(data, basis)
        ct_b = _random_ct(data, basis)
        driver = CofheeDriver()
        towers = []
        for q in basis.moduli:
            outs, report = driver.ciphertext_multiply_tower(ct_a, ct_b, q)
            towers.append(outs)
            assert report.cycles == \
                driver.chip.timing.ciphertext_mult_cycles(N, 1)
        recombined = [
            basis.reconstruct_poly([tw[j] for tw in towers]) for j in range(3)
        ]
        assert recombined == SoftwareBfv(basis, N).ciphertext_multiply(
            ct_a, ct_b)


#: Module-level cache: (towers,) -> (params, bfv, keys, encoder). Keygen is
#: the expensive part of each example; the scheme objects are stateless
#: across examples so sharing them is safe.
_WORLDS: dict[int, tuple] = {}


def _world(towers: int):
    if towers not in _WORLDS:
        params = BfvParameters.toy_rns(n=N, towers=towers, tower_bits=20)
        bfv = Bfv(params, seed=1000 + towers)
        keys = bfv.keygen(relin_digit_bits=16)
        _WORLDS[towers] = (params, bfv, keys, BatchEncoder(params))
    return _WORLDS[towers]


class TestPoolInvariance:
    @given(
        towers=st.integers(2, 3),
        pool_size=st.integers(1, 4),
        n_jobs=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_pool_size_never_changes_results_and_cycles_add_up(
        self, towers, pool_size, n_jobs, data
    ):
        params, bfv, keys, encoder = _world(towers)
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        operands = [
            (
                bfv.encrypt(encoder.encode(
                    [rng.randrange(16) for _ in range(N)]), keys.public),
                bfv.encrypt(encoder.encode(
                    [rng.randrange(16) for _ in range(N)]), keys.public),
            )
            for _ in range(n_jobs)
        ]
        results = {}
        for size in (1, pool_size):
            registry = SessionRegistry()
            backend = ChipPoolBackend(pool_size=size)
            scheduler = JobScheduler(
                registry, {"chip_pool": backend}, default="chip_pool",
            )
            session = registry.open_session("prop", params, relin=keys.relin)
            jobs = [
                scheduler.submit(Job(
                    session_id=session.session_id, tenant="prop",
                    kind=JobKind.MULTIPLY, operands=list(ops),
                ))
                for ops in operands
            ]
            scheduler.run_all()
            for job in jobs:
                assert job.status is JobStatus.DONE
                m = job.metrics
                assert m.fidelity == "chip"
                assert len(m.tower_cycles) == towers
                # Per-tower cycles sum to the reported job total.
                assert m.cycles == sum(m.tower_cycles) + m.relin_cycles
            # Work is conserved: the pool total is the sum of job totals.
            assert backend.total_cycles == sum(j.metrics.cycles for j in jobs)
            assert backend.wall_cycles <= backend.total_cycles
            results[size] = [job.result for job in jobs]
        # Sharded execution is bit-identical to the sequential worker.
        assert results[pool_size] == results[1]
