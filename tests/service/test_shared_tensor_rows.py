"""One Eq. 4 tensor per EvalMult: the chip pool reads the scheme's rows.

``Bfv.multiply``/``square`` run the tensor on an auxiliary basis that
leads with q's own word-sized towers, so the tensor's first ``L_q`` rows
are the operand residues a chip replaying tower ``i`` loads and the
mod-``q_i`` outputs it must read back. The chip pool takes those rows
through the tensor hook instead of recomputing a second tensor, and still
cross-checks every tower of every job against them.
"""

import math
import random

import numpy as np
import pytest

from repro.baselines.software import SoftwareBfv
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.scheme import _ExactMultiplier
from repro.polymath.fastntt import RnsExactMultiplier
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.serialization import (
    deserialize_ciphertext,
    serialize_ciphertext,
)

N = 64


@pytest.mark.parametrize("bits", (27, 28, 29, 30))
def test_aux_basis_leads_with_q_towers(bits):
    params = BfvParameters.toy_rns(4096, 3, bits)
    mult = Bfv(params)._mult_ctx
    moduli = mult.basis.moduli
    assert isinstance(mult, RnsExactMultiplier)
    assert mult.q_towers == 3
    assert moduli[:3] == params.cofhee_basis.moduli
    assert all(
        math.gcd(a, b) == 1
        for i, a in enumerate(moduli) for b in moduli[i + 1:]
    )
    # The basis still carries the exact Eq. 4 product.
    bound = 2 * params.n * (params.q // 2 + 1) ** 2
    assert bound < mult.basis.modulus // 2


def test_wide_towers_do_not_lead():
    params = BfvParameters.toy(n=16, log_q=80)
    mult = Bfv(params)._mult_ctx
    assert mult.q_towers == 0
    assert mult.basis == mult.tensor_engine.basis


@pytest.fixture(scope="module", params=(20, 28, 30))
def tenant(request):
    params = BfvParameters.toy_rns(N, 3, request.param)
    bfv = Bfv(params, seed=request.param)
    keys = bfv.keygen(relin_digit_bits=request.param)
    encoder = BatchEncoder(params)
    rng = random.Random(request.param)
    cts = [
        bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(N)]),
            keys.public,
        )
        for _ in range(2)
    ]
    exact = Bfv(params, multiplier=_ExactMultiplier(params.n, params.q))
    return params, bfv, keys, cts, exact


def _wire(ct, params):
    """The ciphertext as the server sees it: decoded from wire bytes."""
    return deserialize_ciphertext(serialize_ciphertext(ct), params)


class TestBitIdentity:
    def test_multiply_square_multiply_relin(self, tenant):
        params, bfv, keys, (a, b), exact = tenant
        for x, y in ((a, b), (_wire(a, params), _wire(b, params))):
            assert bfv.multiply(x, y).polys == exact.multiply(a, b).polys
            assert bfv.square(x).polys == exact.square(a).polys
            assert (
                bfv.multiply_relin(x, y, keys.relin).polys
                == exact.multiply_relin(a, b, keys.relin).polys
            )

    def test_head_rows_are_the_chip_loads_and_products(self, tenant):
        params, bfv, _keys, (a, b), _exact = tenant
        basis = params.cofhee_basis
        shared = []
        bfv.multiply(
            _wire(a, params), _wire(b, params),
            on_rows=lambda *rows: shared.append(rows),
        )
        bfv.square(a, on_rows=lambda *rows: shared.append(rows))
        reference = SoftwareBfv(basis, params.n)
        coeffs = lambda ct: tuple(p.coeffs for p in ct.polys)
        for (operands, outputs), (ca, cb) in zip(
            shared, ((coeffs(a), coeffs(b)), (coeffs(a), coeffs(a)))
        ):
            want_ops, want_outs = reference.tensor_towers(ca, cb)
            assert operands.shape == (4, len(basis), params.n)
            assert outputs.shape == (3, len(basis), params.n)
            assert np.array_equal(operands, want_ops.astype(np.int64))
            assert np.array_equal(outputs, want_outs.astype(np.int64))


def _serve(params, keys, operands, kind=JobKind.MULTIPLY):
    registry = SessionRegistry()
    backend = ChipPoolBackend(pool_size=2)
    scheduler = JobScheduler(
        registry, {"chip_pool": backend}, default="chip_pool",
    )
    session = registry.open_session("t", params, relin=keys.relin)
    job = scheduler.submit(Job(
        session_id=session.session_id, tenant="t", kind=kind,
        operands=[registry.ingest_ciphertext(session, serialize_ciphertext(ct))
                  for ct in operands],
    ))
    return backend, scheduler, job


@pytest.fixture
def tensor_tower_calls(monkeypatch):
    calls = []
    original = SoftwareBfv.tensor_towers

    def spy(self, ct_a, ct_b):
        calls.append(self.basis)
        return original(self, ct_a, ct_b)

    monkeypatch.setattr(SoftwareBfv, "tensor_towers", spy)
    return calls


class TestChipPool:
    @pytest.fixture(scope="class")
    def tenant28(self):
        params = BfvParameters.toy_rns(N, 3, 28)
        bfv = Bfv(params, seed=28)
        keys = bfv.keygen(relin_digit_bits=28)
        encoder = BatchEncoder(params)
        cts = [
            bfv.encrypt(encoder.encode(list(range(i, i + N))), keys.public)
            for i in (1, 5)
        ]
        return params, bfv, keys, cts

    @pytest.mark.parametrize("kind", [JobKind.MULTIPLY, JobKind.SQUARE])
    def test_one_tensor_per_job(self, tenant28, tensor_tower_calls, kind):
        params, bfv, keys, cts = tenant28
        operands = cts if kind is JobKind.MULTIPLY else cts[:1]
        _, scheduler, job = _serve(params, keys, operands, kind)
        scheduler.run_all()
        assert job.status is JobStatus.DONE
        assert job.metrics.fidelity == "chip"
        assert tensor_tower_calls == []
        a, b = operands[0], operands[-1]
        want = (
            bfv.multiply_relin(a, b, keys.relin)
            if kind is JobKind.MULTIPLY
            else bfv.relinearize(bfv.square(a), keys.relin)
        )
        assert job.result == serialize_ciphertext(want)

    def test_wide_towers_still_use_the_pure_reference(self, tensor_tower_calls):
        """Towers wider than 30 bits have no engine rows to share: the
        pure-Python per-tower reference is what the chip is checked
        against there."""
        params = BfvParameters.toy(n=16, log_q=80)
        bfv = Bfv(params, seed=1)
        keys = bfv.keygen(relin_digit_bits=12)
        encoder = BatchEncoder(params)
        cts = [bfv.encrypt(encoder.encode([i, 2]), keys.public) for i in (1, 3)]
        _, scheduler, job = _serve(params, keys, cts)
        scheduler.run_all()
        assert job.status is JobStatus.DONE
        assert job.metrics.fidelity == "chip"
        assert tensor_tower_calls == [params.cofhee_basis]

    @pytest.mark.parametrize("kind", [JobKind.MULTIPLY, JobKind.SQUARE])
    def test_datapath_fault_against_the_head_rows(
        self, tenant28, tensor_tower_calls, monkeypatch, kind
    ):
        """One flipped readback word still trips the cross-check when the
        reference is the scheme's own tensor rows."""
        params, _bfv, keys, cts = tenant28
        operands = cts if kind is JobKind.MULTIPLY else cts[:1]
        backend, scheduler, job = _serve(params, keys, operands, kind)
        for worker in backend.workers:
            driver = worker.driver
            read_words = driver.read_words

            def corrupted(name, read_words=read_words):
                words, seconds = read_words(name)
                words[-1] ^= 1
                return words, seconds

            monkeypatch.setattr(driver, "read_words", corrupted)
        scheduler.run_all()
        assert job.status is JobStatus.FAILED
        assert "datapath fault" in job.error
        assert tensor_tower_calls == []
