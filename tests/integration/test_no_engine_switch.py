"""There is no engine switch: ``REPRO_ENGINE=off`` changes no path and no bit.

Engine selection is purely capability-based. The pure-Python paths stay
reachable only where the moduli demand them, or explicitly (``Bfv(params,
multiplier=_ExactMultiplier(n, q))``), never through the environment.
"""

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.core import mdmc
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.serialization import serialize_ciphertext

PARAMS = BfvParameters.toy_rns(64, 3, 28)


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=5)
    keys = bfv.keygen(relin_digit_bits=28)
    encoder = BatchEncoder(PARAMS)
    cts = [
        bfv.encrypt(encoder.encode(list(range(i, i + PARAMS.n))), keys.public)
        for i in (2, 9)
    ]
    return keys, cts


@pytest.fixture
def ntt_calls(monkeypatch):
    """Count the MDMC's vector-fidelity forward NTT kernel calls."""
    calls = []
    original = mdmc.transform

    def spy(a, tables):
        if not tables.inverse:
            calls.append(a.shape)
        return original(a, tables)

    monkeypatch.setattr(mdmc, "transform", spy)
    return calls


def _chip_multiply(keys, cts):
    """One EvalMult+relin on a fresh chip pool: (result bytes, metrics)."""
    registry = SessionRegistry()
    scheduler = JobScheduler(
        registry, {"chip_pool": ChipPoolBackend(pool_size=2)},
        default="chip_pool",
    )
    session = registry.open_session("t", PARAMS, relin=keys.relin)
    job = scheduler.submit(Job(
        session_id=session.session_id, tenant="t", kind=JobKind.MULTIPLY,
        operands=[
            registry.ingest_ciphertext(session, serialize_ciphertext(ct))
            for ct in cts
        ],
    ))
    scheduler.run_all()
    assert job.status is JobStatus.DONE
    return job.result, job.metrics


@pytest.mark.parametrize("value", ["off", "0", "disabled"])
def test_environment_changes_nothing(tenant, ntt_calls, monkeypatch, value):
    keys, cts = tenant
    want_bytes, want = _chip_multiply(keys, cts)
    engine_calls = len(ntt_calls)
    assert engine_calls > 0

    monkeypatch.setenv("REPRO_ENGINE", value)
    assert Bfv(PARAMS).multiplier_kind == "RnsExactMultiplier"
    got_bytes, got = _chip_multiply(keys, cts)
    assert got_bytes == want_bytes
    assert got.fidelity == want.fidelity == "chip"
    assert got.cycles == want.cycles
    assert got.tower_cycles == want.tower_cycles
    # The MDMC still took its vector kernels, once per forward NTT.
    assert len(ntt_calls) == 2 * engine_calls
