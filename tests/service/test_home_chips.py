"""Home chips: every tower of a modulus runs on the chip holding its table.

CoFHEE downloads one twiddle table per modulus and runs both NTT and
iNTT from it (Sections III-J and VIII-B). The chip pool gives each
``(q_i, n)`` a sticky home the first time it sees it — the worker homing
the fewest tables, then the fewest busy cycles, then the lowest index —
so after warm-up a chip's twiddle downloads
(``pool_report()["reprograms"]``) equal the number of moduli homed on
it, and placement never changes a result byte.
"""

import random
from collections import Counter

import pytest

from repro.apps.cryptonets import MiniCryptoNets
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import evaluate_circuit
from repro.service.jobs import JobKind
from repro.service.serialization import (
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

RNS3 = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)
#: A second 3-tower set on moduli disjoint from ``RNS3``'s.
RNS3_WIDE = BfvParameters.toy_rns(n=16, towers=3, tower_bits=24)


class _Tenant:
    """A client's keys and fresh ciphertexts, plus its session on a server."""

    def __init__(self, params, seed):
        self.params = params
        self.bfv = Bfv(params, seed=seed)
        self.keys = self.bfv.keygen(relin_digit_bits=16)
        self.encoder = BatchEncoder(params)
        self.rng = random.Random(seed)

    def fresh(self):
        return self.bfv.encrypt(
            self.encoder.encode(
                [self.rng.randrange(16) for _ in range(self.params.n)]
            ),
            self.keys.public,
        )

    def open(self, server, name):
        self.sid = server.open_session(
            name, serialize_params(self.params),
            relin_key=serialize_relin_key(self.keys.relin, self.params),
        )

    def submit_multiply(self, server):
        a, b = self.fresh(), self.fresh()
        jid = server.submit(
            self.sid, JobKind.MULTIPLY,
            (serialize_ciphertext(a), serialize_ciphertext(b)),
        )
        expected = serialize_ciphertext(
            self.bfv.multiply_relin(a, b, self.keys.relin)
        )
        return jid, expected


def _homed_per_chip(server):
    """How many ``(q, n)`` tables each chip of the pool is home to."""
    pool = server.chip_pool
    homed = Counter(pool._homes.values())
    return [homed[w.index] for w in pool.workers]


def test_evalmult_stream_downloads_each_table_once():
    server = FheServer(pool_size=4, result_cache_size=0)
    tenant = _Tenant(RNS3, seed=41)
    tenant.open(server, "t")
    for round_ in range(8):
        jid, expected = tenant.submit_multiply(server)
        assert server.result(jid) == expected
        if round_ == 0:
            warm = server.pool_report()["reprograms"]
    report = server.pool_report()
    # One home per tower, on three different chips; the fourth takes
    # the key-switch tails.
    assert _homed_per_chip(server) == [1, 1, 1, 0]
    assert report["reprograms"] == warm == _homed_per_chip(server)
    assert report["fidelity"]["chip"] == 8
    assert report["per_worker_cycles"][3] > 0


def test_app_circuit_towers_stay_home():
    """A multi-tensor circuit (CryptoNets: 12 tensor steps) on a 3-tower
    set over 4 chips: 36 tower units per inference, 3 downloads in all,
    and the outputs byte-identical to in-process evaluation."""
    params = BfvParameters.toy_rns(
        n=16, towers=3, tower_bits=30, t=ntt_friendly_prime(16, 20)
    )
    model = MiniCryptoNets(params=params, seed=7)
    rng = random.Random(32)
    images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(3)]
    circuit = model.to_circuit()
    assert len(circuit.tensor_steps) == 12
    inputs = model.encrypt_images(images)
    wire_inputs = tuple(serialize_ciphertext(ct) for ct in inputs)
    reference = evaluate_circuit(model.bfv, model.keys.relin, circuit, inputs)

    server = FheServer(pool_size=4, result_cache_size=0)
    sid = server.open_session(
        "nets", serialize_params(params),
        relin_key=serialize_relin_key(model.keys.relin, params),
    )
    for _ in range(2):
        jid = server.submit(
            sid, JobKind.CIRCUIT, wire_inputs, payload=circuit,
        )
        outs = deserialize_circuit_outputs(server.result(jid), params)
        for name, ct in reference.items():
            assert serialize_ciphertext(outs[name]) == (
                serialize_ciphertext(ct)
            )
        metrics = server.job_metrics(jid)
        assert metrics.fidelity == "chip"
        assert len(metrics.tower_workers) == 3
    assert _homed_per_chip(server) == [1, 1, 1, 0]
    assert server.pool_report()["reprograms"] == [1, 1, 1, 0]


def test_two_tenants_spread_six_homes_over_four_chips():
    """Two 3-tower tenants: the first job's towers home on chips 0-2, the
    second tenant's first tower on the chip homing none, and the last
    two on the least busy of the rest — homes spread 2/2/1/1. Only the
    chips homing two tables download again, once per switch."""
    server = FheServer(pool_size=4, result_cache_size=0)
    tenants = [_Tenant(RNS3, seed=51), _Tenant(RNS3_WIDE, seed=52)]
    assert not set(RNS3.q_basis.moduli) & set(RNS3_WIDE.q_basis.moduli)
    for i, tenant in enumerate(tenants):
        tenant.open(server, f"t{i}")
    rounds = 4
    for _ in range(rounds):
        pending = [tenant.submit_multiply(server) for tenant in tenants]
        for jid, expected in pending:
            assert server.result(jid) == expected
    homed = _homed_per_chip(server)
    assert sorted(homed) == [1, 1, 2, 2]
    reprograms = server.pool_report()["reprograms"]
    for count, downloads in zip(homed, reprograms):
        if count == 1:
            assert downloads == 1
        else:
            # Alternating tenants: every tower unit switches tables.
            assert downloads == rounds * count


@pytest.mark.parametrize("pool_size", [1, 2, 5])
def test_every_modulus_has_one_home(pool_size):
    server = FheServer(pool_size=pool_size, result_cache_size=0)
    tenant = _Tenant(RNS3, seed=61)
    tenant.open(server, "t")
    for _ in range(2):
        jid, expected = tenant.submit_multiply(server)
        assert server.result(jid) == expected
    homes = server.chip_pool._homes
    assert set(homes) == {(q, RNS3.n) for q in RNS3.q_basis.moduli}
    homed = _homed_per_chip(server)
    # Fewest-homed first: the homes never differ by more than one table.
    assert max(homed) - min(homed) <= 1
    if pool_size >= 3:
        assert sum(server.pool_report()["reprograms"]) == 3
