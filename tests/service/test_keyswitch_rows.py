"""No silent slow path: key rows are built once per uploaded key, and
every served key switch says which path it took.

The engine a params digest maps to is shared by *every* tenant on that
digest. Its NTT-form key rows used to sit in a 4-entry FIFO on that
shared engine, so a fifth key — a fifth tenant, or one tenant's relin
key plus four Galois keys — made every key switch re-transform its key
mid-job, with nothing in the metrics to show it. The rows now live on
the key objects themselves: built at ``open_session``, never while
serving. This suite pins both halves through the counters an operator
reads (``repro_keyswitch_row_builds_total``,
``repro_keyswitch_total{kind,path}``).
"""

import numpy as np
import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.keys import GaloisKey, RelinKey
from repro.bfv.rotation import RotationEngine, apply_galois_with_key
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import CircuitBuilder
from repro.service.jobs import JobKind
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_circuit,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.telemetry import MetricsRegistry

PARAMS = BfvParameters.toy_rns(
    n=16, towers=4, tower_bits=28, t=ntt_friendly_prime(16, 20)
)
TENANTS = 6
#: rotate_rows by 1 and by 2.
EXPONENTS = (3, 9)


def _counter(server: FheServer, name: str, **labels) -> float:
    return server.metrics.counter(name, **labels).value


@pytest.fixture(scope="module")
def tenants():
    """Six clients on one parameter set, each with its own keys."""
    out = []
    for i in range(TENANTS):
        bfv = Bfv(PARAMS, seed=100 + i)
        keys = bfv.keygen(relin_digit_bits=14)
        rotor = RotationEngine(bfv, keys.secret)
        encoder = BatchEncoder(PARAMS)
        cts = [
            serialize_ciphertext(
                bfv.encrypt(encoder.encode([i + j + 1] * PARAMS.n), keys.public)
            )
            for j in range(4)
        ]
        out.append((f"tenant{i}", keys, rotor, cts))
    return out


def _dense_circuit() -> bytes:
    b = CircuitBuilder("mul-rot")
    x, w = b.input("x"), b.input("w")
    acc = b.mul_relin(x, w)
    acc = b.add(acc, b.rotate_rows(acc, 2))
    b.output("y", acc)
    return serialize_circuit(b.build())


@pytest.mark.parametrize("backend", ("chip_pool", "software"))
def test_six_tenants_build_rows_once_and_serve_on_the_engine(tenants, backend):
    with FheServer(default_backend=backend) as server:
        sids = []
        for name, keys, rotor, _cts in tenants:
            sids.append(server.open_session(
                name, serialize_params(PARAMS),
                relin_key=serialize_relin_key(keys.relin, PARAMS),
                galois_keys=tuple(
                    serialize_galois_key(rotor.galois_key(e), PARAMS)
                    for e in EXPONENTS
                ),
            ))
        uploaded = TENANTS * (1 + len(EXPONENTS))
        builds = "repro_keyswitch_row_builds_total"
        assert _counter(server, builds) == uploaded
        # Re-opening a session with no new key material builds nothing.
        server.open_session(tenants[0][0], serialize_params(PARAMS))
        assert _counter(server, builds) == uploaded

        circuit = _dense_circuit()
        jobs = []
        for round_ in range(2):  # round-robin: every tenant, then again
            for sid, (_name, _keys, _rotor, cts) in zip(sids, tenants):
                a, b = cts[round_], cts[round_ + 2]
                jobs.append(server.submit(sid, JobKind.MULTIPLY, (a, b)))
                jobs.append(server.submit(
                    sid, JobKind.ROTATE, (a,), steps=1 + round_
                ))
                jobs.append(server.submit(
                    sid, JobKind.CIRCUIT, (a, b), payload=circuit
                ))
        for jid in jobs:
            server.result(jid)

        rounds = 2 * TENANTS
        total = "repro_keyswitch_total"
        assert _counter(server, builds) == uploaded
        assert _counter(server, total, kind="relin", path="engine") == 2 * rounds
        assert _counter(server, total, kind="galois", path="engine") == 2 * rounds
        assert _counter(server, total, kind="relin", path="scalar") == 0
        assert _counter(server, total, kind="galois", path="scalar") == 0
        text = server.stats_text()
        assert "# TYPE repro_keyswitch_total counter" in text
        assert "# TYPE repro_keyswitch_row_builds_total counter" in text


def test_switched_off_engine_is_visible_as_the_scalar_path(tenants, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "off")
    name, keys, rotor, cts = tenants[0]
    with FheServer(default_backend="software") as server:
        sid = server.open_session(
            name, serialize_params(PARAMS),
            relin_key=serialize_relin_key(keys.relin, PARAMS),
            galois_keys=(serialize_galois_key(rotor.galois_key(3), PARAMS),),
        )
        server.result(server.submit(sid, JobKind.MULTIPLY, (cts[0], cts[1])))
        server.result(server.submit(sid, JobKind.ROTATE, (cts[0],), steps=1))
        total = "repro_keyswitch_total"
        assert _counter(server, total, kind="relin", path="scalar") == 1
        assert _counter(server, total, kind="galois", path="scalar") == 1
        assert _counter(server, total, kind="relin", path="engine") == 0
        assert _counter(server, "repro_keyswitch_row_builds_total") == 0


class TestRowsLiveOnTheKey:
    @pytest.fixture()
    def keyed(self):
        bfv = Bfv(PARAMS, seed=9)
        bfv.metrics = MetricsRegistry()
        keys = bfv.keygen(relin_digit_bits=14)
        gkey = RotationEngine(bfv, keys.secret).galois_key(3)
        encoder = BatchEncoder(PARAMS)
        ct = bfv.encrypt(encoder.encode([5] * PARAMS.n), keys.public)
        return bfv, keys, gkey, ct

    def test_first_use_builds_then_holds(self, keyed):
        bfv, _keys, gkey, ct = keyed
        assert gkey.ntt_rows is None
        first = apply_galois_with_key(bfv, ct, gkey)
        moduli, rows = gkey.ntt_rows
        fold = bfv._fold_engine(gkey)
        assert moduli == fold.basis.moduli
        assert rows.dtype == np.uint32
        assert rows.shape == (2, gkey.num_digits, fold.num_towers, PARAMS.n)
        again = apply_galois_with_key(bfv, ct, gkey)
        assert gkey.ntt_rows[1] is rows
        assert [p.coeffs for p in first.polys] == [p.coeffs for p in again.polys]
        builds = bfv.metrics.counter("repro_keyswitch_row_builds_total")
        assert builds.value == 1

    def test_prewarm_is_idempotent_and_shared_across_schemes(self, keyed):
        bfv, keys, _gkey, _ct = keyed
        bfv.prewarm_keyswitch(keys.relin)
        rows = keys.relin.ntt_rows[1]
        bfv.prewarm_keyswitch(keys.relin)
        # A second scheme on the same parameters has the same auxiliary
        # basis, so it finds the rows instead of rebuilding them.
        Bfv(PARAMS, seed=1).prewarm_keyswitch(keys.relin)
        assert keys.relin.ntt_rows[1] is rows

    def test_rows_are_derived_data(self, keyed):
        """Held rows change neither equality nor hash nor repr, and a
        copy made from the fields starts without them."""
        bfv, keys, gkey, _ct = keyed
        twin = GaloisKey(
            rows=gkey.rows, digit_bits=gkey.digit_bits, exponent=gkey.exponent
        )
        bfv.prewarm_keyswitch(gkey)
        assert gkey.ntt_rows is not None and twin.ntt_rows is None
        assert gkey == twin and hash(gkey) == hash(twin)
        assert "ntt_rows" not in repr(gkey)
        assert RelinKey(keys.relin.rows, keys.relin.digit_bits) == keys.relin
