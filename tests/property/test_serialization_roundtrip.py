"""Property tests: the wire format round-trips bit-exactly.

For every supported object and across three parameter sets,
``deserialize(serialize(x)) == x`` — plus negative cases: corrupted
bytes, truncation, wrong type tags, and cross-params digests are all
rejected before any polynomial math happens.
"""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import Bfv, BfvParameters
from repro.bfv.rotation import RotationEngine
from repro.polymath.poly import PolynomialRing
from repro.service import serialization
from repro.service.serialization import (
    ParamsMismatchError,
    WireFormatError,
    deserialize_ciphertext,
    deserialize_galois_key,
    deserialize_params,
    deserialize_polynomial,
    deserialize_public_key,
    deserialize_relin_key,
    params_digest,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_polynomial,
    serialize_public_key,
    serialize_relin_key,
)

#: Three distinct parameter sets (the acceptance criterion's >= 3).
PARAM_SETS = [
    BfvParameters.toy(n=16, log_q=60),
    BfvParameters.toy(n=32, log_q=80),
    BfvParameters.toy(n=64, log_q=45),
]
PARAM_IDS = [f"n{p.n}_logq{p.log_q}" for p in PARAM_SETS]


@pytest.fixture(scope="module", params=PARAM_SETS, ids=PARAM_IDS)
def stack(request):
    params = request.param
    bfv = Bfv(params, seed=0xC0F4EE)
    keys = bfv.keygen(relin_digit_bits=12)
    return params, bfv, keys


class TestRoundTrip:
    def test_params(self, stack):
        params, _, _ = stack
        recovered = deserialize_params(serialize_params(params))
        assert recovered == params
        assert params_digest(recovered) == params_digest(params)

    def test_params_digest_encodes_each_set_once(self, stack, monkeypatch):
        """An equal set built apart reuses the digest; ``sigma`` ``0.0``
        and ``-0.0``, equal but encoded apart, each get their own."""
        params, _, _ = stack
        recovered = deserialize_params(serialize_params(params))
        body = serialization._params_body
        encoded = []
        monkeypatch.setattr(serialization, "_params_body",
                            lambda p: encoded.append(p) or body(p))
        serialization._params_digest.cache_clear()
        digest = hashlib.sha256(body(params)).digest()
        for p in (params, recovered, params):
            assert params_digest(p) == digest
        assert encoded == [params]
        zero, negative = (replace(params, sigma=s) for s in (0.0, -0.0))
        assert zero == negative
        for p in (zero, negative):
            assert params_digest(p) == hashlib.sha256(body(p)).digest()
        assert params_digest(zero) != params_digest(negative)

    def test_polynomial_random_sweep(self, stack):
        params, _, _ = stack
        ring = PolynomialRing(params.n, params.q, allow_non_ntt=True)
        rng = random.Random(7)
        for _ in range(25):
            poly = ring.random(rng)
            assert deserialize_polynomial(serialize_polynomial(poly)) == poly

    def test_polynomial_edge_values(self, stack):
        params, _, _ = stack
        ring = PolynomialRing(params.n, params.q, allow_non_ntt=True)
        for poly in (ring.zero(), ring.one(), ring([params.q - 1] * params.n)):
            assert deserialize_polynomial(serialize_polynomial(poly)) == poly

    def test_ciphertext_random_sweep(self, stack):
        params, bfv, keys = stack
        pt_ring = PolynomialRing(params.n, params.t, allow_non_ntt=True)
        rng = random.Random(13)
        for _ in range(10):
            ct = bfv.encrypt(pt_ring.random(rng), keys.public)
            wire = serialize_ciphertext(ct)
            recovered = deserialize_ciphertext(wire, params)
            assert recovered == ct
            # Determinism: re-serializing yields identical bytes.
            assert serialize_ciphertext(recovered) == wire

    def test_three_component_ciphertext(self, stack):
        """The Eq. 4 tensor output (size 3) round-trips too."""
        params, bfv, keys = stack
        pt_ring = PolynomialRing(params.n, params.t, allow_non_ntt=True)
        rng = random.Random(17)
        ct = bfv.multiply(
            bfv.encrypt(pt_ring.random(rng), keys.public),
            bfv.encrypt(pt_ring.random(rng), keys.public),
        )
        assert ct.size == 3
        assert deserialize_ciphertext(serialize_ciphertext(ct), params) == ct

    def test_public_key(self, stack):
        params, _, keys = stack
        wire = serialize_public_key(keys.public, params)
        assert deserialize_public_key(wire, params) == keys.public

    def test_relin_key(self, stack):
        params, _, keys = stack
        wire = serialize_relin_key(keys.relin, params)
        assert deserialize_relin_key(wire, params) == keys.relin

    def test_galois_key(self, stack):
        params, bfv, keys = stack
        engine = RotationEngine(bfv, keys.secret, digit_bits=12)
        key = engine.galois_key(pow(3, 1, 2 * params.n))
        wire = serialize_galois_key(key, params)
        recovered = deserialize_galois_key(wire, params)
        assert recovered == key

    def test_ciphertext_to_bytes_hook(self, stack):
        """The Ciphertext.to_bytes/from_bytes convenience hooks agree."""
        params, bfv, keys = stack
        pt_ring = PolynomialRing(params.n, params.t, allow_non_ntt=True)
        ct = bfv.encrypt(pt_ring.random(random.Random(3)), keys.public)
        assert type(ct).from_bytes(ct.to_bytes(), params) == ct


class TestRejection:
    @pytest.fixture(scope="class")
    def wire_ct(self):
        params = PARAM_SETS[0]
        bfv = Bfv(params, seed=5)
        keys = bfv.keygen(relin_digit_bits=14)
        ring = PolynomialRing(params.n, params.t, allow_non_ntt=True)
        ct = bfv.encrypt(ring.random(random.Random(5)), keys.public)
        return params, serialize_ciphertext(ct)

    @given(position=st.integers(min_value=0, max_value=10_000), flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_corrupted_bytes_rejected(self, wire_ct, position, flip):
        """Flipping ANY byte anywhere in the message must be detected."""
        params, wire = wire_ct
        position %= len(wire)
        corrupted = bytearray(wire)
        corrupted[position] ^= flip
        with pytest.raises(WireFormatError):
            deserialize_ciphertext(bytes(corrupted), params)

    def test_wrong_params_digest_rejected(self, wire_ct):
        _, wire = wire_ct
        with pytest.raises(ParamsMismatchError):
            deserialize_ciphertext(wire, PARAM_SETS[1])

    def test_truncation_rejected(self, wire_ct):
        params, wire = wire_ct
        for cut in (1, 5, len(wire) // 2, len(wire) - 1):
            with pytest.raises(WireFormatError):
                deserialize_ciphertext(wire[:cut], params)

    def test_wrong_tag_rejected(self, wire_ct):
        params, wire = wire_ct
        with pytest.raises(WireFormatError):
            deserialize_relin_key(wire, params)

    def test_bad_magic_rejected(self, wire_ct):
        params, wire = wire_ct
        with pytest.raises(WireFormatError):
            deserialize_ciphertext(b"NOPE" + wire[4:], params)

    def test_trailing_garbage_rejected(self, wire_ct):
        params, wire = wire_ct
        with pytest.raises(WireFormatError):
            deserialize_ciphertext(wire + b"\x00", params)


class TestBoundedRingCaches:
    """Rings keyed by client-chosen wire values stay LRU-bounded."""

    def test_decode_ring_cache_stays_bounded(self):
        from repro.service.serialization import _ring

        rng = random.Random(11)
        for i in range(100):
            q = 1000 + 7 * i
            ring = PolynomialRing(4, q, allow_non_ntt=True)
            poly = ring([rng.randrange(q) for _ in range(4)])
            assert deserialize_polynomial(serialize_polynomial(poly)) == poly
            assert _ring.cache_info().currsize <= 64

    def test_plain_ring_cache_stays_bounded(self):
        from repro.service.circuits import _plain_ring

        for t in range(17, 117):
            assert _plain_ring(4, t) == PolynomialRing(4, t, allow_non_ntt=True)
            assert _plain_ring.cache_info().currsize <= 64
