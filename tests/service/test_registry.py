"""Session registry: dedupe, context caching, compatibility enforcement."""

import pytest

from repro.bfv import Bfv, BfvParameters
from repro.bfv.scheme import Ciphertext, _ExactMultiplier
from repro.polymath.poly import PolynomialRing
from repro.service.registry import SessionError, SessionRegistry
from repro.service.serialization import params_digest, serialize_ciphertext

PARAMS_A = BfvParameters.toy(n=16, log_q=60)
PARAMS_B = BfvParameters.toy(n=32, log_q=80)


@pytest.fixture
def registry():
    return SessionRegistry()


def _fresh_ct(params, seed=1):
    bfv = Bfv(params, seed=seed)
    keys = bfv.keygen(relin_digit_bits=None)
    ring = PolynomialRing(params.n, params.t, allow_non_ntt=True)
    return bfv.encrypt(ring.one(), keys.public), keys


class TestSessions:
    def test_open_session_assigns_ids(self, registry):
        s1 = registry.open_session("acme", PARAMS_A)
        s2 = registry.open_session("globex", PARAMS_A)
        assert s1.session_id != s2.session_id
        assert registry.get(s1.session_id) is s1

    def test_same_tenant_same_params_deduped(self, registry):
        """Evaluation keys are stored once per (tenant, digest)."""
        s1 = registry.open_session("acme", PARAMS_A)
        s2 = registry.open_session("acme", PARAMS_A)
        assert s1 is s2

    def test_same_tenant_different_params_separate(self, registry):
        s1 = registry.open_session("acme", PARAMS_A)
        s2 = registry.open_session("acme", PARAMS_B)
        assert s1 is not s2
        assert s1.digest != s2.digest

    def test_reopen_adds_keys(self, registry):
        _, keys = _fresh_ct(PARAMS_A)
        s1 = registry.open_session("acme", PARAMS_A)
        assert s1.relin is None
        bfv = Bfv(PARAMS_A, seed=3)
        relin = bfv.keygen(relin_digit_bits=12).relin
        s2 = registry.open_session("acme", PARAMS_A, relin=relin)
        assert s2 is s1 and s1.relin is relin

    def test_missing_keys_raise(self, registry):
        session = registry.open_session("acme", PARAMS_A)
        with pytest.raises(SessionError):
            session.require_relin()
        with pytest.raises(SessionError):
            session.require_galois(3)

    def test_unknown_session(self, registry):
        with pytest.raises(SessionError):
            registry.get("s9999")


class TestContextCache:
    def test_engine_shared_across_tenants(self, registry):
        """One Bfv context per digest, shared by every tenant using it."""
        s1 = registry.open_session("acme", PARAMS_A)
        s2 = registry.open_session("globex", PARAMS_A)
        assert registry.engine(s1) is registry.engine(s2)
        assert len(registry.cached_digests) == 1

    def test_equal_params_instances_share_context(self, registry):
        """Digest keying: a structurally equal params object reuses the cache."""
        clone = BfvParameters.toy(n=16, log_q=60)
        s1 = registry.open_session("acme", PARAMS_A)
        s2 = registry.open_session("globex", clone)
        assert s1.digest == s2.digest == params_digest(clone)
        assert registry.engine(s1) is registry.engine(s2)

    def test_engine_is_the_batched_multiplier_and_exact(self, registry):
        session = registry.open_session("acme", PARAMS_A)
        engine = registry.engine(session)
        assert engine.multiplier_kind == "RnsExactMultiplier"
        # The numpy multiplier produces the same exact integer products
        # as the pure-Python oracle.
        ring = PolynomialRing(PARAMS_A.n, PARAMS_A.q, allow_non_ntt=True)
        import random

        rng = random.Random(0)
        a, b = ring.random(rng), ring.random(rng)
        oracle = _ExactMultiplier(PARAMS_A.n, PARAMS_A.q)
        assert engine._exact_mul(a, b) == Bfv(
            PARAMS_A, multiplier=oracle
        )._exact_mul(a, b)


class TestCompatibility:
    def test_cross_params_ciphertext_rejected(self, registry):
        session = registry.open_session("acme", PARAMS_A)
        foreign, _ = _fresh_ct(PARAMS_B)
        with pytest.raises(SessionError):
            registry.check_compatible(session, foreign)

    def test_wire_ingest_checks_digest(self, registry):
        from repro.service.serialization import ParamsMismatchError

        session = registry.open_session("acme", PARAMS_A)
        foreign, _ = _fresh_ct(PARAMS_B)
        with pytest.raises(ParamsMismatchError):
            registry.ingest_ciphertext(session, serialize_ciphertext(foreign))

    def test_matching_ciphertext_accepted(self, registry):
        session = registry.open_session("acme", PARAMS_A)
        ct, _ = _fresh_ct(PARAMS_A)
        registry.check_compatible(session, ct)  # no raise
        recovered = registry.ingest_ciphertext(session, serialize_ciphertext(ct))
        assert isinstance(recovered, Ciphertext) and recovered == ct
