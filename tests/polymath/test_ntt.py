"""Unit tests for the NTT kernels against the quadratic references."""

import random

import pytest

from repro.polymath.ntt import (
    NttContext,
    reference_dft,
    reference_negacyclic_multiply,
)
from repro.polymath.primes import ntt_friendly_prime, root_of_unity


@pytest.fixture(scope="module")
def ctx64():
    n = 64
    return NttContext(n, ntt_friendly_prime(n, 40))


class TestContextConstruction:
    def test_rejects_non_power_of_two(self):
        q = ntt_friendly_prime(64, 30)
        with pytest.raises(ValueError, match="power of two"):
            NttContext(48, q)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ValueError):
            NttContext(64, 97)  # 96 not divisible by 128

    def test_shared_searches_a_rootless_modulus_once(self, monkeypatch):
        """A product of NTT primes is 1 mod 2n but has no primitive 2n-th
        root: the shared context's search fails once, and asking again
        raises the same error without searching."""
        import repro.polymath.ntt as ntt_module

        n = 64
        q = ntt_friendly_prime(n, 30) * ntt_friendly_prime(n, 31)
        calls = []

        def search(*args):
            calls.append(args)
            return root_of_unity(*args)

        monkeypatch.setattr(ntt_module, "root_of_unity", search)
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError) as caught:
                NttContext.shared(n, q)
            errors.append(str(caught.value))
        assert len(calls) == 1 and errors[0] == errors[1]

    def test_rejects_bad_psi(self):
        q = ntt_friendly_prime(64, 30)
        with pytest.raises(ValueError, match="primitive"):
            NttContext(64, q, psi=1)

    def test_derived_constants(self, ctx64):
        q, n = ctx64.q, ctx64.n
        assert pow(ctx64.psi, 2 * n, q) == 1
        assert pow(ctx64.psi, n, q) == q - 1
        assert ctx64.omega == ctx64.psi * ctx64.psi % q
        assert ctx64.n_inv * n % q == 1


class TestTransforms:
    def test_roundtrip(self, ctx64, rng):
        a = [rng.randrange(ctx64.q) for _ in range(64)]
        assert ctx64.inverse(ctx64.forward(a)) == a

    def test_cyclic_roundtrip(self, ctx64, rng):
        a = [rng.randrange(ctx64.q) for _ in range(64)]
        assert ctx64.inverse_cyclic(ctx64.forward_cyclic(a)) == a

    def test_cyclic_matches_reference_dft(self, ctx64, rng):
        a = [rng.randrange(ctx64.q) for _ in range(64)]
        assert ctx64.forward_cyclic(a) == reference_dft(a, ctx64.omega, ctx64.q)

    def test_forward_of_delta_is_all_ones(self, ctx64):
        delta = [1] + [0] * 63
        assert ctx64.forward(delta) == [1] * 64

    def test_linearity(self, ctx64, rng):
        q = ctx64.q
        a = [rng.randrange(q) for _ in range(64)]
        b = [rng.randrange(q) for _ in range(64)]
        fa, fb = ctx64.forward(a), ctx64.forward(b)
        fsum = ctx64.forward([(x + y) % q for x, y in zip(a, b)])
        assert fsum == [(x + y) % q for x, y in zip(fa, fb)]

    def test_wrong_length_rejected(self, ctx64):
        with pytest.raises(ValueError, match="expected 64"):
            ctx64.forward([1, 2, 3])


class TestNegacyclicMultiply:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_matches_schoolbook(self, n, rng):
        q = ntt_friendly_prime(n, 40)
        ctx = NttContext(n, q)
        a = [rng.randrange(q) for _ in range(n)]
        b = [rng.randrange(q) for _ in range(n)]
        assert ctx.negacyclic_multiply(a, b) == reference_negacyclic_multiply(a, b, q)

    def test_x_to_n_wraps_negatively(self):
        """x^(n-1) * x = x^n === -1 in Z_q[x]/(x^n+1)."""
        n = 16
        q = ntt_friendly_prime(n, 30)
        ctx = NttContext(n, q)
        x1 = [0, 1] + [0] * (n - 2)
        xn1 = [0] * (n - 1) + [1]
        result = ctx.negacyclic_multiply(x1, xn1)
        assert result == [q - 1] + [0] * (n - 1)

    def test_multiply_by_one(self, ctx64, rng):
        a = [rng.randrange(ctx64.q) for _ in range(64)]
        one = [1] + [0] * 63
        assert ctx64.negacyclic_multiply(a, one) == a

    def test_classic_psi_scaling_formulation_agrees(self, rng):
        """Algorithm 2's NTT((A . psi), omega) formulation == merged form."""
        n = 32
        q = ntt_friendly_prime(n, 30)
        ctx = NttContext(n, q)
        a = [rng.randrange(q) for _ in range(n)]
        b = [rng.randrange(q) for _ in range(n)]
        fa = ctx.forward_cyclic(ctx.scale_psi(a))
        fb = ctx.forward_cyclic(ctx.scale_psi(b))
        prod = [x * y % q for x, y in zip(fa, fb)]
        y = ctx.scale_psi(ctx.inverse_cyclic(prod), inverse=True)
        assert y == ctx.negacyclic_multiply(a, b)


class TestExplicitPsi:
    def test_explicit_psi_accepted(self):
        n = 32
        q = ntt_friendly_prime(n, 30)
        psi = root_of_unity(2 * n, q)
        ctx = NttContext(n, q, psi=psi)
        assert ctx.psi == psi
