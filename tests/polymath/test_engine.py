"""Unit tests for the batched RNS tower engine and its auto-selection."""

import numpy as np
import pytest

from repro.baselines.software import SoftwareBfv
from repro.polymath.engine import (
    MAX_MODULUS_BITS,
    BatchedRnsEngine,
    get_engine,
    require_engine,
    supports,
)
from repro.polymath.ntt import NttContext, reference_negacyclic_multiply
from repro.polymath.primes import ntt_friendly_prime
from repro.polymath.rns import RnsBasis, plan_towers


@pytest.fixture(scope="module")
def rns3():
    n = 32
    basis = RnsBasis(plan_towers(60, 20, n))
    return BatchedRnsEngine(basis, n), basis, n


class TestConstruction:
    @pytest.mark.parametrize("extra_bits", [1, 9])
    def test_rejects_wide_tower(self, extra_bits):
        q = ntt_friendly_prime(16, MAX_MODULUS_BITS + extra_bits)
        with pytest.raises(ValueError, match="use NttContext"):
            BatchedRnsEngine(RnsBasis([q]), 16)

    def test_rejects_wrong_stack_shape(self, rns3):
        engine, basis, n = rns3
        with pytest.raises(ValueError, match="tower stack"):
            engine.forward(np.zeros((len(basis) + 1, n), dtype=np.int64))
        with pytest.raises(ValueError, match="coefficients"):
            engine.decompose([1, 2, 3])


class TestBatchDimensions:
    def test_batched_transforms_match_per_stack(self, rns3, rng):
        engine, basis, n = rns3
        stacks = [
            engine.stack([[rng.randrange(q) for _ in range(n)]
                          for q in basis.moduli])
            for _ in range(3)
        ]
        batched = engine.forward(np.stack(stacks))
        for got, stack in zip(batched, stacks):
            assert got.tolist() == engine.forward(stack).tolist()
        inv = engine.inverse(np.stack(stacks))
        for got, stack in zip(inv, stacks):
            assert got.tolist() == engine.inverse(stack).tolist()

    def test_tensor_matches_per_tower_reference(self, rns3, rng):
        engine, basis, n = rns3
        polys = [
            [rng.randrange(basis.modulus) for _ in range(n)] for _ in range(4)
        ]
        a0, a1, b0, b1 = (engine.decompose(p) for p in polys)
        y0, y1, y2 = engine.tensor(a0, a1, b0, b1)
        reference = SoftwareBfv(basis, n)
        for i, q in enumerate(basis.moduli):
            expect = reference._pure_tower(
                q, (polys[0], polys[1]), (polys[2], polys[3])
            )
            assert [y0[i].tolist(), y1[i].tolist(), y2[i].tolist()] == expect

    def test_public_kernels_take_unreduced_stacks(self, rns3, rng):
        """``tensor``, ``tensor_square``, ``keyswitch`` and ``scale_round``
        take any int64 stack, as ``forward`` and ``inverse`` do: residues
        shifted by multiples of their tower, negative ones included, give
        the reduced stacks' results."""
        engine, basis, n = rns3
        towers = np.array(basis.moduli, dtype=np.int64)[:, None]
        shifts = np.random.default_rng(7)

        def stack(values=None):
            return engine.stack([
                [rng.randrange(q) if values is None else values[j] % q
                 for j in range(n)]
                for q in basis.moduli
            ])

        def shifted(a):
            return a + towers * shifts.integers(-4, 5, np.shape(a))

        def same(got, want):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

        ops = [stack() for _ in range(4)]
        same(engine.tensor(*map(shifted, ops)), engine.tensor(*ops))
        same(engine.tensor_square(*map(shifted, ops[:2])),
             engine.tensor_square(*ops[:2]))
        digits = np.stack([np.stack(ops[:2]), np.stack(ops[2:])])
        key_rows = np.stack([
            np.stack([engine.forward(stack()) for _ in range(2)])
            for _ in range(2)
        ]).astype(np.uint32)
        same(engine.keyswitch(shifted(digits), key_rows),
             engine.keyswitch(digits, key_rows))
        bound = 2 * n * (basis.moduli[0] // 2) ** 2
        exact = stack([rng.randint(-bound, bound) for _ in range(n)])[None]
        same(engine.scale_round(shifted(exact), 257, 1),
             engine.scale_round(exact, 257, 1))


class TestPythonIntOutputs:
    """The big-modulus outputs are exactly ``int``: ``Polynomial.pack``
    calls ``int.to_bytes`` on them, which numpy integers do not have."""

    @staticmethod
    def _all_int(values) -> bool:
        return all(type(v) is int for v in values)

    def test_reconstructions_and_round_scale(self, rns3, rng):
        engine, basis, n = rns3
        stacks = np.stack([
            engine.stack([[rng.randrange(q) for _ in range(n)]
                          for q in basis.moduli])
            for _ in range(3)
        ])
        assert self._all_int(engine.reconstruct(stacks[0]))
        assert self._all_int(engine.centered_reconstruct(stacks[0]))
        t, q = 257, basis.moduli[0]
        assert self._all_int(engine.round_scale(stacks[0], t, q))
        rows = engine.round_scale(stacks, t, q)
        assert len(rows) == 3 and all(self._all_int(r) for r in rows)

    def test_single_tower(self, rng):
        q = ntt_friendly_prime(16, 20)
        engine = BatchedRnsEngine(RnsBasis([q]), 16)
        stack = engine.stack([[rng.randrange(q) for _ in range(16)]])
        assert self._all_int(engine.reconstruct(stack))
        assert self._all_int(engine.centered_reconstruct(stack))
        assert self._all_int(engine.round_scale(stack, 17, q))


class TestAutoSelection:
    def test_get_engine_caches_per_basis(self):
        basis = RnsBasis(plan_towers(40, 20, 16))
        assert get_engine(basis, 16) is get_engine(RnsBasis(basis.moduli), 16)

    def test_wide_basis_returns_none(self):
        basis = RnsBasis([ntt_friendly_prime(16, 45)])
        assert get_engine(basis, 16) is None

    def test_explicit_consumers_share_the_engine_cache(self):
        """Two multipliers over the same (n, q) share one precomputation."""
        from repro.polymath.fastntt import RnsExactMultiplier

        q = ntt_friendly_prime(16, 60)
        m1, m2 = RnsExactMultiplier(16, q), RnsExactMultiplier(16, q)
        assert m1.tensor_engine is m2.tensor_engine
        p = RnsBasis([ntt_friendly_prime(16, 20)])
        assert require_engine(p, 16) is get_engine(RnsBasis(p.moduli), 16)

    def test_select_shares_the_ntt_tables(self, rns3, rng):
        """A run of towers gets views of the parent's tables, not copies;
        any other subset gets its own, and both transform alike."""
        engine, basis, n = rns3
        stack = engine.stack([[rng.randrange(q) for _ in range(n)]
                              for q in basis.moduli])
        for indices, shared in (([1, 2], True), ([2, 0], False)):
            sub = engine.select(indices)
            for mine, parent in ((sub._fwd, engine._fwd),
                                 (sub._inv, engine._inv)):
                for name in ("w", "w_shoup", "q", "scale", "scale_shoup"):
                    assert np.shares_memory(
                        getattr(mine, name), getattr(parent, name)
                    ) is shared
            assert sub.forward(stack[indices]).tolist() == (
                engine.forward(stack)[indices].tolist()
            )
            assert sub.inverse(stack[indices]).tolist() == (
                engine.inverse(stack)[indices].tolist()
            )


class TestSingleTowerStack:
    """A one-tower engine is the vectorized drop-in for ``NttContext``."""

    @pytest.fixture(scope="class")
    def pair(self):
        n = 128
        q = ntt_friendly_prime(n, 28)
        return BatchedRnsEngine(RnsBasis([q]), n), NttContext(n, q)

    @staticmethod
    def _poly(rng, q, n):
        return [rng.randrange(q) for _ in range(n)]

    def test_forward_and_inverse_match_reference(self, pair, rng):
        engine, ref = pair
        a = self._poly(rng, ref.q, ref.n)
        assert engine.forward([a])[0].tolist() == ref.forward(a)
        assert engine.inverse([a])[0].tolist() == ref.inverse(a)

    def test_roundtrip(self, pair, rng):
        engine, ref = pair
        a = self._poly(rng, ref.q, ref.n)
        assert engine.inverse(engine.forward([a]))[0].tolist() == a

    def test_multiply_matches_schoolbook(self, pair, rng):
        engine, ref = pair
        a, b = (self._poly(rng, ref.q, ref.n) for _ in range(2))
        got = engine.negacyclic_multiply([a], [b])[0].tolist()
        assert got == reference_negacyclic_multiply(a, b, ref.q)

    @pytest.mark.parametrize("n", [2, 4, 64, 1024])
    def test_multiple_sizes(self, n, rng):
        q = ntt_friendly_prime(n, 25)
        engine, ref = BatchedRnsEngine(RnsBasis([q]), n), NttContext(n, q)
        a = self._poly(rng, q, n)
        assert engine.forward([a])[0].tolist() == ref.forward(a)
        assert engine.inverse([a])[0].tolist() == ref.inverse(a)

    def test_rejects_wrong_length(self, pair):
        engine, _ = pair
        with pytest.raises(ValueError, match="tower stack"):
            engine.forward([[1, 2, 3]])

    def test_worst_case_operands_at_the_widest_modulus(self):
        q = ntt_friendly_prime(16, MAX_MODULUS_BITS)
        assert q.bit_length() == MAX_MODULUS_BITS
        engine, ref = BatchedRnsEngine(RnsBasis([q]), 16), NttContext(16, q)
        a = [q - 1] * 16  # the lazy bound 4q is closest to 2^32 here
        fwd = engine.forward([a])
        assert fwd[0].tolist() == ref.forward(a)
        assert engine.inverse(fwd)[0].tolist() == a
        assert engine.inverse([a])[0].tolist() == ref.inverse(a)


class TestSoftwareBfvFallback:
    """The automatic wide-modulus fallback the acceptance criteria name."""

    def test_wide_towers_fall_back_to_pure(self):
        n = 32
        wide = RnsBasis(plan_towers(70, 36, n))  # 35/36-bit towers
        with pytest.raises(ValueError, match="does not qualify"):
            require_engine(wide, n)


def test_supports_checks_every_tower():
    good = ntt_friendly_prime(16, 20)
    wide = ntt_friendly_prime(16, 40)
    assert supports([good], 16)
    assert not supports([good, wide], 16)
    assert not supports([good], 24)  # degree not a power of two
