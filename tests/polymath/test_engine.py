"""Unit tests for the batched RNS tower engine and its auto-selection."""

import numpy as np
import pytest

from repro.baselines.software import SoftwareBfv
from repro.polymath.engine import (
    MAX_MODULUS_BITS,
    BatchedRnsEngine,
    engine_enabled,
    get_engine,
    supports,
)
from repro.polymath.ntt import NttContext
from repro.polymath.primes import ntt_friendly_prime
from repro.polymath.rns import RnsBasis, plan_towers


@pytest.fixture(scope="module")
def rns3():
    n = 32
    basis = RnsBasis(plan_towers(60, 20, n))
    return BatchedRnsEngine(basis, n), basis, n


class TestConstruction:
    def test_rejects_wide_tower(self):
        q = ntt_friendly_prime(16, MAX_MODULUS_BITS + 9)
        with pytest.raises(ValueError, match="int64-safe"):
            BatchedRnsEngine(RnsBasis([q]), 16)

    def test_rejects_wrong_stack_shape(self, rns3):
        engine, basis, n = rns3
        with pytest.raises(ValueError, match="tower stack"):
            engine.forward(np.zeros((len(basis) + 1, n), dtype=np.int64))
        with pytest.raises(ValueError, match="coefficients"):
            engine.decompose([1, 2, 3])

    def test_repr_names_kernel(self, rns3):
        engine, _, _ = rns3
        assert "shoup-lazy" in repr(engine)


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
        pure = SoftwareBfv(basis, n, engine="pure")
        for i, q in enumerate(basis.moduli):
            expect = pure.tower_multiply(
                q, (polys[0], polys[1]), (polys[2], polys[3])
            )
            assert [y0[i].tolist(), y1[i].tolist(), y2[i].tolist()] == expect


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

    def test_env_toggle_disables_auto_selection(self, monkeypatch):
        basis = RnsBasis(plan_towers(40, 20, 16))
        monkeypatch.setenv("REPRO_ENGINE", "off")
        assert not engine_enabled()
        assert get_engine(basis, 16) is None
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        assert get_engine(basis, 16) is not None

    def test_explicit_request_bypasses_kill_switch(self, monkeypatch):
        """REPRO_ENGINE=off governs auto-selection only; an explicit
        engine="batched" (or FastNttContext) still gets the engine."""
        basis = RnsBasis(plan_towers(40, 20, 16))
        monkeypatch.setenv("REPRO_ENGINE", "off")
        assert SoftwareBfv(basis, 16, engine="batched").engine_kind == "batched"
        assert SoftwareBfv(basis, 16).engine_kind == "pure"

    def test_explicit_consumers_share_the_engine_cache(self):
        """Two multipliers over the same (n, q) share one precomputation."""
        from repro.polymath.fastntt import FastNttContext, RnsExactMultiplier

        q = ntt_friendly_prime(16, 60)
        m1, m2 = RnsExactMultiplier(16, q), RnsExactMultiplier(16, q)
        assert m1._engine is m2._engine
        p = ntt_friendly_prime(16, 20)
        assert FastNttContext(16, p)._engine is FastNttContext(16, p)._engine


class TestSoftwareBfvFallback:
    """The automatic wide-modulus fallback the acceptance criteria name."""

    def test_wide_towers_fall_back_to_pure(self, rng):
        n = 32
        wide = RnsBasis(plan_towers(70, 36, n))  # 35/36-bit towers
        sw = SoftwareBfv(wide, n)
        assert sw.engine_kind == "pure"
        with pytest.raises(ValueError, match="does not qualify"):
            SoftwareBfv(wide, n, engine="batched")

    def test_word_sized_towers_select_batched(self):
        n = 32
        basis = RnsBasis(plan_towers(60, 20, n))
        assert SoftwareBfv(basis, n).engine_kind == "batched"

    def test_batched_and_pure_are_bit_identical(self, rng):
        n = 32
        basis = RnsBasis(plan_towers(60, 20, n))
        fast = SoftwareBfv(basis, n, engine="batched")
        pure = SoftwareBfv(basis, n, engine="pure")
        Q = basis.modulus
        ca = tuple([rng.randrange(Q) for _ in range(n)] for _ in range(2))
        cb = tuple([rng.randrange(Q) for _ in range(n)] for _ in range(2))
        assert fast.ciphertext_multiply(ca, cb) == pure.ciphertext_multiply(
            ca, cb
        )
        for q in basis.moduli:
            assert fast.tower_multiply(q, ca, cb) == pure.tower_multiply(
                q, ca, cb
            )
        # both paths tally the same logical tower work
        assert fast.tower_ops == pure.tower_ops

    def test_scheme_auto_multiplier_falls_back_when_disabled(self, monkeypatch):
        from repro.bfv.params import BfvParameters
        from repro.bfv.scheme import Bfv

        params = BfvParameters.toy(n=16, log_q=40)
        assert Bfv(params).multiplier_kind == "RnsExactMultiplier"
        monkeypatch.setenv("REPRO_ENGINE", "off")
        assert Bfv(params).multiplier_kind == "_ExactMultiplier"


def test_supports_checks_every_tower():
    good = ntt_friendly_prime(16, 20)
    wide = ntt_friendly_prime(16, 40)
    assert supports([good], 16)
    assert not supports([good, wide], 16)
    assert not supports([good], 24)  # degree not a power of two
