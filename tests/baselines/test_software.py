"""Unit tests for the software baseline (SEAL-style execution + CPU model)."""

import random
import time

import numpy as np
import pytest

from repro.baselines.software import CpuCostModel, SoftwareBfv
from repro.bfv.params import BfvParameters
from repro.polymath.engine import require_engine
from repro.polymath.ntt import reference_negacyclic_multiply
from repro.polymath.rns import RnsBasis, plan_towers


class TestSoftwareBfv:
    def test_tensor_matches_reference(self, rng):
        n = 32
        basis = RnsBasis(plan_towers(70, 36, n))
        sw = SoftwareBfv(basis, n)
        big_q = basis.modulus
        ca = tuple([rng.randrange(big_q) for _ in range(n)] for _ in range(2))
        cb = tuple([rng.randrange(big_q) for _ in range(n)] for _ in range(2))
        y0, y1, y2 = sw.ciphertext_multiply(ca, cb)
        assert y0 == reference_negacyclic_multiply(ca[0], cb[0], big_q)
        assert y2 == reference_negacyclic_multiply(ca[1], cb[1], big_q)
        cross = [
            (a + b) % big_q
            for a, b in zip(
                reference_negacyclic_multiply(ca[0], cb[1], big_q),
                reference_negacyclic_multiply(ca[1], cb[0], big_q),
            )
        ]
        assert y1 == cross

    def test_op_counts_per_tower(self, rng):
        """SEAL does the same Algorithm 3 work per tower: 4 NTT, 4
        Hadamard, 1 add, 3 iNTT."""
        n = 16
        basis = RnsBasis(plan_towers(60, 31, n))
        sw = SoftwareBfv(basis, n)
        ca = ([1] * n, [2] * n)
        sw.ciphertext_multiply(ca, ca)
        towers = len(basis)
        assert sw.tower_ops == {
            "ntt": 4 * towers, "hadamard": 4 * towers,
            "add": towers, "intt": 3 * towers,
        }

    @pytest.mark.parametrize("bits", [20, 36, 70])
    def test_tensor_towers_rows_are_per_tower(self, rng, bits):
        """Row ``i`` of both arrays is tower ``i``: the operands reduced mod
        ``q_i`` and ``tower_multiply(q_i)``; ``uint64`` unless a modulus
        is wider than 64 bits."""
        n = 16
        basis = RnsBasis(plan_towers(2 * bits, bits, n))
        sw = SoftwareBfv(basis, n)
        big_q = basis.modulus
        ca = tuple([rng.randrange(big_q) for _ in range(n)] for _ in range(2))
        cb = tuple([rng.randrange(big_q) for _ in range(n)] for _ in range(2))
        operands, outputs = sw.tensor_towers(ca, cb)
        assert operands.shape == (4, len(basis), n)
        assert outputs.shape == (3, len(basis), n)
        assert outputs.dtype == (object if bits > 64 else np.uint64)
        for i, q in enumerate(basis.moduli):
            assert operands[:, i].tolist() == [
                [c % q for c in poly] for poly in (*ca, *cb)
            ]
            assert outputs[:, i].tolist() == sw.tower_multiply(q, ca, cb)


    @pytest.mark.paper_scale
    def test_engine_evalmult_10x_faster_than_per_tower_python(self):
        """The 3-tower n = 2^12 EvalMult tensor on the batched engine is
        at least 10x faster (best of several runs) than the per-tower
        pure-Python path plus CRT recombination, and equal to it."""
        n = 2**12
        basis = RnsBasis(plan_towers(90, 30, n))
        sw = SoftwareBfv(basis, n)
        rng = random.Random(17)
        ca, cb = (
            tuple([rng.randrange(basis.modulus) for _ in range(n)]
                  for _ in range(2))
            for _ in range(2)
        )

        engine = require_engine(basis, n)

        def pure():
            _, outputs = sw.tensor_towers(ca, cb)
            return [basis.reconstruct_poly(y.tolist()) for y in outputs]

        def batched():
            tensor = engine.tensor(
                *(engine.decompose(p) for p in (*ca, *cb))
            )
            return [engine.reconstruct(y) for y in tensor]

        def best(fn, repeats):
            fn()  # warm caches
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                timings.append(time.perf_counter() - start)
            return min(timings)

        assert batched() == pure()
        pure_s = best(pure, 2)
        engine_s = best(batched, 5)
        assert pure_s >= 10 * engine_s, (pure_s, engine_s)

class TestCpuCostModel:
    @pytest.fixture(scope="class")
    def small(self):
        return BfvParameters.from_paper(n=2**12, log_q=109)

    @pytest.fixture(scope="class")
    def large(self):
        return BfvParameters.from_paper(n=2**13, log_q=218)

    def test_anchor_small(self, small):
        """1.5 ms / 1.48 W at (2^12, 109), single thread."""
        cm = CpuCostModel()
        assert cm.ciphertext_mult_ms(small) == pytest.approx(1.5, rel=0.01)
        assert cm.power_w(small) == pytest.approx(1.48, rel=0.01)

    def test_anchor_large(self, large):
        """6.91 ms / 2.3 W at (2^13, 218), single thread."""
        cm = CpuCostModel()
        assert cm.ciphertext_mult_ms(large) == pytest.approx(6.91, rel=0.01)
        assert cm.power_w(large) == pytest.approx(2.3, rel=0.01)

    def test_pdp_anchors(self, small, large):
        """Section VI-B: 2.22 W*ms and 15.9 W*ms single-thread."""
        cm = CpuCostModel()
        assert cm.pdp_w_ms(small) == pytest.approx(2.22, rel=0.01)
        assert cm.pdp_w_ms(large) == pytest.approx(15.9, rel=0.01)

    def test_diminishing_returns(self, large):
        """Fig. 6: speedup per added thread shrinks."""
        cm = CpuCostModel()
        t1, t4, t16 = (cm.ciphertext_mult_ms(large, T) for T in (1, 4, 16))
        assert t1 > t4 > t16
        assert (t1 / t4) > (t4 / t16)  # diminishing

    def test_power_near_linear_in_threads(self, small):
        cm = CpuCostModel()
        p1, p4 = cm.power_w(small, 1), cm.power_w(small, 4)
        assert 2.5 < p4 / p1 < 4.0  # near-linear growth

    def test_crossover_exists(self, large):
        """Multi-threaded SEAL eventually beats one CoFHEE (3.58 ms)."""
        cm = CpuCostModel()
        threads = cm.crossover_threads(large, cofhee_ms=3.58)
        assert threads is not None and 2 <= threads <= 8

    def test_no_crossover_when_cofhee_fast_enough(self, large):
        cm = CpuCostModel()
        assert cm.crossover_threads(large, cofhee_ms=0.1) is None

    def test_validation(self, small):
        cm = CpuCostModel()
        with pytest.raises(ValueError):
            cm.ciphertext_mult_ms(small, threads=0)
        with pytest.raises(ValueError):
            cm.tower_time_ms(100)
