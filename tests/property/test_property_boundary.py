"""Boundary parity: engine rounding/digit kernels vs the scalar scheme.

The serve path replaced two per-coefficient Python loops with engine
kernels — :meth:`BatchedRnsEngine.round_scale` (the Eq. 4 ``t/q``
scaling via a vectorized floor identity) and
:meth:`BatchedRnsEngine.digit_decompose` (the relinearization base-T
split). Both must be *bit-identical* to the scalar references
(``_round_div`` and ``Bfv._decompose_digits``): a one-off at a rounding
boundary decrypts to garbage, silently.

The dangerous inputs for the rounding identity are the exact halves —
``t * c ≡ q/2 (mod q)`` — where half-away-from-zero and banker's
rounding (or a floor off-by-one) diverge. The scheme's ciphertext
modulus is an odd prime, so *no* scheme-generated input ever lands on
an exact half; these tests drive the kernel directly with an even
(power-of-two) ``q`` to force the tie cases the serving path can never
produce, plus the ``±1`` neighbours where a carry would first leak.
Every engine tower count (1-4, including the degenerate single tower)
runs the same draws.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfv import Bfv, BfvParameters
from repro.bfv.scheme import _round_div
from repro.polymath.engine import BatchedRnsEngine
from repro.polymath.fastntt import RnsExactMultiplier
from repro.polymath.poly import Polynomial
from repro.polymath.rns import RnsBasis, plan_towers

N = 16

#: One engine per tower count; 24-bit towers keep every count on the
#: Shoup-lazy kernel while spanning P from ~2^24 to ~2^96.
_ENGINES: dict[int, BatchedRnsEngine] = {}
for _towers in (1, 2, 3, 4):
    _basis = RnsBasis(plan_towers(24 * _towers, 24, N))
    _ENGINES[_towers] = BatchedRnsEngine(_basis, N)

engines = st.sampled_from(sorted(_ENGINES))

#: A deliberately small-modulus engine: 14-bit towers put the 16- and
#: 22-bit digit masks *above* the tower moduli, so digit_decompose takes
#: its per-tower reduction path (the 24-bit engines cover the broadcast
#: fast path where every digit already fits below every modulus).
_SMALL = BatchedRnsEngine(RnsBasis(plan_towers(28, 14, N)), N)

#: The digit-decompose parity scheme: the real RNS multiplier carries
#: the batched engine the serving path uses, and one relin key per
#: digit width under test.
_PARAMS = BfvParameters.toy_rns(n=N, towers=3, tower_bits=24)
_BFV = Bfv(_PARAMS, seed=7)
_RELIN = {
    bits: _BFV.keygen(relin_digit_bits=bits).relin for bits in (8, 16, 22)
}

digit_widths = st.sampled_from(sorted(_RELIN))


def _encode(engine: BatchedRnsEngine, values: list[int]):
    """CRT-encode exact (possibly negative) integers as a tower stack."""
    return engine.stack(
        [[v % q for v in values] for q in engine.basis.moduli]
    )


@st.composite
def _half_case(draw, towers):
    """(t, q, values): q even, with values clustered on exact halves.

    ``q`` is a power of two and ``t`` odd, so ``t`` is invertible mod
    ``q`` and ``c ≡ (q/2) * t^{-1} (mod q)`` enumerates exactly the
    coefficients with ``t*c ≡ q/2 (mod q)``. Values mix those halves
    (both signs, shifted by multiples of q), their ``±1`` neighbours,
    and uniform draws, all within the centered range of the smallest
    engine modulus product.
    """
    q = 1 << draw(st.integers(min_value=1, max_value=12))
    t = draw(st.integers(min_value=0, max_value=(q - 1) // 2)) * 2 + 1
    half_root = (q >> 1) * pow(t, -1, q) % q
    bound = _ENGINES[towers].modulus // 2 - q
    k_max = max(0, (bound - half_root) // q)
    ks = st.integers(min_value=-min(k_max, 500), max_value=min(k_max, 500))
    halves = ks.map(lambda k: half_root + k * q)
    near = st.tuples(halves, st.sampled_from([-1, 1])).map(sum)
    uniform = st.integers(min_value=-bound, max_value=bound)
    values = draw(
        st.lists(
            st.one_of(halves, near, uniform), min_size=N, max_size=N
        )
    )
    return t, q, values


class TestRoundScaleParity:
    @given(data=st.data(), towers=engines)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_round_div_at_exact_halves(self, data, towers):
        engine = _ENGINES[towers]
        t, q, values = data.draw(_half_case(towers))
        got = engine.round_scale(_encode(engine, values), t, q)
        assert got == [_round_div(t * c, q) % q for c in values]

    def test_exact_half_rounds_away_from_zero_both_signs(self):
        """Pin the tie-break direction itself: ±q/2 scale to ±1 (mod q),
        not to the even neighbour 0."""
        engine = _ENGINES[1]
        q = 1 << 10
        half = q >> 1
        values = [half, -half] + [0] * (N - 2)
        got = engine.round_scale(_encode(engine, values), 1, q)
        assert got[0] == 1
        assert got[1] == (-1) % q
        assert _round_div(half, q) == 1
        assert _round_div(-half, q) == -1


#: Eq. 4 tensor engines whose bases lead with q's own 1-4 towers (30-bit,
#: like the served sets), as the scheme's multiplier builds them.
_SCALING = {
    towers: RnsExactMultiplier(
        N, RnsBasis(plan_towers(30 * towers, 30, N))
    ).tensor_engine
    for towers in (1, 2, 3, 4)
}


@st.composite
def _near_half_case(draw, towers):
    """(t, q, values): ``t * c / q`` within ``1/(2q)`` of a half.

    ``q`` is odd, so ``t*c ≡ (q ± 1)/2 (mod q)`` is as close to an exact
    half as ``t*c/q`` gets, and in float64 it *is* the half once ``q``
    passes 2^53. Values take both signs (shifted by multiples of q up to
    the tensor bound ``2n(q/2)^2``), mixed with uniform draws and zero.
    """
    q = _SCALING[towers].select(range(towers)).modulus
    t = draw(st.integers(min_value=2**12, max_value=2**20)) | 1
    bound = 2 * N * (q // 2) ** 2
    roots = [(q + s) // 2 * pow(t, -1, q) % q for s in (-1, 1)]
    k_max = bound // q - 1
    ks = st.integers(min_value=-k_max, max_value=k_max)
    halves = st.tuples(st.sampled_from(roots), ks).map(lambda r: r[0] + r[1] * q)
    uniform = st.integers(min_value=-bound, max_value=bound)
    values = draw(
        st.lists(
            st.one_of(halves, halves, uniform, st.just(0)),
            min_size=N, max_size=N,
        )
    )
    return t, q, values


class TestScaleRoundParity:
    """The RNS scale-and-round the scheme serves with, against the
    scalar rounding, at the float64 boundary: the exact fallback runs."""

    @given(data=st.data(), towers=st.sampled_from((1, 2, 3, 4)))
    @settings(
        max_examples=60, deadline=None,
        # The spy only accumulates; each example compares counts.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_bit_identical_to_round_div_near_halves(
        self, data, towers, monkeypatch_exact
    ):
        engine = _SCALING[towers]
        t, q, values = data.draw(_near_half_case(towers))
        calls = monkeypatch_exact
        before = len(calls)
        got = engine.scale_round(_encode(engine, values)[None], t, towers)[0]
        want = [_round_div(t * c, q) % q for c in values]
        moduli = engine.basis.moduli[:towers]
        assert got.tolist() == [[w % m for w in want] for m in moduli]
        if any(c % q in _near_roots(t, q) for c in values):
            assert len(calls) > before

    @pytest.mark.parametrize("towers", (1, 2, 3, 4))
    def test_both_signs_take_the_fallback(self, towers, monkeypatch_exact):
        engine = _SCALING[towers]
        q = engine.select(range(towers)).modulus
        t = 65537
        roots = sorted(_near_roots(t, q))
        values = [r + k * q for r in roots for k in (-3, -1, 0, 2)]
        values += [0] * (N - len(values))
        got = engine.scale_round(_encode(engine, values)[None], t, towers)[0]
        assert len(monkeypatch_exact) == 1
        assert monkeypatch_exact[0] == 8
        want = [_round_div(t * c, q) % q for c in values]
        for row, m in zip(got.tolist(), engine.basis.moduli):
            assert row == [w % m for w in want]

    def test_batch_of_tensor_components(self):
        """A ``(3, L, n)`` batch scales like three single stacks."""
        engine = _SCALING[3]
        rng = random.Random(3)
        bound = 2 * N * (engine.select(range(3)).modulus // 2) ** 2
        stacks = [
            _encode(engine, [rng.randint(-bound, bound) for _ in range(N)])
            for _ in range(3)
        ]
        batch = engine.scale_round(np.stack(stacks), 257, 3)
        for i, stack in enumerate(stacks):
            assert np.array_equal(batch[i], engine.scale_round(stack[None], 257, 3)[0])


def _near_roots(t: int, q: int) -> set[int]:
    """The residues ``c mod q`` with ``t*c ≡ (q ± 1)/2 (mod q)``."""
    return {(q + s) // 2 * pow(t, -1, q) % q for s in (-1, 1)}


@pytest.fixture
def monkeypatch_exact(monkeypatch):
    """Spy on the exact fallback: records how many columns each call got."""
    calls: list[int] = []
    real = BatchedRnsEngine._round_exact

    def spy(self, cols, t, qe):
        calls.append(len(cols))
        return real(self, cols, t, qe)

    monkeypatch.setattr(BatchedRnsEngine, "_round_exact", spy)
    return calls


class TestDigitDecomposeParity:
    @given(data=st.data(), bits=digit_widths)
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_scheme_decompose(self, data, bits):
        """The batched split agrees digit-for-digit, tower-for-tower,
        with ``Bfv._decompose_digits`` on canonical scheme coefficients,
        across digit widths 8/16/22 and every engine tower count."""
        relin = _RELIN[bits]
        q = _PARAMS.q
        boundary = st.sampled_from(
            [0, 1, (1 << bits) - 1, 1 << bits, q - 1, q // 2]
        )
        coeffs = data.draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=q - 1), boundary
                ),
                min_size=N, max_size=N,
            )
        )
        scalar = _BFV._decompose_digits(
            Polynomial.from_canonical(_BFV.ring, coeffs), relin
        )
        for engine in [*_ENGINES.values(), _SMALL]:
            rows = engine.digit_decompose(
                coeffs, relin.digit_bits, relin.num_digits
            )
            assert rows.shape == (relin.num_digits, engine.num_towers, N)
            for i, digit_poly in enumerate(scalar):
                for tower, modulus in enumerate(engine.basis.moduli):
                    assert rows[i, tower].tolist() == [
                        d % modulus for d in digit_poly.coeffs
                    ]

    def test_centered_coefficient_rejected_like_scalar_path(self):
        engine = _ENGINES[2]
        centered = [-1] + [0] * (N - 1)
        try:
            engine.digit_decompose(centered, 8, 4)
        except ValueError as exc:
            assert "canonical" in str(exc)
        else:  # pragma: no cover - the guard must fire
            raise AssertionError("negative coefficient was accepted")
