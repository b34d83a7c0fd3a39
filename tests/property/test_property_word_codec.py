"""Property suite: word-backed polynomials are the int-backed ones, faster.

``PolynomialRing.unpack`` reads the packed wire form as big-endian 32-bit
words and range-checks it in one numpy pass; the polynomial it returns
builds Python-int coefficients only on demand, packs as a byte copy, and
reduces to engine tower residues straight from its words. Every one of
those shortcuts must agree with the per-coefficient reference it
replaced: ``int.from_bytes`` per coefficient, ``coeffs``/``pack``/``==``/
``hash`` of an int-backed polynomial, and ``decompose(centered())``.

The tower-backed form (residues on q's own engine-sized towers, what
the scheme computes in) must agree with both, in every operand pairing
of ``+``/``-``, and must pack and hash without building Python ints.

Moduli range over 20-130 bits, so coefficient widths that are not a
multiple of 32 bits (3, 5, 6, 7, 9 ... bytes) and the 4-, 8-, 12- and
16-byte word boundaries all occur; degrees are 16 and the paper's 4096.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polymath.engine import require_engine
from repro.polymath.poly import Polynomial, PolynomialRing
from repro.polymath.primes import next_smaller_ntt_prime, ntt_friendly_prime
from repro.polymath.rns import RnsBasis
from repro.service.serialization import (
    TAG_POLYNOMIAL,
    WireFormatError,
    _bigint,
    _frame,
    _Reader,
    _u32,
    deserialize_polynomial,
)

DEGREES = (16, 4096)

#: Any modulus of 20-130 bits (not only primes: the codec never needs one).
moduli = st.integers(min_value=20, max_value=130).flatmap(
    lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
)


def _coeffs(seed: int, n: int, q: int) -> list[int]:
    """Uniform coefficients with the range-check and centring edges mixed in."""
    rng = random.Random(seed)
    edges = (0, 1, q // 2, q // 2 + 1, q - 1)
    return [
        rng.choice(edges) if rng.random() < 0.2 else rng.randrange(q)
        for _ in range(n)
    ]


def _packed(coeffs, width: int) -> bytes:
    return b"".join(c.to_bytes(width, "big") for c in coeffs)


def _ring(n: int, q: int) -> PolynomialRing:
    return PolynomialRing(n, q, allow_non_ntt=True)


@pytest.fixture(scope="module")
def aux_engines():
    """Per degree, an engine over seven 30-bit NTT primes (prefixes of it
    give the 1-7 tower bases)."""
    engines = {}
    for n in DEGREES:
        primes = [ntt_friendly_prime(n, 30)]
        while len(primes) < 7:
            primes.append(next_smaller_ntt_prime(primes[-1], n))
        engines[n] = require_engine(RnsBasis(primes), n)
    return engines


class TestWordDecode:
    @given(n=st.sampled_from(DEGREES), q=moduli, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_per_coefficient_decode(self, n, q, seed):
        ring = _ring(n, q)
        width = ring.coeff_byte_width
        data = _packed(_coeffs(seed, n, q), width)
        poly = ring.unpack(data)
        assert poly.words is not None
        assert poly.words.shape == (n, -(-width // 4))
        assert poly.coeffs == tuple(
            int.from_bytes(data[i * width : (i + 1) * width], "big")
            for i in range(n)
        )
        assert all(type(c) is int for c in poly.coeffs)

    @given(q=moduli, at=st.integers(0, 15), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_range_edges(self, q, at, seed):
        """0, q/2, q/2 + 1 and q - 1 decode; q and the all-ones word are
        rejected, naming the first bad coefficient, the same error as the
        per-coefficient check raised."""
        n = 16
        ring = _ring(n, q)
        width = ring.coeff_byte_width
        coeffs = _coeffs(seed, n, q)
        coeffs[:4] = [0, q // 2, q // 2 + 1, q - 1]
        assert ring.unpack(_packed(coeffs, width)).coeffs == tuple(coeffs)
        for bad in (q, (1 << (8 * width)) - 1):
            data = _packed(coeffs[:at] + [bad] + coeffs[at + 1 :], width)
            message = f"packed coefficient {bad} >= modulus {q}"
            with pytest.raises(ValueError) as exc:
                ring.unpack(data)
            assert str(exc.value) == message
            # The wire decoder raises it as a WireFormatError, unchanged.
            frame = _frame(TAG_POLYNOMIAL, _u32(n) + _bigint(q) + data)
            with pytest.raises(WireFormatError) as exc:
                deserialize_polynomial(frame)
            assert str(exc.value) == message

    @pytest.mark.parametrize("width_bits", (20, 31, 32, 33, 64, 65, 96, 128, 130))
    def test_widths_around_word_boundaries(self, width_bits):
        q = (1 << width_bits) - 3
        ring = _ring(16, q)
        coeffs = _coeffs(width_bits, 16, q)
        assert ring.unpack(_packed(coeffs, ring.coeff_byte_width)).coeffs == (
            tuple(coeffs)
        )


class TestFormsAgree:
    @given(n=st.sampled_from(DEGREES), q=moduli, seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_coeffs_pack_eq_hash(self, n, q, seed):
        ring = _ring(n, q)
        coeffs = _coeffs(seed, n, q)
        ints = Polynomial.from_canonical(ring, coeffs)
        words = ring.unpack(ints.pack())
        fresh = ring.unpack(ints.pack())
        assert words.pack() == ints.pack()
        assert words == ints and ints == words and words == fresh
        assert hash(words) == hash(ints)
        assert words.coeffs == ints.coeffs
        assert words.centered() == ints.centered()
        other = Polynomial.from_canonical(
            ring, [(coeffs[0] + 1) % q] + coeffs[1:]
        )
        assert words != other and other != words
        assert words != ring.unpack(other.pack())


def _three_forms(n: int, towers: int, seed: int):
    """The same coefficients as an int-, a word- and a tower-backed
    polynomial over ``q`` = the product of ``towers`` 30-bit NTT primes."""
    primes = [ntt_friendly_prime(n, 30)]
    while len(primes) < towers:
        primes.append(next_smaller_ntt_prime(primes[-1], n))
    basis = RnsBasis(primes)
    ring, rns = _ring(n, basis.modulus), require_engine(basis, n)
    coeffs = _coeffs(seed, n, basis.modulus)
    ints = Polynomial.from_canonical(ring, coeffs)
    words = ring.unpack(_packed(coeffs, ring.coeff_byte_width))
    tower = Polynomial.from_towers(ring, rns, rns.decompose(coeffs))
    return ints, words, tower


class TestThreeFormsAgree:
    """Int-, word- and tower-backed operands, mixed in every pairing."""

    @given(
        n=st.sampled_from(DEGREES), towers=st.integers(1, 4),
        seed=st.integers(0, 2**32), other=st.integers(0, 2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_view_and_op_agrees(self, n, towers, seed, other):
        forms = _three_forms(n, towers, seed)
        seconds = _three_forms(n, towers, other)
        ints = forms[0]
        for p in forms:
            assert p.coeffs == ints.coeffs
            assert p.pack() == ints.pack()
            assert p.centered() == ints.centered()
            assert (-p).coeffs == (-ints).coeffs
            assert p.scalar_mul(-7).coeffs == ints.scalar_mul(-7).coeffs
            for r in forms:
                assert p == r and hash(p) == hash(r)
            for b in seconds:
                assert (p + b).coeffs == (ints + seconds[0]).coeffs
                assert (p - b).coeffs == (ints - seconds[0]).coeffs
                if seconds[0].coeffs != ints.coeffs:
                    assert p != b

    @pytest.mark.parametrize("towers", (1, 2, 3, 4))
    def test_hash_and_pack_build_no_python_ints(self, towers):
        """A tower-backed polynomial packs, hashes and compares through
        its words; only ``coeffs`` builds Python ints."""
        ints, words, tower = _three_forms(4096, towers, towers)
        assert hash(tower) == hash(words) and tower == words
        assert tower.pack() == words.pack()
        assert tower._coeffs is None and words._coeffs is None
        assert tower.words.shape == words.words.shape
        assert np.array_equal(tower.words, words.words)

    @pytest.mark.parametrize("towers", (1, 3))
    def test_tower_ops_stay_tower_backed(self, towers):
        ints, words, tower = _three_forms(16, towers, 5)
        rns = tower._rns
        for out in (tower + words, ints - tower, -tower, tower.scalar_mul(3),
                    words.on_towers(rns), ints.on_towers(rns)):
            assert out._towers is not None and out._coeffs is None
        assert tower.on_towers(rns) is tower
        assert np.array_equal(words.on_towers(rns)._towers, tower._towers)


class TestDecomposeWords:
    @given(
        n=st.sampled_from(DEGREES), q=moduli, towers=st.integers(1, 7),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_decompose_of_the_centred_lift(
        self, aux_engines, n, q, towers, seed
    ):
        eng = aux_engines[n].select(range(towers))
        ints = Polynomial.from_canonical(_ring(n, q), _coeffs(seed, n, q))
        words = ints.ring.unpack(ints.pack())
        got = eng.decompose_centered(words)
        assert got.dtype == np.uint32
        assert np.array_equal(got, eng.decompose(ints.centered()))
        assert np.array_equal(eng.decompose_centered(ints), got)


class TestBigintRuns:
    """A version-1/2 kind-1 plain constant run decodes in one pass, with the
    values, cursor and truncation errors of one ``bigint`` call each."""

    @given(
        values=st.lists(
            st.one_of(
                st.integers(0, 0xFFFF), st.integers(0, 2**130),
                st.just(0),
            ),
            max_size=8,
        ),
        extra=st.integers(0, 2),
        cut=st.integers(0, 200),
        trailing=st.binary(max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_repeated_bigint(self, values, extra, cut, trailing):
        body = (b"".join(_bigint(v) for v in values) + trailing)[:cut]
        count = len(values) + extra

        def decode(run):
            reader = _Reader(body)
            try:
                return run(reader), reader._pos
            except WireFormatError as exc:
                return str(exc)

        assert decode(lambda r: r.bigints(count)) == decode(
            lambda r: tuple(r.bigint() for _ in range(count))
        )
