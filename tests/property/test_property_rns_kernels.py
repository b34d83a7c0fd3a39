"""The RNS boundary kernels against object-int references.

Each change of representation on the served path is one ``ntt.c``
kernel (:mod:`repro.polymath.kernels`): wire words to centred residues
(``centre``), Eq. 4's scale-and-round (``scale_round``), canonical
coefficients to key-switch digits (``digits``) and towers to packed
bytes or words (``pack``). Each runs here against Python-int arithmetic:
the centred lift, ``Bfv``'s ``_round_div``, ``int.to_bytes`` and
``Bfv._decompose_digits``. Coefficient widths of 3, 5, 8, 10 and 12
bytes (20- and 30-bit towers) cover every width modulo 4; every draw
includes 0, ``q - 1`` and the centred lift's edges, both signs where a
value is signed. ``n = 8`` runs the word-by-word loops, ``n >= 16`` the
vector paths on AVX-512.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bfv import Bfv, BfvParameters
from repro.bfv.scheme import _round_div
from repro.polymath import kernels
from repro.polymath.engine import BatchedRnsEngine, require_engine
from repro.polymath.fastntt import RnsExactMultiplier
from repro.polymath.poly import Polynomial, PolynomialRing, _packed_words
from repro.polymath.rns import RnsBasis, plan_towers

DEGREES = (8, 16, 4096)
#: (towers, bits): q of 20, 40, 60, 80 and 90 bits, 3, 5, 8, 10 and 12
#: bytes a coefficient.
WIDTHS = ((1, 20), (2, 20), (3, 20), (4, 20), (3, 30))


def _engine(n: int, towers: int, bits: int) -> BatchedRnsEngine:
    return require_engine(RnsBasis(plan_towers(towers * bits, bits, n)), n)


def _canonical(q: int, n: int, seed: int) -> list[int]:
    """``n`` values in ``[0, q)``: the edges, then uniform draws."""
    edges = [0, q - 1, q // 2, q // 2 + 1, 1, q - 2]
    rng = np.random.default_rng(seed)
    drawn = [int(x) * q >> 62 for x in rng.integers(0, 1 << 62, n)]
    return (edges + drawn)[:n]


def _centred(c: int, q: int) -> int:
    return c - q if c > q // 2 else c


@pytest.mark.parametrize("towers,bits", WIDTHS)
@pytest.mark.parametrize("n", DEGREES)
def test_pack_is_int_to_bytes(n, towers, bits):
    """A tower-backed polynomial's bytes and words are its canonical
    coefficients' fixed-width big-endian forms."""
    eng = _engine(n, towers, bits)
    q = eng.modulus
    ring = PolynomialRing(n, q, allow_non_ntt=True)
    values = _canonical(q, n, n + towers)
    poly = Polynomial.from_towers(ring, eng, eng.decompose(values))
    width = ring.coeff_byte_width
    data = b"".join(v.to_bytes(width, "big") for v in values)
    assert type(poly.pack()) is bytes
    assert poly.pack() == data
    words = Polynomial.from_towers(ring, eng, eng.decompose(values)).words
    assert np.array_equal(words, _packed_words(data, n, width))
    assert words.T.flags.c_contiguous


@pytest.mark.parametrize("towers,bits", WIDTHS)
@pytest.mark.parametrize("n", DEGREES)
def test_centre_is_the_centred_lift(n, towers, bits):
    """Word-, int- and tower-backed operands of one ring, in one call,
    land on a wider basis as ``c - q`` above ``q/2``, else ``c``."""
    source = _engine(n, towers, bits)
    target = _engine(n, towers + 2, 30)
    q = source.modulus
    ring = PolynomialRing(n, q, allow_non_ntt=True)
    values = [_canonical(q, n, n + k) for k in range(3)]
    wire = ring.unpack(Polynomial(ring, values[0]).pack())
    ints = Polynomial.from_canonical(ring, values[1])
    towered = Polynomial.from_towers(ring, source, source.decompose(values[2]))
    got = target.centred([wire, ints, towered])
    assert got.shape == (3, target.num_towers, n) and got.dtype == np.uint32
    for row, vals in zip(got, values):
        assert row.tolist() == [
            [_centred(c, q) % p for c in vals] for p in target.basis.moduli
        ]
    assert np.array_equal(target.decompose_centered(wire), got[0])


def _signed(q: int, bound: int, n: int, seed: int) -> list[int]:
    """Centred tensor values: zero, units, ``+-(q - 1)``, the bound, and
    uniform draws across it, both signs."""
    edges = [0, 1, -1, q - 1, -(q - 1), bound, -bound, q // 2, -(q // 2)]
    rng = np.random.default_rng(seed)
    drawn = [int(x) * bound >> 61 for x in
             rng.integers(-(1 << 61), 1 << 61, n, endpoint=True)]
    return (edges + drawn)[:n]


@pytest.mark.parametrize("t", [2, 65537, (1 << 32) - 5])
@pytest.mark.parametrize("head", [1, 2, 3])
@pytest.mark.parametrize("n", DEGREES)
def test_scale_round_is_round_div(n, head, t):
    """Two stacks of centred values, the second mixed with values next to
    a half (the exact fallback's columns): ``round(t c / q) mod q_i``."""
    eng = RnsExactMultiplier(
        n, RnsBasis(plan_towers(30 * head, 30, n))
    ).tensor_engine
    q = eng.select(range(head)).modulus
    bound = 2 * n * (q // 2) ** 2
    values = [_signed(q, bound, n, n + t), _signed(q, bound, n, n * t + 1)]
    root = (q + 1) // 2 * pow(t, -1, q) % q
    values[1][-4:] = [root, root - q, root + 3 * q, root - 5 * q]
    got = eng.scale_round(np.stack([eng.decompose(v) for v in values]), t, head)
    assert got.shape == (2, head, n)
    for rows, vals in zip(got, values):
        want = [_round_div(t * c, q) for c in vals]
        assert rows.tolist() == [[w % p for w in want]
                                 for p in eng.basis.moduli[:head]]


@pytest.mark.parametrize("digit_bits", [8, 30, 33, 64])
@pytest.mark.parametrize("towers,bits", [(2, 20), (3, 20), (3, 30)])
@pytest.mark.parametrize("n", DEGREES)
def test_digits_are_decompose_digits(n, towers, bits, digit_bits):
    """Key-switch digits of a tower-backed and of a word-backed polynomial
    equal ``Bfv._decompose_digits``, digit by digit and tower by tower."""
    params = BfvParameters.toy_rns(n=n, towers=towers, tower_bits=bits)
    bfv = Bfv(params)
    eng = require_engine(params.q_basis, n)
    q = params.q
    key = SimpleNamespace(digit_bits=digit_bits,
                          num_digits=-(-q.bit_length() // digit_bits))
    values = _canonical(q, n, n * digit_bits)
    towered = Polynomial.from_towers(bfv.ring, eng, eng.decompose(values))
    wire = bfv.ring.unpack(towered.pack())
    want = np.asarray([
        [[d % p for d in digit.coeffs] for p in eng.basis.moduli]
        for digit in bfv._decompose_digits(wire, key)
    ])
    got = eng.key_digits([towered, wire], digit_bits, key.num_digits)
    assert got.shape == (2, key.num_digits, towers, n)
    assert np.array_equal(got[0], want) and np.array_equal(got[1], want)
    assert np.array_equal(eng.digit_rows(wire.words, digit_bits,
                                         key.num_digits), want)


def test_mismatched_shapes_are_refused():
    eng = _engine(16, 2, 20)
    ring = PolynomialRing(16, eng.modulus, allow_non_ntt=True)
    other = PolynomialRing(16, eng.modulus + 2, allow_non_ntt=True)
    with pytest.raises(ValueError):  # two rings
        eng.centred([ring.zero(), other.zero()])
    with pytest.raises(ValueError):  # another degree
        eng.centred([PolynomialRing(32, eng.modulus, allow_non_ntt=True).zero()])
    tensor = RnsExactMultiplier(16, eng.basis).tensor_engine
    qe, table = tensor._split(2)
    stack = np.zeros((1, tensor.num_towers, 16), np.uint32)
    with pytest.raises(ValueError):  # t past one word: the exact branch's
        kernels.scale_round(stack, 2, 1 << 32, table, qe._mods.times(3),
                            tensor._mods)
    with pytest.raises(ValueError):  # no extension
        kernels.scale_round(stack, tensor.num_towers, 3, table,
                            qe._mods.times(3), tensor._mods)
    with pytest.raises(ValueError):  # digits of another basis
        kernels.digits(np.empty((2, 3, 16), np.uint32), stack[0], 8,
                       eng._radix(1), eng._mods, eng._garner)


def test_a_row_of_any_length_runs_in_tiles():
    """A row of 24 words is a vector tile and 8 words lane by lane: the
    same words as its two parts run alone."""
    eng = RnsExactMultiplier(
        16, RnsBasis(plan_towers(60, 30, 16))
    ).tensor_engine
    qe, table = eng._split(2)
    moduli = np.asarray(eng.basis.moduli)[:, None]
    a = np.random.default_rng(24).integers(
        0, moduli, (2, eng.num_towers, 24)
    ).astype(np.uint32)

    def parts(run):
        whole = run(a)
        return whole, [run(np.ascontiguousarray(a[..., s])) for s in
                       (np.s_[:16], np.s_[16:])]

    whole, (head, tail) = parts(lambda x: kernels.scale_round(
        x, 2, 65537, table, qe._mods.times(65537), eng._mods)[0])
    assert np.array_equal(whole, np.concatenate([head, tail], axis=-1))
    whole, (head, tail) = parts(lambda x: np.frombuffer(kernels.pack(
        x[0], 28, eng._garner, eng._mods), np.uint8).reshape(-1, 28))
    assert np.array_equal(whole, np.concatenate([head, tail]))
