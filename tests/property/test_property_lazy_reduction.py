"""Property suite: the engine's modular sums at their worst case.

Every modular sum on the engine's served path is one call into the C
kernels (:mod:`repro.polymath.kernels`), which keep each accumulator
below :data:`~repro.polymath.kernels.ACC_BOUND` times its modulus, one
32-bit word. Each site runs here at its largest term count on 30-bit
towers, the widest the engine takes, with all-(q-1) operands, so every
partial sum sits at that bound; results are compared bit for bit with
exact Python-int arithmetic kept in this file. The term counts are the
edges of the int64/uint64 sums the kernels replaced: nine towers of q
(one past eight residue products), 8, 9 and 17 key-switch digits, and
four-word (120-bit) coefficients (one past three word terms). The
kernels' ``a mod q`` of any 64-bit word,
:func:`~repro.polymath.kernels.reduce`, is checked first against
``np.remainder`` at those sums' edges.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polymath import kernels
from repro.polymath.engine import MAX_MODULUS_BITS, BatchedRnsEngine
from repro.polymath.ntt import NttContext
from repro.polymath.poly import Polynomial, PolynomialRing
from repro.polymath.primes import next_smaller_ntt_prime, ntt_friendly_prime
from repro.polymath.rns import RnsBasis

N = 16


def _primes(count: int, bits: int = MAX_MODULUS_BITS) -> list[int]:
    """The ``count`` largest ``bits``-bit NTT-friendly primes at ``N``."""
    out = [ntt_friendly_prime(N, bits)]
    while len(out) < count:
        out.append(next_smaller_ntt_prime(out[-1], N))
    return out


#: q's towers for the wide scale-and-round: one past eight products.
HEAD = 9
#: HEAD towers of q, then an extension wide enough to carry c / q.
PRIMES = _primes(2 * HEAD + 1)
WIDE = BatchedRnsEngine(RnsBasis(PRIMES), N)
Q_HEAD = prod(PRIMES[:HEAD])


def _full(shape, moduli) -> np.ndarray:
    """All-(q-1) residues, tower axis second to last."""
    col = np.asarray(moduli, dtype=np.int64)[:, None] - 1
    return np.broadcast_to(col, (*shape, len(moduli), N)).copy()


def _crt(residues, moduli) -> int:
    total = prod(moduli)
    return sum(
        r * (total // m) * pow(total // m, -1, m) for r, m in zip(residues, moduli)
    ) % total


def _centered(c: int, q: int) -> int:
    return c - q if c > q // 2 else c


def _round_half_away(x: int, q: int) -> int:
    """``round(x / q)``, halves away from zero."""
    return (2 * x + q) // (2 * q) if x >= 0 else -((-2 * x + q) // (2 * q))


def _inverse_const(value: int, q: int) -> list[int]:
    """The iNTT of the constant ``value`` mod ``q`` (what a Hadamard sum
    of all-(q-1) NTT operands turns into)."""
    return NttContext(N, q).inverse([value % q] * N)


def test_accumulators_fit_a_word():
    """The kernels' stated bound: every accumulator is below ``ACC_BOUND
    q``, one ``uint32`` word at the widest tower."""
    assert kernels.ACC_BOUND * ((1 << MAX_MODULUS_BITS) - 1) < 1 << 32


def _mod_values(dtype, q_max: int) -> list[int]:
    """Edge values for :func:`~repro.polymath.kernels.reduce` in
    ``dtype``: zero and units, the moduli's neighbours, the largest sum
    of 8 residue products (signed) or 3 word terms (unsigned) plus a
    residue, and the dtype's extremes."""
    if dtype is np.int64:
        top = 8 * (q_max - 1) ** 2 + q_max - 1
        ends = [(1 << 63) - 1, (1 << 63) - q_max, -(1 << 63), -(1 << 63) + 1]
        base = [0, 1, q_max - 1, q_max, top, top - 1]
        return base + [-v for v in base] + ends
    top = 3 * ((1 << 32) - 1) * (q_max - 1) + q_max - 1
    return [0, 1, q_max - 1, q_max, top, top - 1, (1 << 64) - 1, 1 << 63]


def _reduce_moduli(moduli, column: bool) -> kernels.Moduli:
    """One modulus per tower, or the first on every tower."""
    return kernels.Moduli.of(tuple(moduli) if column else (moduli[0],) * 3)


@given(
    bits=st.sampled_from([17, MAX_MODULUS_BITS]),
    dtype=st.sampled_from([np.int64, np.uint64]),
    column=st.booleans(),
    batch=st.sampled_from([(), (2,)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_reduce_is_numpy_remainder(bits, dtype, column, batch, seed):
    """``reduce`` equals ``np.remainder`` bit for bit, for one modulus
    on every tower or one per tower, on 2-D and 3-D stacks."""
    moduli = _primes(3, bits)
    mods = _reduce_moduli(moduli, column)
    q = np.asarray(mods.moduli, dtype)[:, None]
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    edges = np.asarray(_mod_values(dtype, max(moduli)), dtype=object)
    a = np.concatenate([
        edges.astype(dtype),
        rng.integers(info.min, info.max, N, dtype=dtype, endpoint=True),
    ])
    a = np.resize(rng.permutation(a), (*batch, 3, 2 * N)).astype(dtype)
    want = np.remainder(a, q)
    got = kernels.reduce(a, mods)
    assert got.dtype == np.uint32 and got.tolist() == want.tolist()


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("words", [2047, 2048])
def test_reduce_is_numpy_remainder_on_long_towers(dtype, column, words):
    """Towers of 2,047 and 2,048 words, a row or a stack: ``reduce``
    equals ``np.remainder`` on the edge values."""
    moduli = _primes(3)
    mods = _reduce_moduli(moduli, column)
    q = np.asarray(mods.moduli, dtype)[:, None]
    info = np.iinfo(dtype)
    rng = np.random.default_rng(words)
    edges = np.asarray(_mod_values(dtype, max(moduli)), dtype=object)
    a = np.concatenate([
        edges.astype(dtype),
        rng.integers(info.min, info.max, 3 * words, dtype=dtype,
                     endpoint=True),
    ])[: 3 * words].reshape(3, words)
    if not column:
        a = a[0]
    want = np.remainder(a, q)
    assert kernels.reduce(a, mods).tolist() == want.tolist()


def test_reduce_broadcasts_a_row_against_the_column():
    """One coefficient row against ``(L, 1)`` moduli: ``(L, n)`` out."""
    q = np.asarray(PRIMES[:3], np.int64)[:, None]
    row = np.arange(-N, N, dtype=np.int64) * (1 << 58)
    got = kernels.reduce(row, kernels.Moduli.of(tuple(PRIMES[:3])))
    assert got.tolist() == np.remainder(row, q).tolist()


@pytest.mark.parametrize("towers", [2, 3, HEAD, len(PRIMES)])
def test_mixed_radix_all_max(towers):
    """Digit ``k`` sums ``k + 1`` products: all-(q-1) residues are the
    value ``P - 1``, whose Garner digits are all ``q_k - 1``."""
    eng = WIDE.select(range(towers))
    moduli = PRIMES[:towers]
    rng = np.random.default_rng(towers)
    stacks = np.concatenate([
        _full((1,), moduli),
        rng.integers(0, np.asarray(moduli)[:, None], (3, towers, N)),
    ])
    got = eng._mixed_radix(stacks)
    for b in range(len(stacks)):
        for j in range(N):
            v = _crt([int(r) for r in stacks[b, :, j]], moduli)
            want = []
            for m in moduli:
                v, d = divmod(v, m)
                want.append(d)
            assert got[b, :, j].tolist() == want


@pytest.mark.parametrize("head", [1, 3, HEAD])
def test_scale_round_all_max_extension_digits(head):
    """A centred ``c`` in ``[-q, 0)`` has ``u = (c - v) / q = -1``: every
    Garner digit of ``u`` on the extension is ``p - 1``, so converting
    it back to q's towers sums ``L - head`` maximal products, and the
    sign correction adds ``-E``."""
    q = prod(PRIMES[:head])
    rng = np.random.default_rng(head)
    values = [-1, -q, -q + 1, -(q // 2), -(q // 2) - 1]
    values += [-1 - (q - 1) * int(x) // (1 << 40) for x in
               rng.integers(0, 1 << 40, N - len(values))]
    assert all(-q <= c < 0 for c in values)
    for t in (2, 65537):
        got = WIDE.scale_round(WIDE.decompose(values)[None], t, head)[0]
        want = [_round_half_away(t * c, q) % q for c in values]
        assert got.tolist() == [[w % p for w in want] for p in PRIMES[:head]]


def _tensor_edge_values(t: int) -> list[int]:
    """Centred tensor values at the scale-and-round edges: zero, units,
    the tensor bound, values a hair off a rounding half (the exact
    fallback), and draws across the bound."""
    bound = 2 * N * (Q_HEAD // 2) ** 2
    halves = [s * ((2 * m + 1) * Q_HEAD // (2 * t) + d)
              for s in (1, -1) for m in (0, 12345) for d in (-1, 0, 1)]
    rng = np.random.default_rng(t)
    drawn = [int(x) * (bound >> 62) for x in rng.integers(-(1 << 62), 1 << 62, 6)]
    return [0, 1, -1, bound, -bound, bound - 1, -bound + 1,
            Q_HEAD - 1, -(Q_HEAD - 1), *halves, *drawn]


@pytest.mark.parametrize("t", [2, 65537])
def test_scale_round_matches_round_scale_past_the_budget(t):
    """``scale_round`` on ``HEAD`` = 9 towers of q equals the object
    path :meth:`round_scale` and the Python-int rounding."""
    values = _tensor_edge_values(t)
    values += [0] * (-len(values) % N)
    rows = [values[i : i + N] for i in range(0, len(values), N)]
    stacks = np.stack([WIDE.decompose(r) for r in rows])
    stacks = np.concatenate([stacks, _full((1,), PRIMES)])  # c = -1
    rows.append([-1] * N)
    got = WIDE.scale_round(stacks, t, HEAD)
    objects = WIDE.round_scale(stacks, t, Q_HEAD)
    for b, row in enumerate(rows):
        want = [_round_half_away(t * c, Q_HEAD) % Q_HEAD for c in row]
        assert objects[b] == want
        assert got[b].tolist() == [[w % p for w in want] for p in PRIMES[:HEAD]]


@pytest.mark.parametrize("square", [False, True])
def test_tensor_cross_term_all_max(square):
    """NTT operands all ``q - 1``: the cross term sums two maximal
    products (or doubles one), the outer ones take one each."""
    eng = WIDE.select(range(7))
    moduli = eng.basis.moduli
    operands = eng.inverse(_full((2 if square else 4,), moduli))
    out = eng.tensor_square(*operands) if square else eng.tensor(*operands)
    assert isinstance(out, tuple) and len(out) == 3
    for y, scale in zip(out, (1, 2, 1)):
        for i, q in enumerate(moduli):
            assert y[i].tolist() == _inverse_const(scale * (q - 1) ** 2, q)


@pytest.mark.parametrize("digits", [8, 9, 17])
def test_keyswitch_fold_all_max(digits):
    """``D`` digit-times-key products per fold: all ``q - 1`` in the NTT
    domain on both sides, at 8, 8 + 1 and 2 * 8 + 1 terms."""
    eng = WIDE.select(range(3))
    moduli = eng.basis.moduli
    jobs = 2
    rows = eng.inverse(_full((jobs * digits,), moduli))
    key = _full((2, digits), moduli).astype(np.uint32)
    out = eng.keyswitch(rows.reshape(jobs, digits, 3, N), key)
    assert out.shape == (2, jobs, 3, N)
    for i, q in enumerate(moduli):
        want = _inverse_const(digits * (q - 1) ** 2, q)
        assert all(r.tolist() == want for r in out[:, :, i].reshape(-1, N))


def _edge_coeffs(q: int) -> list[int]:
    return [0, 1, q // 2, q // 2 + 1, q - 1]


@pytest.mark.parametrize("q", [
    prod(PRIMES[:3]),  # 90 bits: 3 words, the bench's
    prod(PRIMES[:4]),  # 120 bits: 4 words, one past 3 word terms
    (1 << 128) - 1,    # every word bit of q - 1 but the lowest set
])
def test_decompose_centered_all_max_words(q):
    ring = PolynomialRing(N, q, allow_non_ntt=True)
    coeffs = (_edge_coeffs(q) * N)[:N]
    poly = Polynomial(ring, coeffs)
    got = WIDE.decompose_centered(poly)
    assert got.dtype == np.uint32
    assert got.tolist() == [
        [_centered(c, q) % p for c in coeffs] for p in PRIMES
    ]


def test_digit_rows_past_the_word_budget():
    """100-bit digits read 4 chunks each: one more than 3 word terms."""
    eng = WIDE.select(range(4))
    value = (1 << 200) - 1
    coeffs = [value, value - 1, 0, 1 << 199] * (N // 4)
    got = eng.digit_decompose(coeffs, 100, 2)
    for i in range(2):
        for t, p in enumerate(eng.basis.moduli):
            assert got[i, t].tolist() == [
                (c >> (100 * i) & ((1 << 100) - 1)) % p for c in coeffs
            ]


def test_combine_all_max():
    """Add, sub and neg of tower-backed residues: values in ``(-q, 2q)``
    take one conditional ``+q`` or ``-q``."""
    eng = WIDE.select(range(3))
    moduli = eng.basis.moduli
    q = eng.modulus
    ring = PolynomialRing(N, q, allow_non_ntt=True)
    top = Polynomial.from_towers(ring, eng, _full((), moduli))
    zero = Polynomial.from_towers(ring, eng, np.zeros((3, N), np.int64))
    one = Polynomial(ring, [1] * N)  # int-backed: decomposed on the fly
    cases = {
        "top+top": (top + top, 2 * (q - 1)),
        "zero-top": (zero - top, -(q - 1)),
        "top-zero": (top - zero, q - 1),
        "top+one": (top + one, q),
        "-top": (-top, -(q - 1)),
        "-zero": (-zero, 0),
    }
    for name, (poly, value) in cases.items():
        assert poly._towers.tolist() == [[value % p] * N for p in moduli], name
        assert poly.coeffs == (value % q,) * N, name


@st.composite
def _four_word_case(draw):
    q = draw(st.one_of(
        st.sampled_from([prod(PRIMES[:4]), (1 << 128) - 1, (1 << 128) - 3]),
        st.integers((1 << 96) + 1, (1 << 128) - 1).map(lambda x: x | 1),
    ))
    coeffs = draw(st.lists(
        st.sampled_from(_edge_coeffs(q)), min_size=N, max_size=N
    ))
    return q, coeffs


@given(_four_word_case())
@settings(max_examples=60, deadline=None)
def test_decompose_centered_four_word_moduli(case):
    """Four 32-bit words per coefficient, one more than 3 word terms:
    the word sum still equals the centred lift."""
    q, coeffs = case
    poly = Polynomial(PolynomialRing(N, q, allow_non_ntt=True), coeffs)
    assert poly.words.shape == (N, 4)
    got = WIDE.decompose_centered(poly)
    assert got.tolist() == [
        [_centered(c, q) % p for c in coeffs] for p in PRIMES
    ]
