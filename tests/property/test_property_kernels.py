"""Property suite: each C residue kernel against the reference it replaces.

Every kernel of :mod:`repro.polymath.kernels` is run on two towers, the
smallest NTT-friendly prime :func:`~repro.polymath.kernels.fits` accepts
at the degree and the largest 30-bit one, at ``n`` in ``{2, 16, 4096,
2^14}``, on random inputs and on all-maximal ones (every residue ``q -
1``, every free word ``2^32 - 1``), where each accumulator reaches its
worst case. The reference of the NTT is
:class:`~repro.polymath.ntt.NttContext`'s pure-Python transform; that of
every other kernel the exact numpy ``uint64``/``int64`` expression it
took over: products below ``2^60`` and one ``%`` per term. The replay
reads bank words of any 64-bit value mod ``q``. An ``x86-64-v3`` build
with the shipped flags otherwise, which takes the word-by-word loops,
gives the native build's words, the RNS boundary kernels' (checked
against Python ints in ``test_property_rns_kernels.py``) included.
"""

import platform
import subprocess
from math import prod
from pathlib import Path

import numpy as np
import pytest

from repro.polymath import kernels
from repro.polymath.engine import require_engine
from repro.polymath.fastntt import RnsExactMultiplier
from repro.polymath.ntt import NttContext
from repro.polymath.primes import is_prime, ntt_friendly_prime
from repro.polymath.rns import RnsBasis

DEGREES = (2, 16, 4096, 1 << 14)
FILLS = ("random", "max")
U32 = (1 << 32) - 1


def _smallest_prime(n: int) -> int:
    """The smallest prime ``q = 1 mod 2n``."""
    q = 2 * n + 1
    while not is_prime(q):
        q += 2 * n
    return q


def _moduli(n: int) -> kernels.Moduli:
    small, large = _smallest_prime(n), ntt_friendly_prime(n, 30)
    assert kernels.fits(small) and large.bit_length() == 30
    return kernels.Moduli.of((small, large))


def _q(mods: kernels.Moduli) -> np.ndarray:
    return np.asarray(mods.moduli, dtype=np.uint64)[:, None]


def _residues(mods, shape, fill, seed) -> np.ndarray:
    """``(..., L, n)`` residues below each tower: random or all ``q - 1``."""
    q = _q(mods)
    if fill == "max":
        return np.broadcast_to(q - 1, shape).astype(np.uint32)
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, shape, dtype=np.uint64).astype(np.uint32)


def _words(shape, fill, seed) -> np.ndarray:
    """Free 32-bit words: random or all ``2^32 - 1``."""
    if fill == "max":
        return np.full(shape, U32, dtype=np.uint32)
    return np.random.default_rng(seed).integers(
        0, U32, shape, dtype=np.uint32, endpoint=True
    )


def _constants(mods, shape, fill, seed) -> np.ndarray:
    """``(L, ...)`` integers below each tower, as ``uint64``."""
    q = np.asarray(mods.moduli, dtype=np.uint64).reshape(-1, *[1] * (len(shape) - 1))
    if fill == "max":
        return np.broadcast_to(q - 1, shape).copy()
    return np.random.default_rng(seed).integers(0, q, shape, dtype=np.uint64)


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_transform_is_the_nttcontext_transform(n, fill):
    """Two rows per tower, forward and inverse, the inverse ending with
    ``n^-1`` and with no scale (1): each row is ``NttContext``'s. The
    kernel keeps words lazily below ``4q`` forward and ``2q`` inverse, and
    takes input words that high: ``x + 3q`` forward and ``x + q``
    inverse give ``x``'s results. The all-``(q - 1)`` fill on the 30-bit
    tower puts every butterfly at those bounds."""
    mods = _moduli(n)
    q = _q(mods)
    contexts = [NttContext(n, m) for m in mods.moduli]
    psi = np.asarray([c._psi_brv for c in contexts], dtype=np.uint64)
    x = _residues(mods, (2, 2, n), fill, n)
    rows = x.tolist()
    forward = kernels.NttTables.derive(psi, mods.moduli)
    want = [[c.forward(r) for c, r in zip(contexts, row)] for row in rows]
    for lift in (0, 3):
        assert kernels.transform(x + lift * q.astype(np.uint32),
                                 forward).tolist() == want
    want = [[c.inverse(r) for c, r in zip(contexts, row)] for row in rows]
    unscaled = [[[v * n % m for v in r] for m, r in zip(mods.moduli, row)]
                for row in want]
    for scale, expect in (([c.n_inv for c in contexts], want),
                          (None, unscaled)):
        inverse = kernels.NttTables.derive(psi, mods.moduli, inverse=True,
                                           scale=scale)
        for lift in (0, 1):
            assert kernels.transform(x + lift * q.astype(np.uint32),
                                     inverse).tolist() == expect


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_reduce_is_remainder_times_scale(n, fill):
    """``reduce`` is ``np.remainder(a, q) * s % q`` for signed and
    unsigned 64-bit words."""
    mods = _moduli(n)
    q = _q(mods)
    scale = _constants(mods, (2,), fill, n)
    for dtype in (np.int64, np.uint64):
        info = np.iinfo(dtype)
        if fill == "max":
            ends = [info.min, info.min + 1, info.max, info.max - 1]
            a = np.resize(np.asarray(ends, dtype=dtype), (3, 2, n))
        else:
            a = np.random.default_rng(n).integers(
                info.min, info.max, (3, 2, n), dtype=dtype, endpoint=True
            )
        want = np.remainder(a, q.astype(dtype)).astype(np.uint64) * scale[:, None] % q
        got = kernels.reduce(a, mods, mods.constants(scale.tolist()))
        assert got.dtype == np.uint32
        assert np.array_equal(got, want)


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_multiply_is_the_product_mod_q(n, fill):
    mods = _moduli(n)
    a = _residues(mods, (3, 2, n), fill, n)
    b = _residues(mods, (3, 2, n), fill, n + 1)
    want = a.astype(np.uint64) * b % _q(mods)
    assert np.array_equal(kernels.multiply(a, b, mods), want)


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_tensor_is_the_eq4_products(n, fill):
    mods = _moduli(n)
    q = _q(mods)
    f = _residues(mods, (4, 2, n), fill, n).astype(np.uint64)
    a0, a1, b0, b1 = f
    want = [a0 * b0 % q, (a0 * b1 % q + a1 * b0 % q) % q, a1 * b1 % q]
    assert np.array_equal(kernels.tensor(f, mods), want)
    g = np.ascontiguousarray(f, np.uint32)  # rows 0-2 take the products
    assert kernels.tensor(g, mods, g[:3]).base is g
    assert np.array_equal(g[:3], want) and np.array_equal(g[3], b1)
    squared = [a0 * a0 % q, 2 * (a0 * a1 % q) % q, a1 * a1 % q]
    assert np.array_equal(kernels.tensor(f[:2], mods), squared)


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_keyswitch_is_the_digit_key_inner_product(n, fill):
    """17 digits, two jobs: ``sum_d x[j, d] key[s, d] mod q``."""
    mods = _moduli(n)
    q = _q(mods)
    jobs, digits = 2, 17
    x = _residues(mods, (jobs, digits, 2, n), fill, n).astype(np.uint64)
    key = _residues(mods, (2, digits, 2, n), fill, n + 1).astype(np.uint64)
    want = np.zeros((2, jobs, 2, n), dtype=np.uint64)
    for d in range(digits):
        want = (want + x[None, :, d] * key[:, None, d] % q) % q
    assert np.array_equal(kernels.keyswitch(x, key, mods), want)


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_garner_is_the_mixed_radix_recurrence(n, fill):
    """``d_k = (a_k c_kk + sum_{i<k} d_i c_ki) mod q_k`` over three towers:
    the two, then a 29-bit one."""
    small, large = _moduli(n).moduli
    mods = kernels.Moduli.of((small, large, ntt_friendly_prime(n, 29)))
    q = np.asarray(mods.moduli, dtype=np.uint64)
    a = _residues(mods, (2, 3, n), fill, n).astype(np.uint64)
    c = _constants(mods, (3, 3), fill, n)
    want = np.zeros_like(a)
    for k in range(3):
        want[:, k] = a[:, k] * c[k, k] % q[k]
        for i in range(k):
            want[:, k] = (want[:, k] + want[:, i] % q[k] * c[k, i] % q[k]) % q[k]
    assert np.array_equal(kernels.garner(a, mods.constants(c.tolist()), mods),
                          want)


def _banks(n, fill, q, seed) -> tuple[np.ndarray, np.ndarray]:
    """Two ``uint64`` banks of ``3n`` words (an MDMC's): one of any 64-bit
    words, random or all ``2^64 - 1``, which the replay reduces, and one
    of residues below ``q``, random or all ``q - 1``, which it narrows."""
    if fill == "max":
        return (np.full(3 * n, (1 << 64) - 1, np.uint64),
                np.full(3 * n, q - 1, np.uint64))
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 1 << 64, 3 * n, np.uint64, endpoint=False),
            rng.integers(0, q, 3 * n, np.uint64))


def _replay_case(n, fill):
    """Per tower, a one-level program of every replay opcode over rows of
    both :func:`_banks` at unaligned offsets, its output bank, and the
    results each group must store, from the words mod ``q``."""
    for q in _moduli(n).moduli:
        wide, narrow = _banks(n, fill, q, n)
        a_rows, b_rows = [(wide, 0), (wide, n + 1)], [(narrow, 2 * n), (narrow, 3)]
        a = np.stack([w[at : at + n] for w, at in a_rows]) % np.uint64(q)
        b = np.stack([w[at : at + n] for w, at in b_rows]) % np.uint64(q)
        context = NttContext(n, q)
        psi = np.asarray([context._psi_brv], dtype=np.uint64)
        forward = kernels.NttTables.derive(psi, [q])
        inverse = kernels.NttTables.derive(psi, [q], inverse=True,
                                           scale=[context.n_inv])
        mods = kernels.Moduli.of((q, q))
        c = _constants(mods, (2,), fill, n)
        groups = [
            ("NTT", a_rows, [], forward, None,
             kernels.transform(a[:, None], forward)[:, 0]),
            ("INTT", b_rows, [], inverse, mods.constants([context.n_inv] * 2),
             kernels.transform(b[:, None], inverse)[:, 0]),
            ("PMODMUL", a_rows, b_rows, None, None, a * b % q),
            ("PMODSQR", a_rows, [], None, None, a * a % q),
            ("PMODADD", a_rows, b_rows, None, None, (a + b) % q),
            ("PMODSUB", a_rows, b_rows, None, None, (a + q - b) % q),
            ("CMODMUL", b_rows, [], None, mods.constants(c.tolist()),
             b * c[:, None] % q),
        ]
        out = np.zeros(2 * len(groups) * n, np.uint64)
        level = [(op, x, y, [(out, (2 * i + r) * n) for r in range(2)],
                  tables, constants)
                 for i, (op, x, y, tables, constants, _) in enumerate(groups)]
        yield (q, [(wide, n)], [level], out,
               np.concatenate([want.ravel() for *_, want in groups]))


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_replay_reads_bank_words_mod_q(n, fill):
    """Every replay opcode on two rows from each :func:`_banks` bank: words
    at or above ``q`` (random 64-bit ones, all ``2^64 - 1``) are reduced,
    and residues take the narrowing copy; each group stores what its
    kernel makes of the rows mod ``q``."""
    for q, checks, levels, out, want in _replay_case(n, fill):
        assert kernels.Replay(q, n, checks, levels)()
        assert np.array_equal(out, want)


def test_replay_stores_nothing_when_a_checked_row_changed():
    n = 16
    (q, checks, levels, out, want), _ = _replay_case(n, "random")
    program = kernels.Replay(q, n, checks, levels)
    (bank, at), = checks
    bank[at + n - 1] ^= 1
    assert not program()
    assert not out.any()
    bank[at + n - 1] ^= 1
    assert program()
    assert np.array_equal(out, want)


def test_moduli_constants_are_shoup_quotients():
    """``constants`` reduces any integer and pairs it with ``floor(w
    2^32 / q)``; ``of`` shares one set per tuple."""
    mods = _moduli(16)
    values = [[-1, 1 << 70], [0, -(1 << 40) + 3]]
    w, ws = mods.constants(values)
    for row, q, wr, sr in zip(values, mods.moduli, w, ws):
        assert wr.tolist() == [v % q for v in row]
        assert sr.tolist() == [(v % q << 32) // q for v in row]
    assert kernels.Moduli.of(mods.moduli) is mods


def test_mismatched_shapes_are_refused():
    """The C loops read by the shapes they are given, so shapes that do
    not agree with each other or with the towers raise first."""
    mods = _moduli(16)
    words = np.zeros((3, 2, 16), np.uint32)
    row, ones = (np.zeros(32, np.uint64), 0), mods.constants([1, 1])
    calls = [
        lambda: kernels.multiply(words, words[:2], mods),
        lambda: kernels.tensor(words, mods),
        lambda: kernels.keyswitch(words[None], np.zeros((2, 2, 2, 16)), mods),
        lambda: kernels.garner(words, mods.constants([[1] * 3] * 2), mods),
    ] + [
        # A replay row must be n words of a 1-D uint64 array.
        lambda x=x: kernels.Replay(mods.moduli[0], 16, [], [[(
            "PMODSQR", [x], [], [(np.zeros(32, np.uint64), 0)], None, None,
        )]])
        for x in [(np.zeros(32, np.uint64), 17), (np.zeros(32, np.uint32), 0),
                  (np.zeros((2, 16), np.uint64), 0)]
    ] + [
        # Each opcode's second rows, tables and constants, one per row.
        lambda group=group: kernels.Replay(mods.moduli[0], 16, [], [[group]])
        for group in [
            ("PMODMUL", [row], [], [row], None, None),
            ("PMODSQR", [row], [row], [row], None, None),
            ("NTT", [row], [], [row], None, None),
            ("CMODMUL", [row] * 3, [], [row] * 3, None, ones),
        ]
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.fixture(scope="module")
def fallback(tmp_path_factory):
    """``ntt.c`` built for x86-64-v3, whose lack of AVX-512 takes every
    kernel's word-by-word loops, loaded with the kernels' declarations."""
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("x86-64-v3 is an x86-64 target")
    library = tmp_path_factory.mktemp("fallback") / "ntt.so"
    flags = [f.replace("-march=native", "-march=x86-64-v3")
             for f in kernels.CFLAGS]
    assert "-march=x86-64-v3" in flags
    subprocess.run(
        ("gcc", *flags, "-o", str(library),
         str(Path(kernels.__file__).with_name("ntt.c"))),
        check=True,
    )
    return kernels._ffi.dlopen(str(library))


def _boundary_kernels(mods, n, fill) -> list[np.ndarray]:
    """The RNS boundary kernels' results with ``mods``' towers as q's:
    the entry of two operands of three words onto the tensor basis, the
    scale-and-round of two stacks there (its near columns too), the
    digits of residues and of words, the packed bytes and the words."""
    q = prod(mods.moduli)
    qe = require_engine(RnsBasis(mods.moduli), n)
    eng = RnsExactMultiplier(n, qe.basis).tensor_engine
    entry = np.empty((2, eng.num_towers, n), np.uint32)
    half = np.frombuffer((q // 2).to_bytes(12, "big"), ">u4")
    kernels.centre(list(entry), list(_words((2, 3, n), fill, n)), half,
                   eng._radix(3), eng._mods.times(-q)[0], eng._mods)
    a = _residues(eng._mods, (2, eng.num_towers, n), fill, n)
    split, table = eng._split(2)
    scaled = kernels.scale_round(a, 2, 65537, table, split._mods.times(65537),
                                 eng._mods)
    rows = _residues(mods, (2, n), fill, n + 1)
    digits = [np.empty((2, 2, n), np.uint32) for _ in range(2)]
    kernels.digits(digits[0], rows, 33, qe._radix(2), mods, qe._garner)
    kernels.digits(digits[1], _words((3, n), fill, n), 33, qe._radix(2), mods)
    width = -(-q.bit_length() // 8)
    packed = kernels.pack(rows, width, qe._garner, mods)
    return [entry, *scaled, *digits, np.frombuffer(packed, np.uint8),
            kernels.words(rows, 2, qe._garner, mods)]


def _every_kernel(n, fill) -> list[np.ndarray]:
    """Each kernel's results on this suite's inputs at ``n``: both NTT
    directions at their lazy input bounds, every pointwise kernel, and
    the replay's output banks."""
    mods = _moduli(n)
    q = _q(mods).astype(np.uint32)
    contexts = [NttContext(n, m) for m in mods.moduli]
    psi = np.asarray([c._psi_brv for c in contexts], dtype=np.uint64)
    x = _residues(mods, (2, 2, n), fill, n)
    s = mods.constants(_constants(mods, (2,), fill, n + 2).tolist())
    three = kernels.Moduli.of((*mods.moduli, ntt_friendly_prime(n, 29)))
    info = np.iinfo(np.int64)
    signed = np.resize(np.asarray([info.min, info.max, -1], np.int64), (3, 2, n))
    if fill == "random":
        signed = np.random.default_rng(n).integers(info.min, info.max,
                                                   (3, 2, n), dtype=np.int64)
    results = [
        kernels.transform(x + 3 * q, kernels.NttTables.derive(psi, mods.moduli)),
        kernels.transform(x + q, kernels.NttTables.derive(
            psi, mods.moduli, inverse=True, scale=[c.n_inv for c in contexts])),
        kernels.reduce(signed, mods, s),
        kernels.multiply(x[0], x[1], mods),
        kernels.tensor(_residues(mods, (4, 2, n), fill, n + 1), mods),
        kernels.tensor(f := np.ascontiguousarray(_residues(
            mods, (4, 2, n), fill, n + 2)), mods, f[:3]),
        kernels.keyswitch(_residues(mods, (2, 17, 2, n), fill, n),
                          _residues(mods, (2, 17, 2, n), fill, n + 1), mods),
        kernels.garner(_residues(three, (2, 3, n), fill, n), three.constants(
            _constants(three, (3, 3), fill, n).tolist()), three),
    ]
    for q, checks, levels, out, _ in _replay_case(n, fill):
        assert kernels.Replay(q, n, checks, levels)()
        results.append(out)
    return results + _boundary_kernels(mods, n, fill)


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("n", DEGREES)
def test_fallback_build_is_bit_identical(n, fill, fallback, monkeypatch):
    """The word-by-word loops other targets run (and this one below 16
    words a row) give the vector paths' words, kernel by kernel."""
    native = _every_kernel(n, fill)
    monkeypatch.setattr(kernels, "_lib", fallback)
    for got, want in zip(_every_kernel(n, fill), native, strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
