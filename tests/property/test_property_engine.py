"""Property suite: the batched RNS tower engine is bit-identical to
:class:`NttContext` across random (n, basis, tower-count) grids.

The engine's four-step kernel is exact because every float64 GEMM partial
sum is an integer below ``n1 * 2^15 * (q - 1) < 2^53``: the limbs of its
centred matrices are at most ``2^14`` and its data smaller than ``q``. The
strategies bias coefficients toward 0, 1, q-2 and q-1, where an
off-by-one in a reduction would surface; the all-(q-1) stack drives every
partial sum toward the bound at every size, up to the largest ``n1`` a
30-bit tower admits; and a hand-built table puts every centred limb at
its maximum magnitude. Single-tower degenerate stacks are part of the
grid. 31-bit towers, one bit past the kernel's bound, are the fallback
grid: no engine, and the pure path stays bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.software import SoftwareBfv
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.scheme import _ExactMultiplier
from repro.polymath import kernels
from repro.polymath.engine import (
    MAX_MODULUS_BITS,
    BatchedRnsEngine,
    get_engine,
    supports,
)
from repro.polymath.ntt import NttContext
from repro.polymath.primes import is_prime, ntt_friendly_prime
from repro.polymath.rns import RnsBasis, plan_towers

#: (n, tower_bits, tower_count) grid; towers = 1 is the degenerate
#: single-tower stack, bits = 30 the widest the kernel takes.
_GRID = [
    (2, 30, 2),
    (4, 20, 3),
    (4, 30, 1),
    (8, 14, 1),
    (8, 20, 3),
    (16, 30, 2),
    (32, 24, 4),
    (64, 30, 1),
    (64, 30, 3),
]

#: 30-bit sizes too long for drawn coefficients, run as all-(q-1)
#: stacks: n1 != n2, the paper's n = 2^12, and n1 = 256, the largest
#: n1 a 30-bit tower admits.
_LONG = [(2048, 30, 2), (4096, 30, 3), (1 << 15, 30, 1)]

#: (n, tower_count) of 31-bit bases: the former plain-kernel rows.
_FALLBACK_GRID = [(16, 2), (64, 1)]

_ENGINES: dict[tuple[int, int, int], BatchedRnsEngine] = {}
_REFS: dict[tuple[int, int, int], list[NttContext]] = {}
for case in _GRID:
    n, bits, towers = case
    basis = RnsBasis(plan_towers(bits * towers, bits, n))
    _ENGINES[case] = BatchedRnsEngine(basis, n)
    _REFS[case] = [NttContext(n, q) for q in basis.moduli]

cases = st.sampled_from(_GRID)


def _tower(draw, n, q):
    """Coefficients biased toward the lazy-reduction edges near 0 and q."""
    edge = st.sampled_from([0, 1, q - 2, q - 1])
    return draw(
        st.lists(
            st.one_of(st.integers(min_value=0, max_value=q - 1), edge),
            min_size=n, max_size=n,
        )
    )


def _stack(draw, engine):
    return [_tower(draw, engine.n, q) for q in engine.basis.moduli]


@given(case=cases, data=st.data())
@settings(max_examples=60, deadline=None)
def test_forward_bit_identical_to_nttcontext(case, data):
    engine, refs = _ENGINES[case], _REFS[case]
    towers = _stack(data.draw, engine)
    out = engine.forward(engine.stack(towers))
    for row, ref, tower in zip(out, refs, towers):
        assert row.tolist() == ref.forward(tower)


@given(case=cases, data=st.data())
@settings(max_examples=60, deadline=None)
def test_inverse_bit_identical_to_nttcontext(case, data):
    engine, refs = _ENGINES[case], _REFS[case]
    towers = _stack(data.draw, engine)
    out = engine.inverse(engine.stack(towers))
    for row, ref, tower in zip(out, refs, towers):
        assert row.tolist() == ref.inverse(tower)


@given(case=cases, data=st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_and_negacyclic_multiply(case, data):
    engine, refs = _ENGINES[case], _REFS[case]
    a = engine.stack(_stack(data.draw, engine))
    b = engine.stack(_stack(data.draw, engine))
    assert engine.inverse(engine.forward(a)).tolist() == a.tolist()
    prod = engine.negacyclic_multiply(a, b)
    for row, ref, ta, tb in zip(prod, refs, a.tolist(), b.tolist()):
        assert row.tolist() == ref.negacyclic_multiply(ta, tb)


@given(case=cases, data=st.data())
@settings(max_examples=30, deadline=None)
def test_crt_reconstruct_matches_rnsbasis(case, data):
    engine = _ENGINES[case]
    towers = _stack(data.draw, engine)
    stack = engine.stack(towers)
    assert engine.reconstruct(stack) == engine.basis.reconstruct_poly(towers)
    # decompose is the inverse direction
    value = engine.basis.reconstruct_poly(towers)
    assert engine.decompose(value).tolist() == stack.tolist()


@given(case=cases, data=st.data())
@settings(max_examples=20, deadline=None)
def test_select_view_matches_full_engine(case, data):
    """A sub-view (shared precomputation) equals per-tower reference."""
    engine, refs = _ENGINES[case], _REFS[case]
    i = data.draw(st.integers(min_value=0, max_value=engine.num_towers - 1))
    view = engine.select([i])
    tower = _tower(data.draw, engine.n, engine.basis.moduli[i])
    out = view.forward(view.stack([tower]))
    assert out[0].tolist() == refs[i].forward(tower)


@pytest.mark.parametrize("case", _GRID + _LONG)
def test_all_max_coefficients_through_both_kernels(case):
    """The all-(q-1) stack drives the GEMM partial sums to the bound."""
    n, bits, towers = case
    engine = _ENGINES.get(case) or BatchedRnsEngine(
        RnsBasis(plan_towers(bits * towers, bits, n)), n
    )
    refs = _REFS.get(case) or [NttContext(n, q) for q in engine.basis.moduli]
    stack = [[q - 1] * n for q in engine.basis.moduli]
    fwd = engine.forward(engine.stack(stack))
    inv = engine.inverse(engine.stack(stack))
    for f, i, ref, tower in zip(fwd, inv, refs, stack):
        assert f.tolist() == ref.forward(tower)
        assert i.tolist() == ref.inverse(tower)
    assert engine.inverse(fwd).tolist() == engine.stack(stack).tolist()


def test_limbs_at_their_maximum_magnitude_stay_exact():
    """A hand-built table whose every centred limb is at its maximum
    magnitude (high ``2^14``, low ``-2^14``), all-(q-1) data, and the
    largest ``n1`` a 30-bit tower admits, in both orientations."""
    q = next(p for p in range((1 << 30) - 1, 0, -2) if is_prime(p))
    c = (1 << 29) - (1 << 14)  # centred: c <= (q - 1) / 2
    assert 2 * c < q
    limbs = kernels._limbs(np.asarray([[[c]]], dtype=np.uint64),
                           np.asarray([[[q]]], dtype=np.uint64))
    assert limbs.ravel().tolist() == [2.0**29, -(2.0**14)]
    n1, n2 = kernels.split(1 << 15)
    assert n1 == 256 and kernels.fits(q, 1 << 15)
    assert not kernels.fits(q, 1 << 17)

    def table(*shape):
        return np.stack([np.full((1, *shape), v) for v in limbs.ravel()])

    for r, s, inverse in ((n1, n2, False), (n2, n1, True)):
        tables = kernels.FourStep(
            left=table(r, r), mid=table(r, 1, s), right=table(s, s),
            q=np.full((1, 1, 1, 1), float(q)), inverse=inverse,
        )
        a = np.full((1, 1, r * s), q - 1, dtype=np.int64)
        # Every entry is sum_s (sum_r c (q-1)) c c: r s c^3 (q-1) mod q.
        want = r * s * c**3 * (q - 1) % q
        assert kernels.transform(a, tables).ravel().tolist() == [want] * (r * s)


def _check_against_nttcontext(engine, stack, fwd, inv, rows):
    """Batch rows ``rows`` of ``fwd``/``inv`` equal :class:`NttContext`'s
    transforms of ``stack``, tower by tower."""
    refs = [NttContext(engine.n, q) for q in engine.basis.moduli]
    for b in rows:
        for i, ref in enumerate(refs):
            tower = stack[b, i].tolist()
            assert fwd[b, i].tolist() == ref.forward(tower), (b, i)
            assert inv[b, i].tolist() == ref.inverse(tower), (b, i)


def _random_stack(engine, batch, seed, dtype=np.int64):
    q = np.asarray(engine.basis.moduli)[:, None]
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, q, (batch, engine.num_towers, engine.n))
    stack[0] = q - 1  # the all-(q-1) row: partial sums at the bound
    return stack.astype(dtype)


def test_trailing_partial_batch_chunk():
    """``B n`` past a chunk: one tower at a time, in batch chunks of
    ``CHUNK_WORDS // n`` rows and a trailing partial one."""
    n, batch = 4096, 9
    step = kernels.CHUNK_WORDS // n
    assert batch * n > kernels.CHUNK_WORDS and batch % step
    engine = BatchedRnsEngine(RnsBasis(plan_towers(60, 30, n)), n)
    stack = _random_stack(engine, batch, 9)
    fwd, inv = engine.forward(stack), engine.inverse(stack)
    _check_against_nttcontext(engine, stack, fwd, inv,
                              [0, step - 1, step, batch - 1])


def test_tower_runs_the_run_size_does_not_divide():
    """Runs of two towers, whose last is one tower: the ``(k, 1, 1, 1)``
    column branch and the scalar one in the same call."""
    n, batch, towers = 4096, 3, 3
    run = kernels.CHUNK_WORDS // (batch * n)
    assert run == 2 and towers % run == 1
    engine = BatchedRnsEngine(RnsBasis(plan_towers(30 * towers, 30, n)), n)
    stack = _random_stack(engine, batch, 3)
    fwd, inv = engine.forward(stack), engine.inverse(stack)
    _check_against_nttcontext(engine, stack, fwd, inv, range(batch))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_non_contiguous_input(dtype):
    """A strided stack transforms into a copy and stays as it was."""
    engine = _ENGINES[(32, 24, 4)]
    stack = _random_stack(engine, 6, 32, dtype)
    view = stack[::2, ::-1]
    before = view.copy()
    tables = engine._fwd.rows([3, 2, 1, 0])
    fwd = kernels.transform(view, tables)
    inv = kernels.transform(view, engine._inv.rows([3, 2, 1, 0]))
    assert fwd.dtype == inv.dtype == dtype
    assert (view == before).all()
    flipped = engine.select([3, 2, 1, 0])
    _check_against_nttcontext(flipped, before, fwd, inv, range(3))


@pytest.mark.parametrize("shape", [(21, 7, 16), (4, 7, 16), (21, 7, 64),
                                   (4, 7, 64)])
def test_short_rows_go_through_in_one_chunk(shape, monkeypatch):
    """A stack of short rows makes one GEMM pair per transform."""
    batch, towers, n = shape
    engine = BatchedRnsEngine(RnsBasis(plan_towers(30 * towers, 30, n)), n)
    stack = _random_stack(engine, batch, n)
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    engine.forward(stack)
    assert len(calls) == 2
    engine.inverse(stack)
    assert len(calls) == 4


@pytest.mark.parametrize("k", [1, 4, 21])
def test_short_towers_reduce_in_one_call(k, monkeypatch):
    """``mod`` on a ``(k, 7, 16)`` stack makes one ``np.remainder`` call;
    a stack of :data:`~repro.polymath.kernels.MOD_SPLIT_WORDS`-word
    towers makes one scalar divide per tower instead."""
    q = np.asarray(plan_towers(30 * 7, 30, 16), dtype=np.int64)[:, None]
    rng = np.random.default_rng(k)
    short = rng.integers(0, 1 << 60, (k, 7, 16))
    wide = rng.integers(0, 1 << 60, (1, 7, kernels.MOD_SPLIT_WORDS))
    want = [(short % q).tolist(), (wide % q).tolist()]
    calls = []
    for name in ("remainder", "floor_divide", "subtract"):
        def counting(*args, _name=name, _ufunc=getattr(np, name), **kwargs):
            calls.append(_name)
            return _ufunc(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    assert kernels.mod(short, q).tolist() == want[0]
    assert calls == ["remainder"]
    calls.clear()
    assert kernels.mod(wide, q).tolist() == want[1]
    assert calls == ["floor_divide", "subtract"] * 7


def test_every_grid_tower_fits_the_kernels():
    for n, bits, towers in _GRID:
        assert bits <= MAX_MODULUS_BITS
        assert supports(_ENGINES[(n, bits, towers)].basis, n)


def test_supports_rejects_n1_past_the_exactness_bound():
    """``n1 * 2^15 * (q - 1)`` must stay below ``2^53``: a 30-bit tower
    runs up to ``n1 = 256``, a 29-bit one to ``n1 = 512``, whatever the
    NTT-friendliness."""
    n = 1 << 17  # n1 = 512
    wide, narrow = ntt_friendly_prime(n, 30), ntt_friendly_prime(n, 29)
    assert kernels.split(n)[0] * 2**15 * (wide - 1) >= 2**53
    assert supports(RnsBasis([wide]), n // 2)  # n1 = 256
    assert not supports(RnsBasis([wide]), n)
    assert get_engine(RnsBasis([wide]), n) is None
    assert supports(RnsBasis([narrow]), n)
    assert not supports(RnsBasis([narrow, wide]), n)


@pytest.mark.parametrize("n,towers", _FALLBACK_GRID)
def test_31_bit_towers_fall_back_to_the_pure_path(n, towers):
    basis = RnsBasis(plan_towers(31 * towers, 31, n))
    assert all(q.bit_length() == 31 for q in basis.moduli)
    assert not supports(basis, n)
    assert get_engine(basis, n) is None
    assert SoftwareBfv(basis, n).engine_kind == "pure"


@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_31_bit_software_tensor_matches_nttcontext(data):
    n, towers = data.draw(st.sampled_from(_FALLBACK_GRID))
    basis = RnsBasis(plan_towers(31 * towers, 31, n))
    Q = basis.modulus
    polys = [
        data.draw(st.lists(st.integers(0, Q - 1), min_size=n, max_size=n))
        for _ in range(4)
    ]
    sw = SoftwareBfv(basis, n)
    got = sw.ciphertext_multiply(polys[:2], polys[2:])
    for q in basis.moduli:
        ref = NttContext(n, q)
        a0, a1, b0, b1 = (ref.forward([c % q for c in p]) for p in polys)
        y1 = [(x * v + y * u) % q for x, y, u, v in zip(a0, a1, b0, b1)]
        want = [
            ref.inverse([x * y % q for x, y in zip(a0, b0)]),
            ref.inverse(y1),
            ref.inverse([x * y % q for x, y in zip(a1, b1)]),
        ]
        assert [[c % q for c in y] for y in got] == want


@pytest.mark.parametrize("n,towers", _FALLBACK_GRID)
def test_31_bit_scheme_matches_the_exact_oracle(n, towers):
    """``Bfv`` over 31-bit q towers: no lead rows, same bits as the
    explicit pure-Python multiplier."""
    params = BfvParameters.toy_rns(n, towers, 31)
    bfv = Bfv(params, seed=31)
    assert bfv._mult_ctx.q_towers == 0
    exact = Bfv(params, multiplier=_ExactMultiplier(params.n, params.q))
    keys = bfv.keygen(relin_digit_bits=16)
    encoder = BatchEncoder(params)
    a, b = (
        bfv.encrypt(encoder.encode([i] * n), keys.public) for i in (3, 5)
    )
    assert bfv.multiply(a, b).polys == exact.multiply(a, b).polys
    assert bfv.square(a).polys == exact.square(a).polys
    assert (
        bfv.multiply_relin(a, b, keys.relin).polys
        == exact.multiply_relin(a, b, keys.relin).polys
    )


def test_supports_rejects_wide_and_non_friendly():
    from repro.polymath.primes import ntt_friendly_prime

    assert supports(RnsBasis([ntt_friendly_prime(16, 20)]), 16)
    # 40-bit tower: exact but not engine-qualifying
    assert not supports(RnsBasis([ntt_friendly_prime(16, 40)]), 16)
    # prime but q != 1 mod 2n: no negacyclic NTT at this degree
    assert not supports(RnsBasis([999983]), 16)
