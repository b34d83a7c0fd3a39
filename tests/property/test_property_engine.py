"""Property suite: the batched RNS tower engine is bit-identical to
:class:`NttContext` across random (n, basis, tower-count) grids.

The engine's C butterfly kernel keeps every word in ``[0, q)`` after each
butterfly, so its output is :class:`NttContext`'s bit for bit. The
strategies bias coefficients toward 0, 1, q-2 and q-1, where an
off-by-one in a reduction would surface; the all-(q-1) stack drives
every butterfly sum and Shoup remainder toward its bound at every size,
up to ``n = 2^15``; and the degree range runs from ``n = 2`` to CoFHEE's
native maximum, ``n = 2^14``. Single-tower degenerate stacks are part of
the grid. 31-bit towers, one bit past the kernel's bound, are the
fallback grid: no engine, and the pure path stays bit-identical.
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
from repro.polymath.primes import ntt_friendly_prime
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
#: stacks: an odd number of stages, the paper's n = 2^12, and n = 2^15.
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
    """The all-(q-1) stack drives every butterfly toward its bound."""
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


@pytest.mark.parametrize("batch,towers,n", [
    (9, 2, 4096), (3, 3, 4096), (2, 3, 2), (2, 3, 1 << 14),
])
def test_stacks_match_nttcontext(batch, towers, n):
    """Every row of a multi-row, multi-tower stack of 30-bit towers uses
    its own tower's tables, at both ends of the degree range: ``n = 2``
    and CoFHEE's native maximum, ``n = 2^14``."""
    engine = BatchedRnsEngine(RnsBasis(plan_towers(30 * towers, 30, n)), n)
    assert all(q.bit_length() == 30 for q in engine.basis.moduli)
    stack = _random_stack(engine, batch, batch + n)
    fwd, inv = engine.forward(stack), engine.inverse(stack)
    _check_against_nttcontext(engine, stack, fwd, inv, range(batch))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_non_contiguous_input(dtype):
    """A strided stack transforms into a ``uint32`` copy and stays as it
    was."""
    engine = _ENGINES[(32, 24, 4)]
    stack = _random_stack(engine, 6, 32, dtype)
    view = stack[::2, ::-1]
    before = view.copy()
    tables = engine._fwd.rows([3, 2, 1, 0])
    fwd = kernels.transform(view, tables)
    inv = kernels.transform(view, engine._inv.rows([3, 2, 1, 0]))
    assert fwd.dtype == inv.dtype == np.uint32
    assert (view == before).all()
    flipped = engine.select([3, 2, 1, 0])
    _check_against_nttcontext(flipped, before, fwd, inv, range(3))


def test_transform_rejects_tables_of_another_shape():
    """The C kernel reads its tables by the stack's shape, so a stack of
    another tower count or degree, or tables of a degree that is not a
    power of two, are refused before the call."""
    engine = _ENGINES[(16, 30, 2)]
    for shape in ((3, 2, 8), (3, 1, 16), (3, 3, 16)):
        with pytest.raises(ValueError, match="tables"):
            kernels.transform(np.zeros(shape, np.int64), engine._fwd)
    odd = kernels.NttTables.derive(np.ones((1, 12), np.uint64), [97])
    with pytest.raises(ValueError, match="tables"):
        kernels.transform(np.zeros((1, 1, 12), np.int64), odd)


def test_every_grid_tower_fits_the_kernels():
    for n, bits, towers in _GRID:
        assert bits <= MAX_MODULUS_BITS
        assert supports(_ENGINES[(n, bits, towers)].basis, n)


def test_supports_takes_any_power_of_two_degree():
    """Only a tower's width bounds the kernel: a 30-bit tower runs at
    ``n = 2^17``, a 31-bit one beside it does not, and the degree must
    be a power of two of at least 2."""
    n = 1 << 17
    tower, wide = ntt_friendly_prime(n, 30), ntt_friendly_prime(n, 31)
    assert supports(RnsBasis([tower]), n)
    assert not supports(RnsBasis([tower, wide]), n)
    assert get_engine(RnsBasis([wide]), n) is None
    assert not supports(RnsBasis([tower]), 3 * 2**10)
    assert not supports(RnsBasis([tower]), 1)


@pytest.mark.parametrize("n,towers", _FALLBACK_GRID)
def test_31_bit_towers_fall_back_to_the_pure_path(n, towers):
    basis = RnsBasis(plan_towers(31 * towers, 31, n))
    assert all(q.bit_length() == 31 for q in basis.moduli)
    assert not supports(basis, n)
    assert get_engine(basis, n) is None


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
