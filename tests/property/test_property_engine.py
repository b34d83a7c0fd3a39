"""Property suite: the batched RNS tower engine is bit-identical to
:class:`NttContext` across random (n, basis, tower-count) grids.

The engine's lazy (Shoup) kernels keep values in ``[0, 4q)`` between
butterfly stages, so the strategies deliberately bias coefficients toward
the reduction boundaries (0, 1, q-2, q-1) where an off-by-one in the
conditional subtraction would surface. Single-tower degenerate stacks are
part of the grid. 31-bit towers, one bit past the kernels' bound, are
the fallback grid: no engine, and the pure path stays bit-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.software import SoftwareBfv
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.scheme import _ExactMultiplier
from repro.polymath.engine import (
    MAX_MODULUS_BITS,
    BatchedRnsEngine,
    get_engine,
    supports,
)
from repro.polymath.ntt import NttContext
from repro.polymath.rns import RnsBasis, plan_towers

#: (n, tower_bits, tower_count) grid; towers = 1 is the degenerate
#: single-tower stack, bits = 30 the widest the kernels take.
_GRID = [
    (8, 14, 1),
    (8, 20, 3),
    (16, 30, 2),
    (32, 24, 4),
    (64, 30, 1),
    (64, 30, 3),
]

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


def test_all_max_coefficients_through_both_kernels():
    """The all-(q-1) stack is the worst case for lazy accumulation."""
    for case in _GRID:
        engine, refs = _ENGINES[case], _REFS[case]
        towers = [[q - 1] * engine.n for q in engine.basis.moduli]
        fwd = engine.forward(engine.stack(towers))
        for row, ref, tower in zip(fwd, refs, towers):
            assert row.tolist() == ref.forward(tower)
        inv = engine.inverse(fwd)
        for row, ref, f in zip(inv, refs, fwd.tolist()):
            assert row.tolist() == ref.inverse(f)


def test_every_grid_tower_fits_the_kernels():
    for n, bits, towers in _GRID:
        assert bits <= MAX_MODULUS_BITS
        assert supports(_ENGINES[(n, bits, towers)].basis, n)


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
