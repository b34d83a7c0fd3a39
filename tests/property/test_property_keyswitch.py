"""Key-switch parity: the engine kernel vs the scalar reference fold.

Relinearization and Galois rotation share one key switch
(:meth:`Bfv.key_switch`): on an engine-capable scheme every digit
polynomial rides one batched NTT pass against the key's NTT-form rows —
on q's own towers when they are engine-sized (any digit width: the fold
ends in ``% q``), else on the auxiliary basis when it holds the fold
bound; everywhere else the scalar fold multiplies digit by digit
through the exact multiplier.
A key switch that is off by one bit still decrypts to *something*, so
the two must agree byte for byte — across tower counts 1-4, digit
widths 8/16/22/30 (below, at and above the tower width), the rotation
exponents the packed apps use, and coefficients pinned at ``0`` and
``q - 1``.

The scalar reference is a scheme built on the pure-Python
``_ExactMultiplier`` (no batched engine, so no engine path to take); the
per-coefficient automorphism the vectorised table replaced lives on here
as ``_automorphism_reference``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.bfv.keys import GaloisKey
from repro.bfv.rotation import (
    _automorphism_table,
    apply_automorphism,
    apply_galois_with_key,
)
from repro.bfv.scheme import Ciphertext, _ExactMultiplier
from repro.polymath.engine import require_engine
from repro.polymath.poly import Polynomial, PolynomialRing
from repro.polymath.primes import ntt_friendly_prime
from repro.service.serialization import serialize_ciphertext
from repro.service.telemetry import MetricsRegistry

N = 32
TOWERS = (1, 2, 3, 4)
WIDTHS = (8, 16, 22, 30)
#: ``3^k`` for k in ±{1, 2, 4, 7} (all distinct mod 2n = 64: the order
#: of 3 is 16) and the column swap ``2n - 1``.
EXPONENTS = tuple(
    sorted({pow(3, s * k, 2 * N) for k in (1, 2, 4, 7) for s in (1, -1)})
) + (2 * N - 1,)


class _Stack:
    """One parameter set: an engine scheme, a scalar scheme, their keys.

    Keys are plain data, so both schemes fold the *same* key objects;
    only the engine scheme ever builds NTT-form rows on them.
    """

    def __init__(self, towers: int, tower_bits: int = 24):
        self.params = BfvParameters.toy_rns(
            n=N, towers=towers, tower_bits=tower_bits
        )
        self.engine = Bfv(self.params, seed=towers)
        self.scalar = Bfv(
            self.params, seed=towers,
            multiplier=_ExactMultiplier(N, self.params.q),
        )
        self.engine.metrics = MetricsRegistry()
        self.scalar.metrics = MetricsRegistry()
        self.keys = {
            bits: self.engine.keygen(relin_digit_bits=bits)
            for bits in (*WIDTHS, 40, 64)
        }
        self.rotors = {
            bits: RotationEngine(self.engine, ks.secret, digit_bits=bits)
            for bits, ks in self.keys.items()
        }

    def ciphertext(self, *coeff_lists) -> Ciphertext:
        return Ciphertext(
            [Polynomial.from_canonical(self.engine.ring, c) for c in coeff_lists],
            self.params,
        )


_STACKS = {towers: _Stack(towers) for towers in TOWERS}


def _coeff_vectors(q: int, count: int):
    """``count`` canonical coefficient vectors, heavy on 0 and q - 1."""
    coeff = st.one_of(
        st.integers(min_value=0, max_value=q - 1),
        st.sampled_from([0, q - 1, 1, q // 2, q // 2 + 1]),
    )
    vector = st.lists(coeff, min_size=N, max_size=N)
    return st.lists(vector, min_size=count, max_size=count)


def _switches(bfv: Bfv, kind: str, path: str) -> float:
    """The scheme's ``repro_keyswitch_total{kind, path}`` count."""
    return bfv.metrics.counter(
        "repro_keyswitch_total", kind=kind, path=path
    ).value


def _same_bytes(a: Ciphertext, b: Ciphertext) -> bool:
    return serialize_ciphertext(a) == serialize_ciphertext(b)


def _automorphism_reference(poly: Polynomial, exponent: int) -> Polynomial:
    """The per-coefficient definition of ``p(x) -> p(x^g)``."""
    n, q = poly.ring.n, poly.ring.q
    out = [0] * n
    for i, c in enumerate(poly.coeffs):
        j = i * exponent % (2 * n)
        if j < n:
            out[j] = (out[j] + c) % q
        else:
            out[j - n] = (out[j - n] - c) % q
    return poly.ring(out)


class TestRotationParity:
    @given(
        towers=st.sampled_from(TOWERS),
        bits=st.sampled_from(WIDTHS),
        exponent=st.sampled_from(EXPONENTS),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_engine_rotation_equals_scalar_reference(
        self, towers, bits, exponent, data
    ):
        stack = _STACKS[towers]
        key = stack.rotors[bits].galois_key(exponent)
        assert stack.engine.can_batch_relinearize(key)
        assert not stack.scalar.can_batch_relinearize(key)
        ct = stack.ciphertext(*data.draw(_coeff_vectors(stack.params.q, 2)))
        fast = apply_galois_with_key(stack.engine, ct, key)
        slow = apply_galois_with_key(stack.scalar, ct, key)
        assert _same_bytes(fast, slow)

    def test_the_two_schemes_took_the_two_paths(self):
        """The parity above compared what it claims to compare."""
        stack = _STACKS[3]
        key = stack.rotors[16].galois_key(3)
        ct = stack.ciphertext([1] * N, [stack.params.q - 1] * N)
        for bfv, path, other in (
            (stack.engine, "engine", "scalar"),
            (stack.scalar, "scalar", "engine"),
        ):
            before = _switches(bfv, "galois", path)
            apply_galois_with_key(bfv, ct, key)
            assert _switches(bfv, "galois", path) == before + 1
            assert _switches(bfv, "galois", other) == 0
            assert _switches(bfv, "relin", other) == 0

    def test_fold_runs_on_a_tower_prefix(self):
        """The fold needs fewer towers than the Eq. 4 tensor: q's own,
        the head of the tensor basis."""
        stack = _STACKS[4]
        full = stack.engine._mult_ctx.tensor_engine
        fold = stack.engine._switch_engine(stack.keys[16].relin)
        assert fold.num_towers < full.num_towers
        assert fold.basis.moduli == full.basis.moduli[:fold.num_towers]
        assert fold.basis.moduli == stack.params.q_basis.moduli

    @pytest.mark.parametrize("towers", (2, 3, 4))
    def test_digits_wider_than_a_machine_word(self, towers):
        """64-bit digits leave ``digit_decompose``'s int64 paths but stay
        in bound here: still the engine, still the same bytes."""
        stack = _STACKS[towers]
        key = stack.rotors[64].galois_key(3)
        assert stack.engine.can_batch_relinearize(key)
        rng = random.Random(towers)
        q = stack.params.q
        ct = stack.ciphertext(
            *([rng.randrange(q) for _ in range(N)] for _ in range(2))
        )
        assert _same_bytes(
            apply_galois_with_key(stack.engine, ct, key),
            apply_galois_with_key(stack.scalar, ct, key),
        )


class TestRelinearizeParity:
    @given(
        towers=st.sampled_from(TOWERS),
        bits=st.sampled_from(WIDTHS),
        jobs=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_relinearize_many_matches_relinearize_on_both_paths(
        self, towers, bits, jobs, data
    ):
        stack = _STACKS[towers]
        relin = stack.keys[bits].relin
        q = stack.params.q
        cts = [
            stack.ciphertext(*data.draw(_coeff_vectors(q, 3)))
            for _ in range(jobs)
        ]
        # A size-2 member passes through the batch untouched.
        cts.insert(
            data.draw(st.integers(min_value=0, max_value=jobs)),
            stack.ciphertext(*data.draw(_coeff_vectors(q, 2))),
        )
        batched = stack.engine.relinearize_many(cts, relin)
        assert len(batched) == len(cts)
        for ct, got in zip(cts, batched):
            assert got.size == 2
            assert _same_bytes(got, stack.engine.relinearize(ct, relin))
            assert _same_bytes(got, stack.scalar.relinearize(ct, relin))

    def test_rejects_other_sizes(self):
        stack = _STACKS[2]
        bad = stack.ciphertext(*([[0] * N] * 4))
        with pytest.raises(ValueError, match="size-2/3"):
            stack.engine.relinearize_many([bad], stack.keys[16].relin)


class TestAutomorphism:
    @given(
        exponent=st.integers(min_value=0, max_value=N - 1).map(
            lambda k: 2 * k + 1
        ),
        towers=st.sampled_from(TOWERS),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_table_equals_the_per_coefficient_definition(
        self, exponent, towers, data
    ):
        stack = _STACKS[towers]
        (coeffs,) = data.draw(_coeff_vectors(stack.params.q, 1))
        poly = Polynomial.from_canonical(stack.engine.ring, coeffs)
        got = apply_automorphism(poly, exponent)
        assert got == _automorphism_reference(poly, exponent)
        assert all(0 <= c < stack.params.q for c in got.coeffs)

    def test_plaintext_ring_too(self):
        ring = PolynomialRing(N, 257, allow_non_ntt=True)
        poly = ring(list(range(N)))
        for exponent in EXPONENTS:
            assert apply_automorphism(poly, exponent) == (
                _automorphism_reference(poly, exponent)
            )

    @pytest.mark.parametrize("exponent", (0, 2, 2 * N, 2 * N + 1, -3))
    def test_bad_exponents_rejected_on_both_paths(self, exponent):
        stack = _STACKS[2]
        good = stack.rotors[16].galois_key(3)
        forged = GaloisKey(
            rows=good.rows, digit_bits=good.digit_bits, exponent=exponent
        )
        ct = stack.ciphertext([1] * N, [2] * N)
        with pytest.raises(ValueError, match="odd"):
            apply_automorphism(ct.polys[0], exponent)
        for bfv in (stack.engine, stack.scalar):
            with pytest.raises(ValueError, match="odd"):
                apply_galois_with_key(bfv, ct, forged)


def _tower_case(n: int, fill: str, seed: int = 0):
    """A tower-backed polynomial on three 30-bit towers at ``n`` whose
    rows are all zeros, all ``q_i - 1`` or random residues."""
    params = BfvParameters.toy_rns(n=n, towers=3, tower_bits=30)
    rns = require_engine(params.q_basis, n)
    q = np.array(params.q_basis.moduli, dtype=np.uint32)[:, None]
    if fill == "zeros":
        rows = np.zeros((3, n), np.uint32)
    elif fill == "max":
        rows = np.repeat(q - 1, n, axis=1)
    else:
        rows = (np.random.default_rng(seed).integers(0, 1 << 30, (3, n))
                % q).astype(np.uint32)
    ring = PolynomialRing(n, params.q, allow_non_ntt=True)
    return Polynomial.from_towers(ring, rns, rows), q


def _tower_exponents(n: int) -> list[int]:
    """dense16's ``3^(2^k)``, the column swap ``2n - 1`` and random odd
    exponents in ``(0, 2n)``."""
    rng = random.Random(n)
    return sorted({pow(3, 2**k, 2 * n) for k in range(4)} | {2 * n - 1}
                  | {2 * rng.randrange(n) + 1 for _ in range(4)})


class TestTowerAutomorphism:
    """The tower path's gather and sign select against the
    per-coefficient definition, at the rows where a select between ``x``
    and ``q - x`` can slip: zero (whose negation is zero, not ``q``) and
    ``q_i - 1``; at the serving benchmark's n = 4096 on three 30-bit
    towers and at the smallest degrees."""

    @pytest.mark.parametrize("n", (2, 16, 4096))
    @pytest.mark.parametrize("fill", ("zeros", "max", "random"))
    def test_tower_gather_equals_the_reference(self, n, fill):
        poly, q = _tower_case(n, fill, seed=n)
        for exponent in _tower_exponents(n):
            got = apply_automorphism(poly, exponent)
            assert got._rns is not None and got._towers.dtype == np.uint32
            assert (got._towers < q).all()
            assert got == _automorphism_reference(poly, exponent)

    @pytest.mark.parametrize("n", (2, 16, 4096))
    def test_the_table_is_read_only(self, n):
        for exponent in _tower_exponents(n):
            src, mask = _automorphism_table(n, exponent)
            assert src.dtype == np.int64 and mask.dtype == np.uint32
            assert not src.flags.writeable and not mask.flags.writeable
            assert set(np.unique(mask)) <= {0, 0xFFFFFFFF}
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = 0


class TestSlotSemantics:
    """Decrypted behaviour on the engine path: rotations compose and the
    column swap is an involution."""

    @pytest.fixture(scope="class")
    def slots(self):
        params = BfvParameters.toy_rns(
            n=N, towers=4, tower_bits=28, t=ntt_friendly_prime(N, 20)
        )
        bfv = Bfv(params, seed=0x5107)
        keys = bfv.keygen(relin_digit_bits=16)
        rotor = RotationEngine(bfv, keys.secret, digit_bits=16)
        encoder = BatchEncoder(params)
        values = list(range(1, N + 1))
        ct = bfv.encrypt(encoder.encode(values), keys.public)
        decode = lambda c: encoder.decode(bfv.decrypt(c, keys.secret))
        assert bfv.can_batch_relinearize(rotor.galois_key(3))
        return rotor, ct, values, decode

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 4), (4, 7), (7, 1)])
    def test_row_rotations_compose(self, slots, a, b):
        rotor, ct, _values, decode = slots
        chained = rotor.rotate_rows(rotor.rotate_rows(ct, a), b)
        direct = rotor.rotate_rows(ct, a + b)
        assert decode(chained) == decode(direct)
        assert decode(rotor.rotate_rows(chained, -(a + b))) == decode(ct)

    def test_column_swap_is_an_involution(self, slots):
        rotor, ct, values, decode = slots
        once = rotor.rotate_columns(ct)
        assert decode(once) != values
        assert decode(rotor.rotate_columns(once)) == values


class TestScalarFallbacks:
    """Each condition that leaves the engine must land on the scalar
    fold, say so in the path label, and agree with the engine's bytes
    wherever an engine result exists."""

    @staticmethod
    def _operands(params, seed):
        rng = random.Random(seed)
        q = params.q
        polys = [[rng.randrange(q) for _ in range(params.n)] for _ in range(3)]
        polys[0][:2] = [0, q - 1]
        ring = PolynomialRing(params.n, q, allow_non_ntt=True)
        make = lambda *cs: Ciphertext(
            [Polynomial.from_canonical(ring, c) for c in cs], params
        )
        return make(*polys[:2]), make(*polys)

    def _check(self, slow: Bfv, fast: Bfv | None, keys, gkey):
        """Both key switches on ``slow`` count as scalar and match
        ``fast`` (an engine-path scheme) when one is given."""
        slow.metrics = MetricsRegistry()
        two, three = self._operands(slow.params, 11)
        rotated = apply_galois_with_key(slow, two, gkey)
        relined = slow.relinearize(three, keys.relin)
        for kind in ("galois", "relin"):
            assert _switches(slow, kind, "scalar") == 1
            assert _switches(slow, kind, "engine") == 0
        assert "repro_keyswitch_row_builds_total" not in slow.metrics.snapshot()
        if fast is not None:
            assert fast.can_batch_relinearize(gkey)
            assert _same_bytes(rotated, apply_galois_with_key(fast, two, gkey))
            assert _same_bytes(relined, fast.relinearize(three, keys.relin))
        return rotated, relined

    def test_exact_multiplier_oracle(self):
        stack = _STACKS[3]
        params = stack.params
        off = Bfv(
            params, seed=1, multiplier=_ExactMultiplier(params.n, params.q)
        )
        assert off.multiplier_kind == "_ExactMultiplier"
        self._check(
            off, stack.engine, stack.keys[22],
            stack.rotors[22].galois_key(2 * N - 1),
        )

    def test_wide_modulus_without_a_word_sized_basis(self):
        """The paper's 218-bit modulus on the pure-Python multiplier the
        scheme falls back to when no auxiliary basis qualifies."""
        params = BfvParameters.toy(n=16, log_q=218)
        fast = Bfv(params, seed=2)
        keys = fast.keygen(relin_digit_bits=30)
        gkey = RotationEngine(fast, keys.secret, digit_bits=30).galois_key(3)
        slow = Bfv(params, multiplier=_ExactMultiplier(params.n, params.q))
        self._check(slow, fast, keys, gkey)

    @pytest.mark.parametrize("bits", (40, 64))
    def test_digit_width_beyond_the_fold_bound(self, bits):
        """One 24-bit tower: a 40- or 64-bit digit base pushes
        ``D*n*(T-1)*q/2`` past the auxiliary CRT modulus, but the fold on
        q's own tower ends in ``% q`` and has no such bound — the engine
        takes it, and is still right."""
        stack = _STACKS[1]
        keys = stack.keys[bits]
        gkey = stack.rotors[bits].galois_key(3)
        assert stack.engine.can_batch_relinearize(gkey)
        two, three = self._operands(stack.params, 11)
        assert _same_bytes(
            apply_galois_with_key(stack.engine, two, gkey),
            apply_galois_with_key(stack.scalar, two, gkey),
        )
        assert _same_bytes(
            stack.engine.relinearize(three, keys.relin),
            stack.scalar.relinearize(three, keys.relin),
        )

    @pytest.mark.parametrize("bits", (64, 100))
    def test_wide_q_declines_beyond_the_auxiliary_fold_bound(self, bits):
        """A 40-bit q tower is not engine-sized, so the fold runs on the
        auxiliary basis — the whole of it, exact integer folds reduced mod
        q — while ``D*n*(T-1)*q/2`` fits its CRT modulus; a 64- or
        100-bit digit base does not, and the scheme must decline."""
        params = BfvParameters.toy(n=16, log_q=40)
        capable = Bfv(params, seed=3)
        keys = capable.keygen(relin_digit_bits=22)
        fits = RotationEngine(capable, keys.secret, digit_bits=22)
        aux = capable._mult_ctx.tensor_engine
        assert capable._switch_engine(fits.galois_key(3)) is aux
        wide = capable.keygen(relin_digit_bits=bits)
        gkey = RotationEngine(capable, wide.secret, digit_bits=bits).galois_key(3)
        assert capable.multiplier_kind == "RnsExactMultiplier"
        assert not capable.can_batch_relinearize(gkey)
        oracle = Bfv(params, multiplier=_ExactMultiplier(params.n, params.q))
        for keyset, key in ((keys, fits.galois_key(3)), (wide, gkey)):
            fast = Bfv(params, seed=4)
            rotated, relined = self._check(
                oracle, fast if fast.can_batch_relinearize(key) else None,
                keyset, key,
            )
        assert gkey.ntt_rows is None and wide.relin.ntt_rows is None
        two, three = self._operands(params, 11)
        assert _same_bytes(rotated, apply_galois_with_key(capable, two, gkey))
        assert _same_bytes(relined, capable.relinearize(three, wide.relin))
