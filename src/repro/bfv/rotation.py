"""Galois automorphisms and SIMD slot rotation for BFV.

Real CryptoNets-style pipelines need to *sum across slots* (e.g. the dot
product inside a dense layer), which BFV does with Galois rotations: the
automorphism ``x -> x^g`` permutes the batching slots, and key switching
with a Galois key brings the ciphertext back under the original secret.
The paper's op counts fold these into its ct*ct/relin totals; this module
supplies the primitive so the functional miniatures can do genuine
all-slots reductions.

Slot layout: for ``t === 1 (mod 2n)`` the ``n`` slots form two rings of
``n/2`` (indexed by powers of 3 modulo 2n); ``rotate_rows`` rotates within
each half and ``rotate_columns`` swaps the halves — SEAL's terminology.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.bfv.keys import GaloisKey, SecretKey
from repro.bfv.scheme import Bfv, Ciphertext
from repro.bfv.sampling import sample_uniform
from repro.polymath.poly import Polynomial


@lru_cache(maxsize=64)
def _automorphism_table(n: int, exponent: int) -> tuple[np.ndarray, np.ndarray]:
    """``(src, flip)`` with ``p(x^g)[j] = (-1)**flip[j] * p[src[j]]``.

    Monomial ``x^i`` maps to ``x^(i*g mod 2n)``, negated when the reduced
    exponent crosses ``n`` (since ``x^n = -1``); ``g`` odd makes
    ``i -> i*g mod n`` a bijection, so the map inverts into one gather
    index and one sign mask per ``(n, g)``. The arrays are shared by
    every caller and therefore read-only.
    """
    if exponent % 2 == 0 or not 0 < exponent < 2 * n:
        raise ValueError(f"automorphism exponent must be odd in (0, 2n), got {exponent}")
    dest = np.arange(n, dtype=np.int64) * exponent % (2 * n)
    src = np.empty(n, dtype=np.int64)
    src[dest % n] = np.arange(n, dtype=np.int64)
    flip = np.empty(n, dtype=bool)
    flip[dest % n] = dest >= n
    src.flags.writeable = flip.flags.writeable = False
    return src, flip


def _automorphism_coeffs(coeffs, n: int, q: int, exponent: int) -> np.ndarray:
    """Canonical coefficients of ``p(x^g)`` as an object array."""
    src, flip = _automorphism_table(n, exponent)
    out = np.asarray(coeffs, dtype=object)[src]
    out[flip] = -out[flip] % q
    return out


def apply_automorphism(poly: Polynomial, exponent: int) -> Polynomial:
    """Map ``p(x) -> p(x^g)`` in ``Z_q[x]/(x^n + 1)``.

    Monomial ``x^i`` maps to ``x^(i*g mod 2n)`` with a sign flip when the
    reduced exponent crosses ``n`` (since ``x^n = -1``).
    """
    ring = poly.ring
    out = _automorphism_coeffs(poly.coeffs, ring.n, ring.q, exponent)
    return Polynomial.from_canonical(ring, out.tolist())


class RotationEngine:
    """Galois-key generation and slot rotation bound to a scheme instance."""

    #: Generator of the slot-permutation group (SEAL's choice).
    GENERATOR = 3

    def __init__(self, bfv: Bfv, secret: SecretKey, digit_bits: int = 16):
        self.bfv = bfv
        self.params = bfv.params
        self._secret = secret
        self.digit_bits = digit_bits
        self._keys: dict[int, GaloisKey] = {}

    # -- key generation -----------------------------------------------------

    def galois_key(self, exponent: int) -> GaloisKey:
        """Generate (and cache) the key-switching key for ``x -> x^g``.

        Rows satisfy ``b_i = -(a_i s + e_i) + T^i s(x^g)`` so switching a
        ciphertext that decrypts under ``s(x^g)`` back to ``s``.
        """
        if exponent in self._keys:
            return self._keys[exponent]
        bfv = self.bfv
        n, q = self.params.n, self.params.q
        s_g = apply_automorphism(self._secret.s, exponent)
        num_digits = -(-q.bit_length() // self.digit_bits)
        rows = []
        power = 1
        for _ in range(num_digits):
            a_i = bfv.ring(sample_uniform(bfv._rng, n, q))
            e_i = bfv.ring(bfv._gaussian.sample(n))
            b_i = -(bfv._exact_mul(a_i, self._secret.s) + e_i) + s_g.scalar_mul(power)
            rows.append((b_i, a_i))
            power = (power << self.digit_bits) % q
        key = GaloisKey(exponent=exponent, rows=tuple(rows),
                        digit_bits=self.digit_bits)
        self._keys[exponent] = key
        return key

    # -- rotation -------------------------------------------------------------

    def apply_galois(self, ct: Ciphertext, exponent: int) -> Ciphertext:
        """Apply ``x -> x^g`` to a 2-component ciphertext and key-switch."""
        return apply_galois_with_key(self.bfv, ct, self.galois_key(exponent))

    def rotate_rows(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Rotate both slot half-rings by ``steps`` positions."""
        half = self.params.n // 2
        steps %= half
        if steps == 0:
            return ct.copy()
        exponent = pow(self.GENERATOR, steps, 2 * self.params.n)
        return self.apply_galois(ct, exponent)

    def rotate_columns(self, ct: Ciphertext) -> Ciphertext:
        """Swap the two slot half-rings (``g = 2n - 1``)."""
        return self.apply_galois(ct, 2 * self.params.n - 1)

    def sum_all_slots(self, ct: Ciphertext) -> Ciphertext:
        """Reduce: every slot ends up holding the sum of all slots.

        log2(n/2) row rotations + one column swap — the dense-layer
        reduction pattern CryptoNets uses.
        """
        half = self.params.n // 2
        acc = ct
        step = 1
        while step < half:
            acc = self.bfv.add(acc, self.rotate_rows(acc, step))
            step <<= 1
        return self.bfv.add(acc, self.rotate_columns(acc))


def apply_galois_with_key(bfv: Bfv, ct: Ciphertext, key: GaloisKey) -> Ciphertext:
    """Rotate with an explicit (e.g. client-uploaded) Galois key.

    Unlike :meth:`RotationEngine.apply_galois` this needs no secret key, so
    the serving layer can rotate tenant ciphertexts using only the
    evaluation keys registered with the session: apply ``x -> x^g`` to both
    components, then key-switch ``c2(x^g)`` from ``s(x^g)`` back under
    ``s`` — the same :meth:`~repro.bfv.scheme.Bfv.key_switch` a
    relinearization runs, adding ``(c1(x^g), 0)`` to the folds.
    """
    if ct.size != 2:
        raise ValueError("rotate a 2-component ciphertext (relinearize first)")
    n, q = bfv.params.n, bfv.params.q
    c1g, c2g = (
        _automorphism_coeffs(p.coeffs, n, q, key.exponent) for p in ct.polys
    )
    return bfv.key_switch([(c2g, c1g, None)], key)[0]


def slot_permutation(encoder, exponent: int) -> list[int]:
    """Where the automorphism ``x -> x^g`` moves each batching slot.

    Returns ``perm`` with ``new_slots[i] == old_slots[perm[i]]``. Computed
    purely from the encoder's evaluation points (no keys, no ciphertexts):
    slot ``i`` evaluates the plaintext at point ``v_i`` (the decode of the
    monomial ``x``), and ``p(x^g)`` evaluated at ``v_i`` is ``p(v_i^g)`` —
    so the new slot ``i`` holds whichever old slot evaluated at
    ``v_i^g mod t``. This is the plaintext ground truth the rotation tests
    check the keyed ciphertext path against, and what the packed app
    compilers use to aim a value at a specific slot.
    """
    t = encoder.params.t
    points = encoder.decode(encoder.ring([0, 1]))  # v_i = slot i's point
    index_of = {v: i for i, v in enumerate(points)}
    return [index_of[pow(v, exponent, t)] for v in points]


def rotation_plan(n: int) -> dict[int, tuple[tuple[str, int], ...]]:
    """Circuit-step recipe for every reachable slot-permutation element.

    The rotation group ``{±3^k mod 2n}`` acts simply transitively on the
    ``n`` slots; circuits expose its generators as ``rotate_rows(k)``
    (``g = 3^k``) and ``rotate_columns`` (``g = 2n-1``). Maps each group
    element ``g`` to the step sequence realizing it: ``()`` for the
    identity, one step for a pure row rotation or the column swap, two
    for their composition. Used by the packed compilers to move a masked
    value from slot 0 to an arbitrary target slot.
    """
    m = 2 * n
    plan: dict[int, tuple[tuple[str, int], ...]] = {}
    for k in range(n // 2):
        g = pow(RotationEngine.GENERATOR, k, m)
        rows: tuple[tuple[str, int], ...] = (("rows", k),) if k else ()
        plan.setdefault(g, rows)
        plan.setdefault((m - 1) * g % m, (("cols", 0),) + rows)
    return plan

