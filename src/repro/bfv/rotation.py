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
from repro.polymath.poly import Polynomial


@lru_cache(maxsize=64)
def _automorphism_table(n: int, exponent: int) -> tuple[np.ndarray, np.ndarray]:
    """``(src, mask)`` with ``p(x^g)[j] = p[src[j]]``, negated where
    ``mask[j]`` is set.

    Monomial ``x^i`` maps to ``x^(i*g mod 2n)``, negated when the reduced
    exponent crosses ``n`` (since ``x^n = -1``); ``g`` odd makes
    ``i -> i*g mod n`` a bijection, so the map inverts into one ``int64``
    gather index and one ``uint32`` sign mask (all ones where the sign
    flips, else zero: the select :meth:`Polynomial.permuted` runs on
    tower rows) per ``(n, g)``. The arrays are shared by every caller
    and therefore read-only.
    """
    if exponent % 2 == 0 or not 0 < exponent < 2 * n:
        raise ValueError(f"automorphism exponent must be odd in (0, 2n), got {exponent}")
    dest = np.arange(n, dtype=np.int64) * exponent % (2 * n)
    src = np.empty(n, dtype=np.int64)
    src[dest % n] = np.arange(n, dtype=np.int64)
    mask = np.empty(n, dtype=np.uint32)
    mask[dest % n] = np.where(dest >= n, np.uint32(0xFFFFFFFF), np.uint32(0))
    src.flags.writeable = mask.flags.writeable = False
    return src, mask


def apply_automorphism(poly: Polynomial, exponent: int) -> Polynomial:
    """Map ``p(x) -> p(x^g)`` in ``Z_q[x]/(x^n + 1)``.

    Monomial ``x^i`` maps to ``x^(i*g mod 2n)`` with a sign flip when the
    reduced exponent crosses ``n`` (since ``x^n = -1``): one signed index
    permutation (:meth:`~repro.polymath.poly.Polynomial.permuted`), one
    gather of the whole tower stack when ``poly`` is tower-backed.
    """
    return poly.permuted(*_automorphism_table(poly.ring.n, exponent))


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
        if exponent not in self._keys:
            s = self._secret.s
            s_g = apply_automorphism(self.bfv._towered(s), exponent)
            self._keys[exponent] = GaloisKey(
                exponent=exponent, digit_bits=self.digit_bits,
                rows=self.bfv._switch_rows(s, s_g, self.digit_bits),
            )
        return self._keys[exponent]

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

    Needs no secret key, so the serving layer rotates with the session's
    evaluation keys: ``x -> x^g`` on both components (per tower when the
    scheme has q's towers), then the relinearization's
    :meth:`~repro.bfv.scheme.Bfv.key_switch` takes ``c2(x^g)`` from
    ``s(x^g)`` back under ``s``, adding ``(c1(x^g), 0)`` to the folds.
    """
    if ct.size != 2:
        raise ValueError("rotate a 2-component ciphertext (relinearize first)")
    c1g, c2g = (
        apply_automorphism(bfv._towered(p), key.exponent) for p in ct.polys
    )
    return bfv.key_switch([(c2g, c1g, None)], key)[0]


def slot_permutation(encoder, exponent: int) -> list[int]:
    """Where the automorphism ``x -> x^g`` moves each batching slot.

    Returns ``perm`` with ``new_slots[i] == old_slots[perm[i]]``, from the
    encoder's evaluation points alone: slot ``i`` evaluates at ``v_i``
    (the decode of the monomial ``x``) and ``p(x^g)(v_i) = p(v_i^g)``.
    The plaintext ground truth of the rotation tests, and how the packed
    app compilers aim a value at a slot.
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

