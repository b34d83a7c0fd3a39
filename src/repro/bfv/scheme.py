"""The BFV scheme: keygen, encryption, decryption, homomorphic evaluation.

Implements exactly the operations the paper builds on:

* encryption per Eqs. 2-3 (``c1 = kp1*u + e1 + Delta*m``, ``c2 = kp2*u + e2``);
* homomorphic multiplication per the Eq. 4 tensor — the polynomial products
  are computed *over the integers* (centered lift, exact negacyclic product
  via an auxiliary-prime NTT) and then scaled by ``t/q`` with rounding;
* relinearization by base-T digit decomposition, whose per-digit NTT work
  is what makes ``EvalMult`` "the slowest operation" (Section II-C) and the
  dominant term in the Table X application model.

The scheme is *functional* ground truth: the cycle-level chip model and the
software-baseline cost model both defer to it for correctness checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.bfv.keys import (
    GaloisKey,
    KeySet,
    KeySwitchKey,
    PublicKey,
    RelinKey,
    SecretKey,
)
from repro.bfv.params import BfvParameters
from repro.bfv.sampling import DiscreteGaussianSampler, TernarySampler, sample_uniform
from repro.polymath.ntt import NttContext
from repro.polymath.poly import Polynomial, PolynomialRing
from repro.polymath.primes import ntt_friendly_prime


@dataclass
class Ciphertext:
    """A BFV ciphertext: a list of polynomials over ``Z_q[x]/(x^n+1)``.

    Fresh ciphertexts have two components ``(c1, c2)``; the Eq. 4 tensor
    yields three ``(cc1, cc2, cc3)`` until relinearization maps it back to
    two. Decryption of a k-component ciphertext evaluates
    ``sum_i c_i * s**(i)`` (``i`` from 0).
    """

    polys: list[Polynomial]
    params: BfvParameters

    @property
    def size(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def copy(self) -> "Ciphertext":
        return Ciphertext(list(self.polys), self.params)

    def to_bytes(self) -> bytes:
        """Export to the versioned wire format (the serving-layer hook)."""
        from repro.service.serialization import serialize_ciphertext

        return serialize_ciphertext(self)

    @classmethod
    def from_bytes(cls, data: bytes, params: BfvParameters) -> "Ciphertext":
        """Decode wire bytes, checking the params digest for compatibility."""
        from repro.service.serialization import deserialize_ciphertext

        return deserialize_ciphertext(data, params)


class Bfv:
    """BFV scheme instance bound to a parameter set and a seeded RNG.

    Args:
        params: the BFV parameter set.
        seed: RNG seed (every experiment in the reproduction is seeded).
        multiplier: optional drop-in exact negacyclic multiplier (an object
            with ``multiply(a_centered, b_centered) -> list[int]``), e.g.
            :class:`repro.polymath.fastntt.RnsExactMultiplier` for the
            serving layer's vectorized backend. When omitted the scheme
            auto-selects: the batched-engine CRT multiplier where a
            word-sized auxiliary basis exists for ``n`` (the common case),
            with a transparent fallback to the exact pure-Python
            auxiliary-prime multiplier. Every multiplier computes the same
            exact integer product, so results are bit-identical regardless
            of the choice.
    """

    def __init__(self, params: BfvParameters, seed: int = 0, multiplier=None):
        self.params = params
        self.ring = PolynomialRing(params.n, params.q, allow_non_ntt=True)
        self._rng = random.Random(seed)
        self._ternary = TernarySampler(self._rng)
        self._gaussian = DiscreteGaussianSampler(self._rng, params.sigma)
        self._mult_ctx = multiplier or _default_multiplier(params.n, params.q)
        self._tensor_ok: bool | None = None
        # (num_digits, digit_bits) -> tower-prefix engine of the fold.
        self._fold_engines: dict[tuple[int, int], object] = {}
        #: Metrics sink (set by the serving layer's session registry;
        #: ``None`` leaves a standalone scheme un-instrumented).
        self.metrics = None

    @property
    def multiplier_kind(self) -> str:
        """Which exact multiplier backs this instance (class name)."""
        return type(self._mult_ctx).__name__

    # ------------------------------------------------------------------
    # Key generation
    # ------------------------------------------------------------------

    def keygen(self, relin_digit_bits: int | None = 22) -> KeySet:
        """Generate secret, public, and (optionally) relinearization keys.

        Args:
            relin_digit_bits: digit width for the relin key's base-T
                decomposition; ``None`` skips relin-key generation.
        """
        n, q = self.params.n, self.params.q
        s = self.ring(self._ternary.sample(n))
        a = self.ring(sample_uniform(self._rng, n, q))
        e = self.ring(self._gaussian.sample(n))
        kp1 = -(self._exact_mul(a, s) + e)
        public = PublicKey(kp1=kp1, kp2=a)
        secret = SecretKey(s=s)
        relin = None
        if relin_digit_bits is not None:
            relin = self._make_relin_key(s, relin_digit_bits)
        return KeySet(secret=secret, public=public, relin=relin)

    def _make_relin_key(self, s: Polynomial, digit_bits: int) -> RelinKey:
        if digit_bits < 1:
            raise ValueError(f"digit_bits must be >= 1, got {digit_bits}")
        n, q = self.params.n, self.params.q
        s2 = self._exact_mul(s, s)
        num_digits = -(-q.bit_length() // digit_bits)
        rows = []
        power = 1
        for _ in range(num_digits):
            a_i = self.ring(sample_uniform(self._rng, n, q))
            e_i = self.ring(self._gaussian.sample(n))
            b_i = -(self._exact_mul(a_i, s) + e_i) + s2.scalar_mul(power)
            rows.append((b_i, a_i))
            power = (power << digit_bits) % q
        return RelinKey(rows=tuple(rows), digit_bits=digit_bits)

    # ------------------------------------------------------------------
    # Encrypt / decrypt (paper Eqs. 2-3)
    # ------------------------------------------------------------------

    def encrypt(self, plaintext: Polynomial, public: PublicKey) -> Ciphertext:
        """Encrypt a plaintext polynomial (coefficients mod t)."""
        self._check_plaintext(plaintext)
        n = self.params.n
        u = self.ring(self._ternary.sample(n))
        e1 = self.ring(self._gaussian.sample(n))
        e2 = self.ring(self._gaussian.sample(n))
        delta_m = self._lift_plaintext(plaintext).scalar_mul(self.params.delta)
        c1 = self._exact_mul(public.kp1, u) + e1 + delta_m
        c2 = self._exact_mul(public.kp2, u) + e2
        return Ciphertext([c1, c2], self.params)

    def encrypt_zero(self, public: PublicKey) -> Ciphertext:
        """Encrypt the zero polynomial (useful for randomization)."""
        zero = PolynomialRing(self.params.n, self.params.t, allow_non_ntt=True).zero()
        return self.encrypt(zero, public)

    def decrypt(self, ct: Ciphertext, secret: SecretKey) -> Polynomial:
        """Decrypt: ``m = round(t * (sum_i c_i s^i) / q) mod t``."""
        phase = self._phase(ct, secret)
        t, q = self.params.t, self.params.q
        pt_ring = PolynomialRing(self.params.n, t, allow_non_ntt=True)
        coeffs = []
        for c in phase.centered():
            coeffs.append(_round_div(t * c, q) % t)
        return pt_ring(coeffs)

    def noise_budget(self, ct: Ciphertext, secret: SecretKey) -> int:
        """Remaining invariant-noise budget in bits (0 = decryption at risk).

        Computed SEAL-style: the budget is ``log2(q / (2t)) - log2 ||w||``
        where ``w`` is the rounding residue of the phase. It shrinks with
        every homomorphic operation and reaches 0 right before decryption
        failures begin.
        """
        phase = self._phase(ct, secret)
        t, q = self.params.t, self.params.q
        worst = 0
        for c in phase.centered():
            m = _round_div(t * c, q)
            w = abs(t * c - m * q)  # |t*c - round(t*c/q)*q| <= q/2 * t_noise
            worst = max(worst, w)
        if worst == 0:
            return max(0, q.bit_length() - t.bit_length() - 1)
        budget = (q.bit_length() - 1) - (worst.bit_length() - 1) - 1
        return max(0, budget)

    def _phase(self, ct: Ciphertext, secret: SecretKey) -> Polynomial:
        """``sum_i c_i * s**i`` over ``R_q`` (the decryption phase)."""
        acc = ct.polys[0]
        s_pow = secret.s
        for c in ct.polys[1:]:
            acc = acc + self._exact_mul(c, s_pow)
            s_pow = self._exact_mul(s_pow, secret.s)
        return acc

    # ------------------------------------------------------------------
    # Homomorphic operations
    # ------------------------------------------------------------------

    def add(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        """Homomorphic addition (componentwise, pads to the longer size)."""
        self._check_pair(ca, cb)
        size = max(ca.size, cb.size)
        zero = self.ring.zero()
        polys = []
        for i in range(size):
            pa = ca.polys[i] if i < ca.size else zero
            pb = cb.polys[i] if i < cb.size else zero
            polys.append(pa + pb)
        return Ciphertext(polys, self.params)

    def sub(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction."""
        self._check_pair(ca, cb)
        size = max(ca.size, cb.size)
        zero = self.ring.zero()
        polys = []
        for i in range(size):
            pa = ca.polys[i] if i < ca.size else zero
            pb = cb.polys[i] if i < cb.size else zero
            polys.append(pa - pb)
        return Ciphertext(polys, self.params)

    def multiply(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        """Homomorphic multiplication: the Eq. 4 tensor.

        ``(cc1, cc2, cc3) = round(t/q * (ca1*cb1, ca1*cb2 + ca2*cb1,
        ca2*cb2))`` with the polynomial products taken over the integers
        (centered representatives) before scaling.
        """
        self._check_pair(ca, cb)
        if ca.size != 2 or cb.size != 2:
            raise ValueError("EvalMult expects 2-component ciphertexts; relinearize first")
        a1, a2 = (p.centered() for p in ca.polys)
        b1, b2 = (p.centered() for p in cb.polys)
        eng = self._tensor_engine()
        if eng is not None:
            y0, y1, y2 = eng.tensor(
                eng.decompose(a1),
                eng.decompose(a2),
                eng.decompose(b1),
                eng.decompose(b2),
            )
            rows = eng.round_scale(
                np.stack((y0, y1, y2)), self.params.t, self.params.q
            )
            return Ciphertext(
                [Polynomial.from_canonical(self.ring, r) for r in rows],
                self.params,
            )
        m11 = self._mult_ctx.multiply(a1, b1)
        m12 = self._mult_ctx.multiply(a1, b2)
        m21 = self._mult_ctx.multiply(a2, b1)
        m22 = self._mult_ctx.multiply(a2, b2)
        cross = [x + y for x, y in zip(m12, m21)]
        t, q = self.params.t, self.params.q
        scale = lambda vec: self.ring([_round_div(t * c, q) for c in vec])
        return Ciphertext([scale(m11), scale(cross), scale(m22)], self.params)

    def square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic squaring (saves one integer product vs multiply)."""
        if ct.size != 2:
            raise ValueError("square expects a 2-component ciphertext")
        a1, a2 = (p.centered() for p in ct.polys)
        eng = self._tensor_engine()
        if eng is not None:
            y0, y1, y2 = eng.tensor_square(eng.decompose(a1), eng.decompose(a2))
            rows = eng.round_scale(
                np.stack((y0, y1, y2)), self.params.t, self.params.q
            )
            return Ciphertext(
                [Polynomial.from_canonical(self.ring, r) for r in rows],
                self.params,
            )
        m11 = self._mult_ctx.multiply(a1, a1)
        m12 = self._mult_ctx.multiply(a1, a2)
        m22 = self._mult_ctx.multiply(a2, a2)
        cross = [2 * x for x in m12]
        t, q = self.params.t, self.params.q
        scale = lambda vec: self.ring([_round_div(t * c, q) for c in vec])
        return Ciphertext([scale(m11), scale(cross), scale(m22)], self.params)

    def relinearize(self, ct: Ciphertext, relin: RelinKey) -> Ciphertext:
        """Map a 3-component ciphertext back to 2 components.

        Decomposes ``cc3`` into base-T digits and folds each digit through
        the corresponding relin-key row — per digit this is one polynomial
        multiplication pair, i.e. the NTT/Hadamard work the chip-side cost
        model charges for relinearization.
        """
        if ct.size == 2:
            return ct.copy()
        if ct.size != 3:
            raise ValueError(f"relinearize expects size-3 ciphertext, got {ct.size}")
        return self.relinearize_many([ct], relin)[0]

    def relinearize_many(
        self, cts: list[Ciphertext], relin: RelinKey
    ) -> list[Ciphertext]:
        """Relinearize a batch of size-3 ciphertexts under one eval key.

        One :meth:`key_switch` call folds every ``cc3`` (a single batched
        pass when :meth:`can_batch_relinearize` holds, the scalar fold
        otherwise) and adds the folds to ``(cc1, cc2)``. Bit-identical to
        calling :meth:`relinearize` per ciphertext. Size-2 inputs pass
        through untouched (copied).
        """
        for ct in cts:
            if ct.size not in (2, 3):
                raise ValueError(
                    f"relinearize expects size-2/3 ciphertexts, got {ct.size}"
                )
        switched = iter(self.key_switch(
            [
                (c3.coeffs, c1.coeffs, c2.coeffs)
                for c1, c2, c3 in (ct.polys for ct in cts if ct.size == 3)
            ],
            relin,
        ))
        return [next(switched) if ct.size == 3 else ct.copy() for ct in cts]

    def key_switch(self, items, key: KeySwitchKey) -> list[Ciphertext]:
        """The one key-switch: fold polynomials through ``key``'s rows.

        Each item is ``(poly, add_b, add_a)`` — canonical coefficient
        sequences (tuples, lists or object arrays). ``poly`` is split
        into the key's base-T digits ``d_i`` and the item's result is
        the ciphertext ``(add_b + sum_i d_i*b_i, add_a + sum_i d_i*a_i)``;
        ``add_a`` may be ``None`` for zero. Relinearization passes
        ``(cc3, cc1, cc2)``, a Galois rotation ``(c2(x^g), c1(x^g),
        None)`` — the two differ in nothing else.

        All items ride one batched engine pass
        (:meth:`~repro.polymath.engine.BatchedRnsEngine.keyswitch`)
        against the key's NTT-form rows when :meth:`can_batch_relinearize`
        holds; otherwise each folds through the exact scalar multiplier.
        Both produce the same canonical coefficients, and which one ran
        is counted in ``repro_keyswitch_total``.
        """
        if not items:
            return []
        eng = self._fold_engine(key)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_keyswitch_total",
                "key switches folded, by kind and execution path",
                kind="galois" if isinstance(key, GaloisKey) else "relin",
                path="scalar" if eng is None else "engine",
            ).inc(len(items))
        q = self.params.q
        if eng is None:
            folds = [self._fold_scalar(poly, key) for poly, _, _ in items]
        else:
            folds = eng.keyswitch(
                [poly for poly, _, _ in items],
                key.digit_bits,
                self._key_rows(eng, key),
            ).swapaxes(0, 1)
        out = []
        for (_, add_b, add_a), (fold_b, fold_a) in zip(items, folds):
            new_b = (np.asarray(add_b, dtype=object) + fold_b) % q
            if add_a is not None:
                fold_a = np.asarray(add_a, dtype=object) + fold_a
            new_a = fold_a % q
            out.append(Ciphertext(
                [
                    Polynomial.from_canonical(self.ring, new_b.tolist()),
                    Polynomial.from_canonical(self.ring, new_a.tolist()),
                ],
                self.params,
            ))
        return out

    def _fold_scalar(self, coeffs, key: KeySwitchKey):
        """Scalar key-switch fold ``(sum_i d_i*b_i, sum_i d_i*a_i)``.

        The path that runs without a batched engine (``REPRO_ENGINE=off``,
        no word-sized auxiliary basis) or when the key's fold bound
        exceeds the engine's CRT modulus, and the reference the parity
        suite holds the engine kernel to. Returns two object arrays.
        """
        digits = self._decompose_digits(
            Polynomial.from_canonical(self.ring, coeffs), key
        )
        fold_b = fold_a = self.ring.zero()
        for d, (b_i, a_i) in zip(digits, key.rows):
            fold_b = fold_b + self._exact_mul(d, b_i)
            fold_a = fold_a + self._exact_mul(d, a_i)
        return (
            np.asarray(fold_b.coeffs, dtype=object),
            np.asarray(fold_a.coeffs, dtype=object),
        )

    def can_batch_relinearize(self, key: KeySwitchKey) -> bool:
        """Whether the vectorized key-switch fold is exact for this key.

        True when the scheme's multiplier carries a batched RNS engine
        whose CRT modulus ``P`` dominates the fold bound
        ``D * n * (T - 1) * q/2`` (D digits of width ``T = 2**digit_bits``
        times centered key rows, convolved over ``n`` coefficients) — the
        condition for recovering the integer fold from centered residues.
        Holds for relinearization and Galois keys alike.
        """
        return self._fold_engine(key) is not None

    def _fold_engine(self, key: KeySwitchKey):
        """The engine the key's fold runs on, or ``None`` for scalar.

        The multiplier's auxiliary basis is sized for the Eq. 4 tensor
        (``2n(q/2)**2``); the fold bound is usually far smaller, so the
        fold runs on the shortest tower prefix whose modulus still
        dominates it — fewer towers through every NTT, Hadamard and
        Garner pass, same exact integers. Memoized per key shape.
        """
        eng = getattr(self._mult_ctx, "_engine", None)
        if eng is None:
            return None
        shape = (key.num_digits, key.digit_bits)
        if shape not in self._fold_engines:
            bound = (
                key.num_digits
                * self.params.n
                * ((1 << key.digit_bits) - 1)
                * (self.params.q // 2 + 1)
            )
            chosen, modulus = None, 1
            for k, tower in enumerate(eng.basis.moduli, start=1):
                modulus *= tower
                if bound < modulus // 2:
                    chosen = (
                        eng if k == eng.num_towers else eng.select(range(k))
                    )
                    break
            self._fold_engines[shape] = chosen
        return self._fold_engines[shape]

    def prewarm_keyswitch(self, key: KeySwitchKey) -> None:
        """Build the key's NTT-form rows ahead of serving.

        Key upload is the natural place to pay this one-time cost (SEAL
        likewise stores key-switch keys in NTT form): the key switch then
        finds the rows on the key on its first job instead of
        transforming every row mid-batch. No-op when the batched fold is
        unavailable for this key.
        """
        eng = self._fold_engine(key)
        if eng is not None:
            self._key_rows(eng, key)

    def _key_rows(self, eng, key: KeySwitchKey):
        """The key's ``(2, D, L, n)`` NTT-form rows on ``eng``'s basis.

        Held on the key itself (``key.ntt_rows``), tagged with the basis
        they were transformed on: built at most once per key in normal
        use, freed with the key, and rebuilt only if a scheme with a
        different auxiliary basis picks the same key object up.
        """
        held = key.ntt_rows
        if held is not None and held[0] == eng.basis.moduli:
            return held[1]
        rows = eng.keyswitch_rows(
            [(b.centered(), a.centered()) for b, a in key.rows]
        )
        # The key is frozen; its derived rows are the one slot set late.
        object.__setattr__(key, "ntt_rows", (eng.basis.moduli, rows))
        if self.metrics is not None:
            self.metrics.counter(
                "repro_keyswitch_row_builds_total",
                "key-switch keys transformed into NTT-form rows",
            ).inc()
        return rows

    def _tensor_engine(self):
        """The multiplier's batched engine when the Eq. 4 bound holds.

        The tensor's cross term ``m12 + m21`` doubles the single-product
        bound, so the engine path additionally requires
        ``2 * n * (q/2)**2 < P/2``; the default auxiliary basis is built
        with 4x margin, making this the common case. Returns ``None`` for
        scalar fallback (custom multipliers, wide params).
        """
        eng = getattr(self._mult_ctx, "_engine", None)
        if eng is None:
            return None
        if self._tensor_ok is None:
            n, q = self.params.n, self.params.q
            self._tensor_ok = (
                2 * n * (q // 2 + 1) ** 2 < eng.modulus // 2
            )
        return eng if self._tensor_ok else None

    def multiply_relin(self, ca: Ciphertext, cb: Ciphertext, relin: RelinKey) -> Ciphertext:
        """Convenience: Eq. 4 tensor followed by relinearization."""
        return self.relinearize(self.multiply(ca, cb), relin)

    def add_plain(self, ct: Ciphertext, plaintext: Polynomial) -> Ciphertext:
        """Add a plaintext polynomial: ``c1 += Delta * m``."""
        self._check_plaintext(plaintext)
        delta_m = self._lift_plaintext(plaintext).scalar_mul(self.params.delta)
        polys = list(ct.polys)
        polys[0] = polys[0] + delta_m
        return Ciphertext(polys, self.params)

    def multiply_plain(self, ct: Ciphertext, plaintext: Polynomial) -> Ciphertext:
        """Multiply by a plaintext polynomial (no tensor, no rescale).

        Each ciphertext component is multiplied by the *centered* plaintext
        so small-magnitude messages keep noise growth minimal — this is the
        ``ct*pt`` operation of the Table X application mixes.
        """
        self._check_plaintext(plaintext)
        if all(c == 0 for c in plaintext.coeffs):
            return Ciphertext([self.ring.zero() for _ in ct.polys], self.params)
        lifted = self._lift_plaintext(plaintext)
        polys = [self._exact_mul(p, lifted) for p in ct.polys]
        return Ciphertext(polys, self.params)

    def multiply_scalar(self, ct: Ciphertext, scalar: int) -> Ciphertext:
        """Multiply by an integer scalar mod t (chip op ``CMODMUL``)."""
        s = scalar % self.params.t
        if s > self.params.t // 2:
            s -= self.params.t  # centered lift keeps noise small
        polys = [p.scalar_mul(s) for p in ct.polys]
        return Ciphertext(polys, self.params)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext([-p for p in ct.polys], self.params)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _exact_mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """Negacyclic product in ``R_q`` via the exact integer multiplier."""
        prod = self._mult_ctx.multiply(a.centered(), b.centered())
        return self.ring(prod)

    def _lift_plaintext(self, plaintext: Polynomial) -> Polynomial:
        """Centered lift of a mod-t plaintext into ``R_q``."""
        t = self.params.t
        half = t // 2
        coeffs = [c - t if c > half else c for c in plaintext.coeffs]
        return self.ring(coeffs)

    def _decompose_digits(
        self, poly: Polynomial, relin: KeySwitchKey
    ) -> list[Polynomial]:
        """Base-T digit decomposition of every coefficient of ``poly``.

        Coefficients must be canonical (``[0, q)``): a negative (centered)
        coefficient would sign-extend under ``c & mask``, yielding digits
        that silently corrupt the relin fold — so it raises instead, the
        same contract :meth:`BatchedRnsEngine.digit_decompose` enforces on
        the vectorized path.
        """
        mask = (1 << relin.digit_bits) - 1
        digit_coeffs: list[list[int]] = [[] for _ in range(relin.num_digits)]
        for c in poly.coeffs:
            if c < 0:
                raise ValueError(
                    "digit decomposition requires canonical coefficients in "
                    "[0, q); got a negative (centered?) coefficient"
                )
            for i in range(relin.num_digits):
                digit_coeffs[i].append(c & mask)
                c >>= relin.digit_bits
        return [self.ring(dc) for dc in digit_coeffs]

    def _check_pair(self, ca: Ciphertext, cb: Ciphertext) -> None:
        if ca.params is not cb.params and ca.params != cb.params:
            raise ValueError("ciphertexts use different parameter sets")

    def _check_plaintext(self, plaintext: Polynomial) -> None:
        if plaintext.ring.n != self.params.n:
            raise ValueError(
                f"plaintext degree {plaintext.ring.n} != scheme degree {self.params.n}"
            )
        if plaintext.ring.q != self.params.t:
            raise ValueError(
                f"plaintext modulus {plaintext.ring.q} != scheme t {self.params.t}"
            )


def _default_multiplier(n: int, q: int):
    """Auto-select the exact negacyclic multiplier for ``(n, q)``.

    Prefers the batched-engine CRT multiplier
    (:class:`~repro.polymath.fastntt.RnsExactMultiplier`) — every tower of
    its word-sized auxiliary basis runs through one vectorized pass — and
    falls back to the pure-Python wide-auxiliary-prime multiplier when no
    qualifying basis exists (or the engine is disabled via
    ``REPRO_ENGINE=off``). Both are exact over the integers, so the choice
    never changes a ciphertext bit.
    """
    from repro.polymath.engine import engine_enabled

    if engine_enabled():
        from repro.polymath.fastntt import RnsExactMultiplier

        try:
            return RnsExactMultiplier(n, q)
        except ValueError:
            pass  # no word-sized auxiliary basis for this degree
    return _ExactMultiplier(n, q)


class _ExactMultiplier:
    """Exact negacyclic product of centered integer polynomials.

    Products in ``EvalMult`` must be taken over the integers before the
    ``t/q`` scaling. Coefficients are bounded by ``n * (q/2)**2``, so an
    NTT over one auxiliary prime wide enough to hold that bound recovers the
    exact integer result from its centered residue.
    """

    def __init__(self, n: int, q: int):
        self.n = n
        # bound on |product coefficient|: n * (q/2)^2; need P > 2*bound.
        bound_bits = 2 * (q.bit_length() - 1) + n.bit_length() + 2
        self.aux_q = ntt_friendly_prime(n, bound_bits + 2)
        self.ctx = NttContext(n, self.aux_q)

    def multiply(self, a_centered: list[int], b_centered: list[int]) -> list[int]:
        """Return the exact integer negacyclic product of centered inputs."""
        p = self.aux_q
        fa = self.ctx.forward([x % p for x in a_centered])
        fb = self.ctx.forward([x % p for x in b_centered])
        prod = [x * y % p for x, y in zip(fa, fb)]
        res = self.ctx.inverse(prod)
        half = p // 2
        return [c - p if c > half else c for c in res]


def _round_div(numerator: int, denominator: int) -> int:
    """Round-half-away-from-zero integer division (the Eq. 4 rounding)."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if numerator >= 0:
        return (2 * numerator + denominator) // (2 * denominator)
    return -((-2 * numerator + denominator) // (2 * denominator))
