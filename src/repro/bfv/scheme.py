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

When q's own towers are engine-sized (every ``toy_rns`` set), every
ciphertext the scheme computes is a tower-backed
:class:`~repro.polymath.poly.Polynomial` and no step builds a wide
integer: Eq. 4 scales by ``BatchedRnsEngine.scale_round``, and the
key-switch fold, ``multiply_plain``, the linear ops and the automorphism
run mod each ``q_i``. Other sets (the paper presets' 55- and 109-bit
towers) compute on Python ints around the engine's exact products.
"""

from __future__ import annotations

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
from repro.polymath.engine import require_engine
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
            :class:`repro.polymath.fastntt.RnsExactMultiplier` (the
            default wherever a word-sized auxiliary basis exists for
            ``n``) or the pure-Python ``_ExactMultiplier`` oracle. Every
            multiplier computes the same exact integer product, so
            results are bit-identical regardless of the choice.
    """

    def __init__(self, params: BfvParameters, seed: int = 0, multiplier=None):
        self.params = params
        self.ring = PolynomialRing(params.n, params.q, allow_non_ntt=True)
        self._rng = random.Random(seed)
        self._ternary = TernarySampler(self._rng)
        self._gaussian = DiscreteGaussianSampler(self._rng, params.sigma)
        self._mult_ctx = multiplier or _default_multiplier(params)
        #: The multiplier's auxiliary engine (``None`` for custom
        #: multipliers): it folds key switches when q's towers are wide,
        #: and runs the Eq. 4 tensor when its CRT modulus holds the cross
        #: term's bound 2n(q/2)^2 (twice a single product's); otherwise
        #: the exact scalar products run.
        eng = self._aux_eng = getattr(self._mult_ctx, "tensor_engine", None)
        bound = 2 * params.n * (params.q // 2 + 1) ** 2
        self._tensor_eng = (
            eng if eng is not None and bound < eng.modulus // 2 else None
        )
        #: The engine over q's own towers, when the multiplier's tensor
        #: basis leads with them: every ciphertext is computed on it.
        self._rns = (
            require_engine(params.q_basis, params.n)
            if getattr(self._mult_ctx, "q_towers", 0) else None
        )
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
        rows = self._switch_rows(s, self._exact_mul(s, s), digit_bits)
        return RelinKey(rows=rows, digit_bits=digit_bits)

    def _switch_rows(self, s: Polynomial, target: Polynomial, digit_bits: int):
        """Key-switch rows ``b_i = -(a_i*s + e_i) + T**i * target``: they
        switch a polynomial that decrypts under ``target`` back to ``s``."""
        if digit_bits < 1:
            raise ValueError(f"digit_bits must be >= 1, got {digit_bits}")
        n, q = self.params.n, self.params.q
        rows, power = [], 1
        for _ in range(-(-q.bit_length() // digit_bits)):
            a_i = self.ring(sample_uniform(self._rng, n, q))
            e_i = self.ring(self._gaussian.sample(n))
            b_i = -(self._exact_mul(a_i, s) + e_i) + target.scalar_mul(power)
            rows.append((b_i, a_i))
            power = (power << digit_bits) % q
        return tuple(rows)

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
        delta_m = self._lift_plaintext(plaintext, self.params.delta)
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
        return self._zip(ca, cb, lambda a, b: a + b)

    def sub(self, ca: Ciphertext, cb: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction."""
        return self._zip(ca, cb, lambda a, b: a - b)

    def _zip(self, ca: Ciphertext, cb: Ciphertext, op) -> Ciphertext:
        self._check_pair(ca, cb)
        part = lambda ct, i: (
            self._towered(ct.polys[i]) if i < ct.size else self.ring.zero()
        )
        return Ciphertext(
            [op(part(ca, i), part(cb, i)) for i in range(max(ca.size, cb.size))],
            self.params,
        )

    def multiply(
        self, ca: Ciphertext, cb: Ciphertext, on_rows=None
    ) -> Ciphertext:
        """Homomorphic multiplication: the Eq. 4 tensor.

        ``(cc1, cc2, cc3) = round(t/q * (ca1*cb1, ca1*cb2 + ca2*cb1,
        ca2*cb2))`` with the polynomial products taken over the integers
        (centered representatives) before scaling.

        ``on_rows(operands, outputs)``, if given, gets the tensor's head
        rows when the auxiliary basis leads with q's ``L_q`` towers: the
        ``(4, L_q, n)`` residues of ``ca1, ca2, cb1, cb2`` and the ``(3,
        L_q, n)`` mod-``q_i`` outputs — what a chip replaying the tensor
        tower by tower loads and must read back.
        """
        self._check_pair(ca, cb)
        if ca.size != 2 or cb.size != 2:
            raise ValueError("EvalMult expects 2-component ciphertexts; relinearize first")
        return self._tensor(ca, cb, on_rows)

    def square(self, ct: Ciphertext, on_rows=None) -> Ciphertext:
        """Homomorphic squaring: two forward NTTs fewer than multiply.

        ``on_rows`` is :meth:`multiply`'s, with ``cb = ca``.
        """
        if ct.size != 2:
            raise ValueError("square expects a 2-component ciphertext")
        return self._tensor(ct, ct, on_rows)

    def _tensor(self, ca: Ciphertext, cb: Ciphertext, on_rows) -> Ciphertext:
        """The Eq. 4 tensor scaled by ``t/q``; ``ca is cb`` squares."""
        t, q = self.params.t, self.params.q
        eng = self._tensor_eng
        if eng is None:
            a1, a2 = (p.centered() for p in ca.polys)
            b1, b2 = (p.centered() for p in cb.polys)
            mul = self._mult_ctx.multiply
            cross = [x + y for x, y in zip(mul(a1, b2), mul(a2, b1))]
            return Ciphertext(
                [self.ring([_round_div(t * c, q) for c in vec])
                 for vec in (mul(a1, b1), cross, mul(a2, b2))],
                self.params,
            )
        polys = ca.polys if ca is cb else (*ca.polys, *cb.polys)
        operands = eng.centred(polys)
        head = getattr(self._mult_ctx, "q_towers", 0)
        loads = None
        if on_rows is not None and head:  # a copy: the kernel consumes operands
            loads = operands[[0, 1, 0, 1] if ca is cb else [0, 1, 2, 3], :head]
        outputs = eng._tensor(operands)
        if loads is not None:
            on_rows(loads, outputs[:, :head])
        if self._rns is not None:
            scaled = eng._scale_round(outputs, t, head)
            return Ciphertext([self._on_rns(r) for r in scaled], self.params)
        return Ciphertext(
            [Polynomial.from_canonical(self.ring, r)
             for r in eng.round_scale(outputs, t, q)],
            self.params,
        )

    def relinearize(self, ct: Ciphertext, relin: RelinKey) -> Ciphertext:
        """Map a 3-component ciphertext back to 2 (a size-2 one is copied):
        ``cc3``'s base-T digits fold through the relin-key rows, one
        polynomial product pair per digit (:meth:`relinearize_many`)."""
        return self.relinearize_many([ct], relin)[0]

    def relinearize_many(
        self, cts: list[Ciphertext], relin: RelinKey
    ) -> list[Ciphertext]:
        """Relinearize a batch under one eval key: one :meth:`key_switch`
        folds every ``cc3`` and adds the folds to ``(cc1, cc2)``. Size-2
        inputs pass through (copied)."""
        for ct in cts:
            if ct.size not in (2, 3):
                raise ValueError(
                    f"relinearize expects size-2/3 ciphertexts, got {ct.size}"
                )
        switched = iter(self.key_switch(
            [(c3, c1, c2) for c1, c2, c3 in (ct.polys for ct in cts if ct.size == 3)],
            relin,
        ))
        return [next(switched) if ct.size == 3 else ct.copy() for ct in cts]

    def key_switch(self, items, key: KeySwitchKey) -> list[Ciphertext]:
        """The one key-switch: fold polynomials through ``key``'s rows.

        Each item is ``(poly, add_b, add_a)``, three polynomials (``add_a``
        may be ``None`` for zero). ``poly`` is split into the key's
        base-T digits ``d_i`` and the item's result is the ciphertext
        ``(add_b + sum_i d_i*b_i, add_a + sum_i d_i*a_i)``. Relinearization
        passes ``(cc3, cc1, cc2)``, a Galois rotation ``(c2(x^g),
        c1(x^g), None)`` — the two differ in nothing else.

        All items ride one batched engine pass
        (:meth:`~repro.polymath.engine.BatchedRnsEngine.keyswitch`, digits
        read off the coefficient words) against the key's NTT-form rows
        when :meth:`can_batch_relinearize` holds, else each folds through
        the exact scalar multiplier. Both give the same coefficients;
        ``repro_keyswitch_total`` counts which ran.
        """
        if not items:
            return []
        eng = self._switch_engine(key)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_keyswitch_total",
                "key switches folded, by kind and execution path",
                kind="galois" if isinstance(key, GaloisKey) else "relin",
                path="scalar" if eng is None else "engine",
            ).inc(len(items))
        if eng is None:
            folds = [self._fold_scalar(poly, key) for poly, _, _ in items]
        else:
            out = eng._keyswitch(
                eng.key_digits([p for p, _, _ in items], key.digit_bits,
                               key.num_digits),
                self._key_rows(eng, key),
            )
            if eng is self._rns:
                folds = [(self._on_rns(b), self._on_rns(a)) for b, a in zip(*out)]
            else:  # exact integer folds, reduced mod q
                vals = eng.centered_values(out.reshape(-1, *out.shape[2:]))
                vals = vals.reshape(2, len(items), -1).tolist()
                folds = [(self.ring(b), self.ring(a)) for b, a in zip(*vals)]
        return [
            Ciphertext(
                [fold_b + add_b, fold_a if add_a is None else fold_a + add_a],
                self.params,
            )
            for (_, add_b, add_a), (fold_b, fold_a) in zip(items, folds)
        ]

    def _fold_scalar(self, poly: Polynomial, key: KeySwitchKey):
        """Scalar key-switch fold ``(sum_i d_i*b_i, sum_i d_i*a_i)``: the
        path without an engine for the key, and the parity reference."""
        fold_b = fold_a = self.ring.zero()
        for d, (b_i, a_i) in zip(self._decompose_digits(poly, key), key.rows):
            fold_b = fold_b + self._exact_mul(d, b_i)
            fold_a = fold_a + self._exact_mul(d, a_i)
        return fold_b, fold_a

    def can_batch_relinearize(self, key: KeySwitchKey) -> bool:
        """Whether the key's fold runs on a batched engine (see
        :meth:`_switch_engine`); relinearization and Galois keys alike."""
        return self._switch_engine(key) is not None

    def _switch_engine(self, key: KeySwitchKey):
        """The engine the key's fold runs on, or ``None`` for scalar.

        q's own towers whenever the scheme has them: the fold ends in
        ``% q``, exact per tower at any digit width. Otherwise the
        multiplier's auxiliary engine, when its CRT modulus ``P`` holds
        the fold bound ``D * n * (T - 1) * q/2`` (D digits of width ``T``
        times centered key rows over ``n`` coefficients), and the exact
        integer fold is reduced mod q.
        """
        if self._rns is not None:
            return self._rns
        eng = self._aux_eng
        if eng is None:
            return None
        bound = (
            key.num_digits * self.params.n * ((1 << key.digit_bits) - 1)
            * (self.params.q // 2 + 1)
        )
        return eng if bound < eng.modulus // 2 else None

    def prewarm_keyswitch(self, key: KeySwitchKey) -> None:
        """Build the key's NTT-form rows at key upload (SEAL likewise
        stores key-switch keys in NTT form), not mid-batch on first use.
        No-op when the batched fold is unavailable for this key."""
        eng = self._switch_engine(key)
        if eng is not None:
            self._key_rows(eng, key)

    def _key_rows(self, eng, key: KeySwitchKey):
        """The key's ``(2, D, L, n)`` NTT-form rows on ``eng``'s basis,
        held on the key (``key.ntt_rows``) tagged with that basis: built
        once per key, freed with it, rebuilt only on another basis."""
        held = key.ntt_rows
        if held is not None and held[0] == eng.basis.moduli:
            return held[1]
        rows = eng.keyswitch_rows(key.rows)
        # The key is frozen; its derived rows are the one slot set late.
        object.__setattr__(key, "ntt_rows", (eng.basis.moduli, rows))
        if self.metrics is not None:
            self.metrics.counter(
                "repro_keyswitch_row_builds_total",
                "key-switch keys transformed into NTT-form rows",
            ).inc()
        return rows

    def multiply_relin(self, ca: Ciphertext, cb: Ciphertext, relin: RelinKey) -> Ciphertext:
        """Convenience: Eq. 4 tensor followed by relinearization."""
        return self.relinearize(self.multiply(ca, cb), relin)

    def add_plain(self, ct: Ciphertext, plaintext: Polynomial) -> Ciphertext:
        """Add a plaintext polynomial: ``c1 += Delta * m``."""
        self._check_plaintext(plaintext)
        polys = list(ct.polys)
        polys[0] = self._towered(polys[0]) + self._lift_plaintext(
            plaintext, self.params.delta
        )
        return Ciphertext(polys, self.params)

    def multiply_plain(self, ct: Ciphertext, plaintext: Polynomial) -> Ciphertext:
        """Multiply by a plaintext polynomial (no tensor, no rescale).

        Each ciphertext component is multiplied by the *centered* plaintext
        so small-magnitude messages keep noise growth minimal — this is the
        ``ct*pt`` operation of the Table X application mixes.
        """
        self._check_plaintext(plaintext)
        lifted = self._lift_plaintext(plaintext)
        return Ciphertext(
            [self._exact_mul(p, lifted) for p in ct.polys], self.params
        )

    def multiply_scalar(self, ct: Ciphertext, scalar: int) -> Ciphertext:
        """Multiply by an integer scalar mod t (chip op ``CMODMUL``)."""
        s = scalar % self.params.t
        if s > self.params.t // 2:
            s -= self.params.t  # centered lift keeps noise small
        polys = [self._towered(p).scalar_mul(s) for p in ct.polys]
        return Ciphertext(polys, self.params)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext([-self._towered(p) for p in ct.polys], self.params)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _exact_mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """Negacyclic product in ``R_q``: per tower of q when the scheme
        has them, else via the exact integer multiplier."""
        rns = self._rns
        if rns is not None:
            return self._on_rns(rns.negacyclic_multiply(
                rns.decompose_centered(a), rns.decompose_centered(b)
            ))
        prod = self._mult_ctx.multiply(a.centered(), b.centered())
        return self.ring(prod)

    def _lift_plaintext(self, plaintext: Polynomial, scale: int = 1) -> Polynomial:
        """``scale`` times the centered lift of a mod-t plaintext into
        ``R_q``; one numpy pass per tower of q when the scheme has them."""
        t = self.params.t
        if self._rns is not None:
            m = np.asarray(plaintext.coeffs, dtype=np.int64)
            return self._on_rns(self._rns.lift(m - t * (m > t // 2), scale))
        half = t // 2
        coeffs = [c - t if c > half else c for c in plaintext.coeffs]
        return self.ring(coeffs).scalar_mul(scale)

    def _on_rns(self, towers: np.ndarray) -> Polynomial:
        """Canonical residues on q's towers as a tower-backed polynomial."""
        return Polynomial.from_towers(self.ring, self._rns, towers)

    def _towered(self, poly: Polynomial) -> Polynomial:
        """``poly`` tower-backed on q's towers, when the scheme has them."""
        return poly if self._rns is None else poly.on_towers(self._rns)

    def _decompose_digits(
        self, poly: Polynomial, relin: KeySwitchKey
    ) -> list[Polynomial]:
        """Base-T digit decomposition of every coefficient of ``poly``.

        Raises on a negative (centered) coefficient, which would
        sign-extend under ``c & mask`` and corrupt the fold — the contract
        of :meth:`BatchedRnsEngine.digit_decompose` too.
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


def _default_multiplier(params: BfvParameters):
    """The exact multiplier for a parameter set: the batched-engine CRT
    :class:`~repro.polymath.fastntt.RnsExactMultiplier` (its basis led by
    q's towers where they are word-sized), else the pure-Python one. Both
    are exact over the integers; the choice never changes a bit."""
    from repro.polymath.fastntt import RnsExactMultiplier

    n, q = params.n, params.q
    try:
        return RnsExactMultiplier(n, params.q_basis or q)
    except ValueError:  # no word-sized auxiliary basis for this degree
        return _ExactMultiplier(n, q)


class _ExactMultiplier:
    """Exact negacyclic product of centered integer polynomials: one NTT
    over an auxiliary prime wide enough for the ``n * (q/2)**2`` bound
    (the pure-Python oracle)."""

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
