"""Batched RNS tower engine: the whole hot math path, vectorized.

Section II-D of the paper observes that SEAL keeps its RNS towers
word-sized precisely to unlock vectorized arithmetic. The pure-Python
:class:`~repro.polymath.ntt.NttContext` is exact for any modulus width
(CoFHEE's native 128 bits) but loops per butterfly; the previous numpy
fast path (:mod:`repro.polymath.fastntt`) vectorized one tower at a time.
This module finishes the trade: a ciphertext's *full tower stack* lives in
one ``(num_towers, n)`` int64 ndarray, and every operation — forward and
inverse negacyclic NTT, Hadamard and tensor products, additions, CRT
recombination — runs across all towers at once with a per-tower modulus
column.

Two butterfly kernels, selected per basis:

* **Shoup lazy** (all moduli below 2^30): every twiddle ``w`` carries a
  precomputed Shoup constant ``w' = floor(w * 2^32 / q)`` so the modular
  product ``w*x mod q`` costs one high-half estimate and one fused
  multiply-subtract — no division — and lands in ``[0, 2q)``. Values stay
  *lazily reduced* in ``[0, 4q)`` (forward) / ``[0, 2q)`` (inverse)
  between butterfly stages, with one full reduction at the end. This is
  the Harvey/SEAL lazy-butterfly formulation, vectorized.
* **Plain** (any modulus up to 2^31): per-stage ``% q`` with int64-safe
  products, the same kernel the single-tower fast path used.

Both are **bit-identical** to :class:`NttContext` — the twiddle tables are
built by the same per-tower contexts, and laziness only defers (never
changes) the mod-q result. The property suite proves it across random
(n, basis, tower-count) grids.

Engine selection is capability-based: :func:`get_engine` returns a cached
engine when every tower modulus is an NTT-friendly prime of at most
:data:`MAX_MODULUS_BITS` bits, and ``None`` otherwise — callers fall back
to the exact pure-Python path for wide moduli. Setting the environment
variable ``REPRO_ENGINE=off`` disables auto-selection globally (the
benchmark harness uses this to measure the pure-Python baseline).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.polymath.modmath import modinv
from repro.polymath.ntt import NttContext
from repro.polymath.primes import is_prime
from repro.polymath.rns import RnsBasis

#: Products a*b must fit int64: a, b < 2^31 keeps a*b < 2^62.
MAX_MODULUS_BITS = 31

#: Lazy (Shoup) kernels keep values in [0, 4q); 4q must fit the 2^32
#: input domain of the 32-bit Shoup estimate, so q stays below 2^30.
SHOUP_LAZY_MAX_BITS = 30

#: Shift width of the precomputed Shoup constants.
_SHOUP_SHIFT = 32
_SHOUP_SHIFT_U64 = np.uint64(_SHOUP_SHIFT)


def engine_enabled() -> bool:
    """Whether auto-selection of the batched engine is globally enabled.

    ``REPRO_ENGINE=off`` (or ``0`` / ``disabled``) forces every auto
    caller back onto the exact pure-Python path; explicit constructions
    of :class:`BatchedRnsEngine` are unaffected.
    """
    return os.environ.get("REPRO_ENGINE", "auto").lower() not in (
        "off", "0", "disabled",
    )


def supports(moduli: "RnsBasis | Sequence[int]", n: int) -> bool:
    """Can the batched engine run this basis at degree ``n``?

    Requires a power-of-two degree and, per tower, an NTT-friendly prime
    (``q === 1 mod 2n``) of at most :data:`MAX_MODULUS_BITS` bits. Wide
    moduli (e.g. SEAL's 54/55-bit CPU towers or CoFHEE's native 109-bit
    towers) fail the check and stay on the exact pure-Python path.
    """
    mods = moduli.moduli if isinstance(moduli, RnsBasis) else tuple(moduli)
    if n < 2 or n & (n - 1) or not mods:
        return False
    return all(
        q.bit_length() <= MAX_MODULUS_BITS
        and (q - 1) % (2 * n) == 0
        and is_prime(q)
        for q in mods
    )


def _shoup_mul_u64(
    x: np.ndarray, w: np.ndarray, w_shoup: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``w * x mod q`` into ``[0, 2q)`` via the Shoup estimate (uint64).

    Requires ``x < 2^32`` (the lazy domain guarantees ``x < 4q``) and
    ``w < q``; ``w_shoup = floor(w << 32 / q)``. The uint64 products wrap
    mod 2^64 but the true result fits, so the subtraction is exact.
    """
    t = (x * w_shoup) >> _SHOUP_SHIFT_U64
    return x * w - t * q


@lru_cache(maxsize=128)
def _build_engine(moduli: tuple[int, ...], n: int) -> "BatchedRnsEngine":
    return BatchedRnsEngine(RnsBasis(moduli), n)


def get_engine(basis: RnsBasis, n: int) -> "BatchedRnsEngine | None":
    """The shared cached engine for ``(basis, n)``, or ``None``.

    ``None`` means the caller must use the exact pure-Python path: the
    basis has a wide or non-NTT-friendly tower, or the engine was disabled
    via ``REPRO_ENGINE=off``. Engines are cached per (moduli, n) so every
    consumer — scheme multiplier, software baseline, chip-pool
    cross-check — shares one set of twiddle/Shoup tables.
    """
    if not engine_enabled() or not supports(basis, n):
        return None
    return _build_engine(basis.moduli, n)


def require_engine(basis: RnsBasis, n: int) -> "BatchedRnsEngine":
    """The shared cached engine for an *explicitly requested* basis.

    Unlike :func:`get_engine`, this ignores the ``REPRO_ENGINE`` kill
    switch (which only governs auto-selection) and raises instead of
    returning ``None`` when the basis cannot run on the engine.

    Raises:
        ValueError: if any tower is wide or non-NTT-friendly at ``n``.
    """
    if not supports(basis, n):
        raise ValueError(
            f"{basis!r} does not qualify for the batched engine at "
            f"n = {n} (wide or non-NTT-friendly towers)"
        )
    return _build_engine(basis.moduli, n)


class BatchedRnsEngine:
    """All towers of an RNS polynomial stack, transformed at once.

    The working representation is a ``(num_towers, n)`` int64 array whose
    row ``i`` holds the polynomial's residues mod ``moduli[i]``. All
    methods treat stacks as immutable inputs and return new arrays, fully
    reduced into ``[0, q_i)`` per row.

    Args:
        basis: pairwise-coprime NTT-friendly prime towers, each at most
            :data:`MAX_MODULUS_BITS` bits.
        n: polynomial degree (power of two).

    Raises:
        ValueError: if any tower cannot run the negacyclic NTT at ``n``
            or exceeds the int64-safe width.
    """

    def __init__(self, basis: RnsBasis, n: int):
        wide = [q for q in basis.moduli if q.bit_length() > MAX_MODULUS_BITS]
        if wide:
            raise ValueError(
                f"moduli of {[q.bit_length() for q in wide]} bits exceed the "
                f"int64-safe {MAX_MODULUS_BITS}; use NttContext for wide towers"
            )
        # Per-tower contexts build (and validate) the twiddle tables; the
        # engine sharing them with NttContext is what makes bit-identity
        # a construction property rather than a numerical accident.
        self._ctxs = tuple(NttContext(n, q) for q in basis.moduli)
        self._init_tables(basis, n)

    def _init_tables(self, basis: RnsBasis, n: int) -> None:
        self.basis = basis
        self.n = n
        self.num_towers = len(basis)
        self.modulus = basis.modulus
        self._q = np.asarray(basis.moduli, dtype=np.int64)[:, None]  # (L, 1)
        self._psi = np.asarray(
            [ctx._psi_brv for ctx in self._ctxs], dtype=np.int64
        )
        self._ipsi = np.asarray(
            [ctx._ipsi_brv for ctx in self._ctxs], dtype=np.int64
        )
        self._n_inv = np.asarray(
            [ctx.n_inv for ctx in self._ctxs], dtype=np.int64
        )[:, None]
        # Garner mixed-radix constants for CRT recombination: for tower
        # ``k``, ``prefix[i] = (q_0 * ... * q_{i-1}) mod q_k`` and ``inv``
        # is the inverse of the full prefix product mod q_k — the digit
        # computation then stays entirely in vectorized int64.
        self._garner: list[tuple[list[int], int]] = [([], 1)]
        for k in range(1, self.num_towers):
            qk = basis.moduli[k]
            prefix = []
            prod = 1
            for i in range(k):
                prefix.append(prod % qk)
                prod *= basis.moduli[i]
            self._garner.append((prefix, modinv(prod % qk, qk)))
        self.lazy = all(
            q.bit_length() <= SHOUP_LAZY_MAX_BITS for q in basis.moduli
        )
        if self.lazy:
            # Shoup constants: floor(w << 32 / q), one per twiddle. The
            # shifted products stay below 2^62, so int64 arithmetic is
            # exact; everything is stored unsigned so the lazy kernels run
            # natively in uint64 (values never go negative).
            self._psi_shoup = (
                (self._psi << np.int64(_SHOUP_SHIFT)) // self._q
            ).astype(np.uint64)
            self._ipsi_shoup = (
                (self._ipsi << np.int64(_SHOUP_SHIFT)) // self._q
            ).astype(np.uint64)
            self._n_inv_shoup = (
                (self._n_inv << np.int64(_SHOUP_SHIFT)) // self._q
            ).astype(np.uint64)
            self._psi_u64 = self._psi.astype(np.uint64)
            self._ipsi_u64 = self._ipsi.astype(np.uint64)
            self._n_inv_u64 = self._n_inv.astype(np.uint64)
            self._q_u64 = self._q.astype(np.uint64)

    # ------------------------------------------------------------------
    # Stack construction / deconstruction
    # ------------------------------------------------------------------

    def decompose(self, coeffs: Sequence[int]) -> np.ndarray:
        """Big-modulus coefficients -> ``(num_towers, n)`` residue stack.

        Accepts arbitrary (including negative/centered) Python ints; the
        big-int work is one object-array conversion plus one C-looped
        ``% q`` pass per tower.
        """
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        obj = np.asarray(coeffs, dtype=object)
        return np.asarray(
            [obj % q for q in self.basis.moduli], dtype=np.int64
        )

    def stack(self, towers: Sequence[Sequence[int]]) -> np.ndarray:
        """Per-tower residue vectors -> validated ``(num_towers, n)`` stack."""
        a = np.asarray(towers, dtype=np.int64)
        if a.shape != (self.num_towers, self.n):
            raise ValueError(
                f"expected a ({self.num_towers}, {self.n}) tower stack, "
                f"got {a.shape}"
            )
        return a % self._q

    def tower_rows(self, stack: np.ndarray) -> list[list[int]]:
        """Stack -> per-tower Python-int vectors (driver/wire form)."""
        return stack.tolist()

    def reconstruct(self, stack: np.ndarray) -> list[int]:
        """CRT-recombine a stack into big-modulus coefficients.

        Garner's mixed-radix algorithm, vectorized across coefficients:
        the digit extraction runs entirely in int64 (every intermediate is
        reduced mod one word-sized tower) and only the final Horner
        accumulation touches Python big ints — no per-coefficient wide
        modular reduction at all. The result is the unique representative
        in ``[0, q)``, bit-identical to
        :meth:`~repro.polymath.rns.RnsBasis.reconstruct_poly`.
        """
        stack = self._prepare(stack)
        moduli = self.basis.moduli
        digits = np.empty_like(stack)
        digits[0] = stack[0]
        for k in range(1, self.num_towers):
            qk = moduli[k]
            prefix, inv = self._garner[k]
            acc = digits[0] % qk
            for i in range(1, k):
                acc = (acc + digits[i] * prefix[i]) % qk
            digits[k] = (stack[k] - acc) * inv % qk
        out = digits[-1].astype(object)
        for k in range(self.num_towers - 2, -1, -1):
            out = out * moduli[k] + digits[k]
        return [int(v) for v in out]

    def centered_reconstruct(self, stack: np.ndarray) -> list[int]:
        """CRT-recombine into the symmetric interval ``(-q/2, q/2]``."""
        out = self.centered_values(stack)
        return [int(v) for v in out]

    def _garner_values(self, a: np.ndarray) -> np.ndarray:
        """Garner recombination of reduced ``(B, L, n)`` stacks.

        Returns a ``(B, n)`` object array of values in ``[0, P)``. The
        digit extraction stays in int64 (every intermediate is reduced
        mod one word-sized tower); only the final Horner accumulation
        touches Python big ints, as one C-looped object pass per tower.
        """
        moduli = self.basis.moduli
        digits = np.empty_like(a)
        digits[:, 0] = a[:, 0]
        for k in range(1, self.num_towers):
            qk = moduli[k]
            prefix, inv = self._garner[k]
            acc = digits[:, 0] % qk
            for i in range(1, k):
                acc = (acc + digits[:, i] * prefix[i]) % qk
            digits[:, k] = (a[:, k] - acc) * inv % qk
        # Combine adjacent digits in int64 first (``d_k + q_k * d_{k+1}``
        # stays below 2^62 for sub-31-bit towers), so the object-dtype
        # Horner pass runs over half as many limbs — same exact value,
        # half the big-int vector operations.
        limbs: list[np.ndarray] = []
        limb_moduli: list[int] = []
        k = 0
        while k + 1 < self.num_towers:
            limbs.append(digits[:, k] + moduli[k] * digits[:, k + 1])
            limb_moduli.append(moduli[k] * moduli[k + 1])
            k += 2
        if k < self.num_towers:
            limbs.append(digits[:, k])
            limb_moduli.append(moduli[k])
        out = limbs[-1].astype(object)
        for i in range(len(limbs) - 2, -1, -1):
            out = out * limb_moduli[i] + limbs[i]
        return out

    def centered_values(self, stack: np.ndarray) -> np.ndarray:
        """CRT values in ``(-P/2, P/2]`` as an object array.

        Accepts one ``(L, n)`` stack (returns shape ``(n,)``) or a batch
        ``(k, L, n)`` (returns ``(k, n)``). Bit-identical per coefficient
        to :meth:`centered_reconstruct`, without the Python list pass —
        callers that keep computing on the exact values (the scheme's
        ``t/q`` rounding, the relinearization fold) stay vectorized.
        """
        a, squeeze = self._prepare_nd(stack)
        out = self._garner_values(a)
        modulus = self.modulus
        out = np.where(out > modulus >> 1, out - modulus, out)
        return out[0] if squeeze else out

    def round_scale(self, stack: np.ndarray, t: int, q: int) -> list:
        """The Eq. 4 scaling: ``round(t * c / q) mod q`` per coefficient.

        ``c`` is the centered CRT value of each coefficient of ``stack``
        (the exact integer tensor product, carried in this engine's
        auxiliary basis). Rounding is half-away-from-zero, bit-identical
        to the scheme's scalar ``_round_div(t * c, q) % q``, via the
        floor-division identity ``(2*t*c + q - [c < 0]) // (2*q)`` — one
        vectorized object pass instead of a per-coefficient Python loop.

        Accepts one ``(L, n)`` stack (returns ``list[int]``) or a batch
        ``(k, L, n)`` (returns ``k`` coefficient lists — e.g. the three
        tensor components scale in one call).
        """
        if t < 1 or q < 1:
            raise ValueError("round_scale needs positive t and q")
        a, squeeze = self._prepare_nd(stack)
        c = self.centered_values(a)
        # adj must stay an object array: q may exceed int64.
        adj = np.full(c.shape, q, dtype=object)
        adj[c < 0] = q - 1
        scaled = (2 * t * c + adj) // (2 * q) % q
        if squeeze:
            return [int(v) for v in scaled[0]]
        return [[int(v) for v in row] for row in scaled]

    def digit_decompose(
        self, coeffs: Sequence[int], digit_bits: int, num_digits: int
    ) -> np.ndarray:
        """Base-T digit decomposition onto the full tower stack.

        Splits each *canonical* (``[0, q)``) coefficient into
        ``num_digits`` base-``2**digit_bits`` digits and broadcasts every
        digit polynomial across the engine's towers: the result is a
        ``(num_digits, num_towers, n)`` int64 batch, ready for one
        batched :meth:`forward` pass (the relinearization fold).

        Raises:
            ValueError: if any coefficient is negative — a centered
                coefficient would sign-extend under the mask and corrupt
                the fold, exactly like the scalar
                ``Bfv._decompose_digits`` path.
        """
        if digit_bits < 1 or num_digits < 1:
            raise ValueError("digit_bits and num_digits must be >= 1")
        obj = np.asarray(coeffs, dtype=object)
        if obj.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients, got {obj.shape}")
        if bool((obj < 0).any()):
            raise ValueError(
                "digit decomposition requires canonical coefficients in "
                "[0, q); got a negative (centered?) coefficient"
            )
        mask = (1 << digit_bits) - 1
        rows = np.empty((num_digits, self.n), dtype=object)
        for i in range(num_digits):
            rows[i] = obj & mask
            obj = obj >> digit_bits
        if mask < min(self.basis.moduli):
            # Digits already lie below every tower modulus: one int64
            # conversion, broadcast across towers, zero reduction passes.
            flat = rows.astype(np.int64)
            return np.broadcast_to(
                flat[:, None, :], (num_digits, self.num_towers, self.n)
            ).copy()
        if digit_bits < 63:
            # Digits fit int64: one vectorized reduction per tower row.
            return rows.astype(np.int64)[:, None, :] % self._q
        # Wider digits reduce as Python ints, one C-looped ``%`` pass per
        # tower, which keeps the stack int64-safe at any digit width.
        return np.asarray(
            [[row % q for q in self.basis.moduli] for row in rows],
            dtype=np.int64,
        ).reshape(num_digits, self.num_towers, self.n)

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT (Cooley-Tukey DIT), all towers at once.

        Natural order in, bit-reversed order out per tower — identical
        values to ``NttContext.forward`` row by row. Accepts one stack
        ``(num_towers, n)`` or a batch ``(k, num_towers, n)`` — e.g. the
        Eq. 4 tensor transforms all four operand polynomials in one pass.
        """
        a, squeeze = self._prepare_nd(stack)
        B, L, n = a.shape
        m, t = 1, n
        if self.lazy:
            a = a.astype(np.uint64)
            q2 = (2 * self._q_u64).reshape(1, L, 1, 1)
            qq = self._q_u64.reshape(1, L, 1, 1)
            while m < n:
                t >>= 1
                a = a.reshape(B, L, m, 2 * t)
                u = a[..., :t]
                v = a[..., t:]
                s = self._psi_u64[None, :, m : 2 * m, None]
                ss = self._psi_shoup[None, :, m : 2 * m, None]
                # Conditional subtract in two passes: u - 2q wraps above
                # 2^63 in uint64 exactly when u < 2q, so min() selects it.
                u = np.minimum(u, u - q2)  # u < 2q
                vs = _shoup_mul_u64(v, s, ss, qq)  # < 2q
                out = np.empty_like(a)
                np.add(u, vs, out=out[..., :t])  # < 4q
                np.subtract(u + q2, vs, out=out[..., t:])  # < 4q
                a = out
                m <<= 1
            a = (a.reshape(B, L, n) % self._q_u64).astype(np.int64)
            return a[0] if squeeze else a
        q4 = self._q[None, :, :, None]
        while m < n:
            t >>= 1
            a = a.reshape(B, L, m, 2 * t)
            u = a[..., :t]
            v = a[..., t:]
            s = self._psi[None, :, m : 2 * m, None]
            vs = v * s % q4
            out = np.empty_like(a)
            out[..., :t] = (u + vs) % q4
            out[..., t:] = (u - vs) % q4
            a = out
            m <<= 1
        a = a.reshape(B, L, n)
        return a[0] if squeeze else a

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT (Gentleman-Sande DIF) with n^-1 scaling.

        Bit-reversed order in, natural order out — identical values to
        ``NttContext.inverse`` row by row. Accepts one stack or a batch,
        like :meth:`forward`.
        """
        a, squeeze = self._prepare_nd(stack)
        B, L, n = a.shape
        t, m = 1, n
        if self.lazy:
            a = a.astype(np.uint64)
            q2 = (2 * self._q_u64).reshape(1, L, 1, 1)
            qq = self._q_u64.reshape(1, L, 1, 1)
            while m > 1:
                h = m >> 1
                a = a.reshape(B, L, h, 2 * t)
                u = a[..., :t]
                v = a[..., t:]
                s = self._ipsi_u64[None, :, h : 2 * h, None]
                ss = self._ipsi_shoup[None, :, h : 2 * h, None]
                summed = u + v  # < 4q
                summed = np.minimum(summed, summed - q2)  # < 2q
                diff = u + (q2 - v)  # u - v + 2q, < 4q
                out = np.empty_like(a)
                out[..., :t] = summed
                np.subtract(
                    diff * s, ((diff * ss) >> _SHOUP_SHIFT_U64) * qq,
                    out=out[..., t:],
                )  # Shoup product, < 2q
                a = out
                t <<= 1
                m = h
            a = a.reshape(B, L, n)
            ninv = self._n_inv_u64[None, :, :]
            r = _shoup_mul_u64(a, ninv, self._n_inv_shoup[None, :, :],
                               self._q_u64[None, :, :])  # < 2q
            qr = self._q_u64[None, :, :]
            r = np.where(r >= qr, r - qr, r).astype(np.int64)
            return r[0] if squeeze else r
        q4 = self._q[None, :, :, None]
        while m > 1:
            h = m >> 1
            a = a.reshape(B, L, h, 2 * t)
            u = a[..., :t]
            v = a[..., t:]
            s = self._ipsi[None, :, h : 2 * h, None]
            out = np.empty_like(a)
            out[..., :t] = (u + v) % q4
            out[..., t:] = (u - v) * s % q4
            a = out
            t <<= 1
            m = h
        a = a.reshape(B, L, n) * self._n_inv[None, :, :] % self._q[None, :, :]
        return a[0] if squeeze else a

    # ------------------------------------------------------------------
    # Pointwise arithmetic (NTT or coefficient domain alike)
    # ------------------------------------------------------------------

    def pointwise_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hadamard product per tower (int64-safe: operands below 2^31)."""
        return a * b % self._q

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-tower modular addition."""
        return (a + b) % self._q

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-tower modular subtraction."""
        return (a - b) % self._q

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-tower polynomial product modulo ``x^n + 1``."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(self.pointwise_mul(fa, fb))

    def tensor(
        self,
        a0: np.ndarray,
        a1: np.ndarray,
        b0: np.ndarray,
        b1: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Eq. 4 mod-q tensor across every tower at once.

        Four batched forward NTTs, four Hadamard products, one addition,
        three batched inverse NTTs — exactly the per-tower op mix of
        ``SoftwareBfv.tower_multiply`` and the chip's Algorithm 3, with
        all towers riding one vectorized pass.
        """
        fa0, fa1, fb0, fb1 = self.forward(np.stack((a0, a1, b0, b1)))
        q = self._q
        y0 = fa0 * fb0 % q
        y2 = fa1 * fb1 % q
        y1 = (fa0 * fb1 % q + fa1 * fb0 % q) % q
        out = self.inverse(np.stack((y0, y1, y2)))
        return out[0], out[1], out[2]

    def tensor_square(
        self, a0: np.ndarray, a1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Eq. 4 tensor of a ciphertext with itself.

        Two batched forward NTTs instead of four — the cross term is
        ``2 * a0 * a1`` — matching the scheme's ``square`` op mix.
        """
        f0, f1 = self.forward(np.stack((a0, a1)))
        q = self._q
        y0 = f0 * f0 % q
        y2 = f1 * f1 % q
        y1 = 2 * (f0 * f1 % q) % q
        out = self.inverse(np.stack((y0, y1, y2)))
        return out[0], out[1], out[2]

    def nttdomain_fold(self, fwd: np.ndarray, key_fwd: np.ndarray) -> np.ndarray:
        """Key-switch fold in the NTT domain: ``sum_d fwd[:, d] ∘ key_fwd[:, d]``.

        ``fwd`` is a ``(J, D, L, n)`` batch of forward-transformed digit
        polynomials (J jobs, D digits); ``key_fwd`` the ``(2, D, L, n)``
        NTT-form key rows of :meth:`keyswitch_rows`. Returns the
        ``(2, J, L, n)`` mod-q accumulations (``b`` fold, then ``a``
        fold), still in NTT (bit-reversed) order — callers run one
        batched :meth:`inverse` over every job/component at once. Each
        product is reduced before accumulating so the int64 domain is
        never exceeded.
        """
        q = self._q
        acc = fwd[None, :, 0] * key_fwd[:, None, 0] % q
        for d in range(1, key_fwd.shape[1]):
            acc = (acc + fwd[None, :, d] * key_fwd[:, None, d]) % q
        return acc

    def keyswitch_rows(
        self, rows: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> np.ndarray:
        """A key-switch key's rows in NTT form, ready for :meth:`keyswitch`.

        ``rows`` are the key's ``D`` coefficient-vector pairs
        ``(b_i, a_i)``, *centered* (the fold bound the callers check
        assumes ``|row coefficient| <= q/2``). Returns the
        ``(2, D, L, n)`` forward transforms — ``[0]`` the ``b`` rows,
        ``[1]`` the ``a`` rows — as ``uint32``: residues of sub-2^31
        towers fit, and a key is held for its session's lifetime, so
        half-width storage is what every uploaded key costs in memory.
        """
        stack = np.stack(
            [self.decompose(b) for b, _ in rows]
            + [self.decompose(a) for _, a in rows]
        )
        return self.forward(stack).astype(np.uint32).reshape(
            2, len(rows), self.num_towers, self.n
        )

    def keyswitch(
        self,
        polys: Sequence[Sequence[int]],
        digit_bits: int,
        key_rows: np.ndarray,
    ) -> np.ndarray:
        """The key-switch kernel: fold ``J`` polynomials through one key.

        Every polynomial in ``polys`` (canonical coefficients) is split
        into base-``2**digit_bits`` digits; all ``J * D`` digit
        polynomials ride one forward pass, fold against ``key_rows``
        (from :meth:`keyswitch_rows`) in the NTT domain, and one inverse
        pass covers both components of every job. Returns a
        ``(2, J, n)`` object array of centered CRT values:
        ``[0, j] = sum_d digit_d(polys[j]) * b_d`` and ``[1, j]`` the
        same against the ``a`` rows — the exact integer folds whenever
        their magnitude stays below ``modulus / 2`` (the caller's bound
        check). Relinearization and Galois rotation differ only in what
        they add to the two folds.
        """
        key_rows = np.asarray(key_rows)
        if key_rows.ndim != 4 or (
            key_rows.shape[0], *key_rows.shape[2:]
        ) != (2, self.num_towers, self.n):
            raise ValueError(
                f"expected (2, D, {self.num_towers}, {self.n}) key rows, "
                f"got {key_rows.shape}"
            )
        J, D = len(polys), key_rows.shape[1]
        stacks = np.concatenate(
            [self.digit_decompose(p, digit_bits, D) for p in polys]
        )
        fwd = self.forward(stacks).reshape(J, D, self.num_towers, self.n)
        acc = self.nttdomain_fold(fwd, key_rows)
        vals = self.centered_values(
            self.inverse(acc.reshape(2 * J, self.num_towers, self.n))
        )
        return vals.reshape(2, J, self.n)

    # ------------------------------------------------------------------
    # Sub-views
    # ------------------------------------------------------------------

    def select(self, indices: Sequence[int]) -> "BatchedRnsEngine":
        """An engine over a subset of towers, sharing all precomputation.

        The returned engine's twiddle/Shoup tables are row slices of this
        one's — no prime search, no twiddle rebuild. This is what makes
        per-tower use (the chip pool's mod-q cross-check) as cheap as the
        batched case.
        """
        sub = object.__new__(BatchedRnsEngine)
        sub._ctxs = tuple(self._ctxs[i] for i in indices)
        sub._init_tables(self.basis.sub_basis(indices), self.n)
        return sub

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _prepare(self, stack: np.ndarray) -> np.ndarray:
        a = np.asarray(stack, dtype=np.int64)
        if a.shape != (self.num_towers, self.n):
            raise ValueError(
                f"expected a ({self.num_towers}, {self.n}) tower stack, "
                f"got {a.shape}"
            )
        return a % self._q

    def _prepare_nd(self, stack: np.ndarray) -> tuple[np.ndarray, bool]:
        """Normalize to a reduced ``(batch, num_towers, n)`` array."""
        a = np.asarray(stack, dtype=np.int64)
        squeeze = a.ndim == 2
        if squeeze:
            a = a[None, :, :]
        if a.ndim != 3 or a.shape[1:] != (self.num_towers, self.n):
            raise ValueError(
                f"expected a (..., {self.num_towers}, {self.n}) tower "
                f"stack, got {np.shape(stack)}"
            )
        return a % self._q, squeeze

    def __repr__(self) -> str:
        bits = [q.bit_length() for q in self.basis.moduli]
        kernel = "shoup-lazy" if self.lazy else "plain"
        return (
            f"BatchedRnsEngine(n={self.n}, towers={self.num_towers}, "
            f"bits={bits}, kernel={kernel})"
        )
