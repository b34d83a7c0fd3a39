"""Vectorized (numpy) negacyclic NTT for word-sized moduli.

The pure-Python :class:`~repro.polymath.ntt.NttContext` is exact for any
modulus width (CoFHEE's native 128 bits) but loops per butterfly. For
moduli below 31 bits — where every product fits ``int64`` — this module
provides numpy-vectorized drop-ins with identical semantics. It mirrors
how SEAL keeps its towers word-sized precisely to unlock vectorized
arithmetic: the same engineering trade the paper's Section II-D describes.

Both classes here are thin fronts over the batched tower engine
(:mod:`repro.polymath.engine`), which holds the shared precomputation —
twiddle tables, Shoup constants, CRT pieces — and runs every tower of a
stack in one vectorized pass. :class:`FastNttContext` is the single-tower
view (kept for API compatibility and per-tower call sites);
:class:`RnsExactMultiplier` batches its whole auxiliary CRT basis.
"""

from __future__ import annotations

import numpy as np

from repro.polymath.engine import MAX_MODULUS_BITS, require_engine, supports
from repro.polymath.primes import next_smaller_ntt_prime, ntt_friendly_prime
from repro.polymath.rns import RnsBasis

__all__ = ["MAX_MODULUS_BITS", "FastNttContext", "RnsExactMultiplier"]


class FastNttContext:
    """Numpy-vectorized negacyclic NTT, bit-identical to ``NttContext``.

    A single-tower view of :class:`~repro.polymath.engine.BatchedRnsEngine`
    (degenerate ``(1, n)`` stacks) — the engine owns the twiddle/Shoup
    precomputation.

    Args:
        n: polynomial degree (power of two).
        q: NTT-friendly prime below 2^31.
    """

    def __init__(self, n: int, q: int):
        if q.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(
                f"modulus of {q.bit_length()} bits exceeds the int64-safe "
                f"{MAX_MODULUS_BITS}; use NttContext for wide moduli"
            )
        self.n = n
        self.q = q
        # Shared per-(basis, n) cache: every FastNttContext over the same
        # modulus reuses one set of twiddle/Shoup tables.
        self._engine = require_engine(RnsBasis([q]), n)

    @property
    def psi(self) -> int:
        return self._engine._ctxs[0].psi

    def forward(self, coeffs) -> np.ndarray:
        """Cooley-Tukey DIT, natural -> bit-reversed order (vectorized)."""
        return self._engine.forward(self._as_stack(coeffs))[0]

    def inverse(self, values) -> np.ndarray:
        """Gentleman-Sande DIF + n^-1 scaling (vectorized)."""
        return self._engine.inverse(self._as_stack(values))[0]

    def negacyclic_multiply(self, a, b) -> list[int]:
        """Polynomial product modulo ``x^n + 1`` via the fast transforms."""
        prod = self._engine.negacyclic_multiply(
            self._as_stack(a), self._as_stack(b)
        )
        return prod[0].tolist()

    def _as_stack(self, coeffs) -> np.ndarray:
        a = np.asarray(coeffs, dtype=np.int64) % self.q
        if a.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients, got {a.shape}")
        return a[None, :]


class RnsExactMultiplier:
    """Exact integer negacyclic product via CRT over batched numpy NTTs.

    Drop-in replacement for the scheme's pure-Python auxiliary-prime
    multiplier (``repro.bfv.scheme._ExactMultiplier``): the Eq. 4 tensor
    needs the *integer* product of centered polynomials, whose coefficients
    are bounded by ``n * (q/2)**2`` — far beyond int64 for the paper's
    moduli. Instead of one wide auxiliary prime, the bound is covered by a
    basis of distinct sub-31-bit NTT-friendly primes, the full tower stack
    runs through one :class:`~repro.polymath.engine.BatchedRnsEngine`
    pass, and the exact result is CRT-reconstructed per coefficient. This
    is the trade SEAL makes (word-sized towers unlock vectorized
    arithmetic) applied to the whole evaluation path.

    When ``q`` is given as its own RNS basis and every tower of it can
    run on the engine (NTT-friendly primes of at most
    :data:`MAX_MODULUS_BITS` bits), the Eq. 4 tensor's auxiliary basis
    (:attr:`basis`, run by :attr:`tensor_engine`) *leads* with those
    towers, followed by the next ``prime_bits`` primes not already in it.
    The leading rows of every tensor are then the operands and the
    mod-``q_i`` products of q's own towers — what a chip replaying the
    tensor per tower loads and must read back
    (:meth:`~repro.bfv.scheme.Bfv.multiply`'s ``on_rows``). Which coprime
    primes carry the exact integer product does not change it.

    Args:
        n: polynomial degree (power of two).
        q: the scheme's ciphertext modulus (any width), or q's own
            :class:`~repro.polymath.rns.RnsBasis`.
        prime_bits: target width of each auxiliary tower prime.
    """

    def __init__(self, n: int, q: "int | RnsBasis", prime_bits: int = 30):
        if prime_bits > MAX_MODULUS_BITS:
            raise ValueError(
                f"tower primes must stay below {MAX_MODULUS_BITS} bits "
                f"for int64-safe numpy products, got {prime_bits}"
            )
        self.n = n
        lead: tuple[int, ...] = ()
        if isinstance(q, RnsBasis):
            if supports(q, n):
                lead = q.moduli
            q = q.modulus
        #: How many leading towers of :attr:`basis` are q's own (0: none).
        self.q_towers = len(lead)
        # |product coefficient| <= n * (q/2)^2; the CRT modulus must exceed
        # twice that bound to recover signed values from centered residues.
        bound_bits = 2 * (q.bit_length() - 1) + n.bit_length() + 2

        def cover(lead: tuple[int, ...]) -> RnsBasis:
            """``lead``, then the next ``prime_bits`` primes not in it,
            until the product covers the bound."""
            primes, total = list(lead), q if lead else 1
            candidate = ntt_friendly_prime(n, prime_bits)
            while total.bit_length() <= bound_bits + 2:
                if candidate not in lead:
                    primes.append(candidate)
                    total *= candidate
                candidate = next_smaller_ntt_prime(candidate, n)
            return RnsBasis(primes)

        # Both bases are NTT-friendly sub-31-bit by construction, so the
        # shared engine cache always qualifies — every Bfv instance over
        # the same (n, q) reuses one precomputation. The lead-free engine
        # runs ``multiply`` and the key-switch folds, which take its
        # shortest sufficient prefix: how wide q's towers are never moves
        # a fold on or off the engine.
        self._engine = require_engine(cover(()), n)
        self.basis = cover(lead) if lead else self._engine.basis
        #: The engine over :attr:`basis` that runs the Eq. 4 tensor.
        self.tensor_engine = require_engine(self.basis, n)

    def multiply(self, a_centered, b_centered) -> list[int]:
        """Return the exact integer negacyclic product of centered inputs."""
        eng = self._engine
        fa = eng.forward(eng.decompose(a_centered))
        fb = eng.forward(eng.decompose(b_centered))
        return eng.centered_reconstruct(eng.inverse(eng.pointwise_mul(fa, fb)))
