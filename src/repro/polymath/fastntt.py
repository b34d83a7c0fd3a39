"""The exact integer negacyclic product over word-sized CRT towers.

:class:`RnsExactMultiplier` runs the Eq. 4 tensor's auxiliary basis on
the batched tower engine (:mod:`repro.polymath.engine`).
"""

from __future__ import annotations

from repro.polymath.engine import MAX_MODULUS_BITS, require_engine, supports
from repro.polymath.primes import next_smaller_ntt_prime, ntt_friendly_prime
from repro.polymath.rns import RnsBasis

__all__ = ["MAX_MODULUS_BITS", "RnsExactMultiplier"]


class RnsExactMultiplier:
    """Exact integer negacyclic product via CRT over batched numpy NTTs.

    Drop-in replacement for the scheme's pure-Python auxiliary-prime
    multiplier (``repro.bfv.scheme._ExactMultiplier``): the Eq. 4 tensor
    needs the *integer* product of centered polynomials, whose coefficients
    are bounded by ``n * (q/2)**2`` — far beyond int64 for the paper's
    moduli. Instead of one wide auxiliary prime, the bound is covered by a
    basis of distinct word-sized NTT-friendly primes, the full tower stack
    runs through one :class:`~repro.polymath.engine.BatchedRnsEngine`
    pass, and the exact result is CRT-reconstructed per coefficient. This
    is the trade SEAL makes (word-sized towers unlock vectorized
    arithmetic) applied to the whole evaluation path.

    When ``q`` is given as its own RNS basis and every tower of it can
    run on the engine (NTT-friendly primes of at most
    :data:`MAX_MODULUS_BITS` bits), the Eq. 4 tensor's auxiliary basis
    (:attr:`basis`, run by :attr:`tensor_engine`) *leads* with those
    towers, followed by the next :data:`MAX_MODULUS_BITS`-bit primes not
    already in it.
    The leading rows of every tensor are then the operands and the
    mod-``q_i`` products of q's own towers — what a chip replaying the
    tensor per tower loads and must read back
    (:meth:`~repro.bfv.scheme.Bfv.multiply`'s ``on_rows``). Which coprime
    primes carry the exact integer product does not change it.

    Args:
        n: polynomial degree (power of two).
        q: the scheme's ciphertext modulus (any width), or q's own
            :class:`~repro.polymath.rns.RnsBasis`.
    """

    def __init__(self, n: int, q: "int | RnsBasis"):
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
            """``lead``, then the next widest engine primes not in it,
            until the product covers the bound."""
            primes, total = list(lead), q if lead else 1
            candidate = ntt_friendly_prime(n, MAX_MODULUS_BITS)
            while total.bit_length() <= bound_bits + 2:
                if candidate not in lead:
                    primes.append(candidate)
                    total *= candidate
                candidate = next_smaller_ntt_prime(candidate, n)
            return RnsBasis(primes)

        # Both bases are NTT-friendly and word-sized by construction, so the
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
