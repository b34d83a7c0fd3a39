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

    When ``q`` is given as its own RNS basis of engine-sized towers, the
    auxiliary basis (:attr:`basis`, run by :attr:`tensor_engine`) *leads*
    with them, followed by the next :data:`MAX_MODULUS_BITS`-bit primes
    not in it. The leading rows of every tensor are then what a chip
    replaying it per tower loads and reads back
    (:meth:`~repro.bfv.scheme.Bfv.multiply`'s ``on_rows``), and the
    scheme scales on them
    (:meth:`~repro.polymath.engine.BatchedRnsEngine.scale_round`).

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

        # ``lead``, then the next widest engine primes not in it, until the
        # product covers the bound. The basis is NTT-friendly and
        # word-sized by construction, so the shared engine cache always
        # qualifies: every Bfv instance over (n, q) reuses one engine.
        primes, total = list(lead), q if lead else 1
        candidate = ntt_friendly_prime(n, MAX_MODULUS_BITS)
        while total.bit_length() <= bound_bits + 2:
            if candidate not in lead:
                primes.append(candidate)
                total *= candidate
            candidate = next_smaller_ntt_prime(candidate, n)
        self.basis = RnsBasis(primes)
        #: The engine over :attr:`basis`: it runs the Eq. 4 tensor,
        #: :meth:`multiply`, and the key-switch folds of a q whose towers
        #: are not word-sized.
        self.tensor_engine = require_engine(self.basis, n)

    def multiply(self, a_centered, b_centered) -> list[int]:
        """Return the exact integer negacyclic product of centered inputs."""
        eng = self.tensor_engine
        fa = eng.forward(eng.decompose(a_centered))
        fb = eng.forward(eng.decompose(b_centered))
        return eng.centered_reconstruct(eng.inverse(eng.pointwise_mul(fa, fb)))
