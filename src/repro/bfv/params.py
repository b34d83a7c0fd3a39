"""BFV parameter sets, including the two configurations the paper evaluates.

Section VI-B fixes ``(n, log q) = (2^12, 109)`` and ``(2^13, 218)`` — both
providing 128-bit classical security per the Homomorphic Encryption
Security Standard the paper cites. The same parameter object also records
how each platform splits ``q`` into RNS towers: SEAL on a 64-bit CPU uses
~55-bit towers (109 -> 54+55, 218 -> 54+54+55+55) while CoFHEE's native
128-bit datapath uses 109-bit towers (109 -> one tower, 218 -> two).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.polymath.primes import ntt_friendly_prime
from repro.polymath.rns import RnsBasis, plan_towers

#: Largest tower width a 64-bit software implementation uses (SEAL keeps
#: moduli below 62 bits; the paper quotes 54/55-bit towers).
CPU_WORD_BITS = 55

#: Largest tower width CoFHEE handles natively (128-bit datapath; the paper
#: uses 109-bit towers so two of them cover log q = 218).
COFHEE_WORD_BITS = 109


@dataclass(frozen=True)
class BfvParameters:
    """A concrete BFV parameter set.

    Attributes:
        n: polynomial degree (power of two).
        q: ciphertext coefficient modulus (product of the CPU towers, so it
            is exactly representable on both platforms).
        t: plaintext modulus.
        sigma: standard deviation of the error distribution.
        cpu_basis: RNS basis a 64-bit CPU (SEAL) would use for ``q``.
        cofhee_basis: RNS basis CoFHEE's 128-bit datapath would use. The
            composite modulus differs from ``q`` only in tower granularity
            when built via :meth:`from_paper`; for the evaluation only the
            *tower counts* matter (each tower does the same Eq. 4 work).
    """

    n: int
    q: int
    t: int
    sigma: float = 3.2
    cpu_basis: RnsBasis = field(repr=False, default=None)  # type: ignore[assignment]
    cofhee_basis: RnsBasis = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two, got {self.n}")
        if self.t < 2:
            raise ValueError(f"plaintext modulus must be >= 2, got {self.t}")
        if self.q <= self.t:
            raise ValueError("ciphertext modulus must exceed plaintext modulus")

    @property
    def delta(self) -> int:
        """The encryption scaling factor Delta = floor(q / t)."""
        return self.q // self.t

    @property
    def log_q(self) -> int:
        return self.q.bit_length()

    @property
    def cpu_tower_count(self) -> int:
        """Towers a 64-bit CPU needs (drives SEAL's per-op work in Fig. 6)."""
        if self.cpu_basis is not None:
            return len(self.cpu_basis)
        return -(-self.log_q // CPU_WORD_BITS)

    @property
    def q_basis(self) -> RnsBasis | None:
        """q's own RNS towers: the CoFHEE basis when its product is
        exactly ``q``, else ``None``."""
        basis = self.cofhee_basis
        return basis if basis is not None and basis.modulus == self.q else None

    @property
    def cofhee_tower_count(self) -> int:
        """Towers CoFHEE needs (1 for log q = 109, 2 for 218)."""
        if self.cofhee_basis is not None:
            return len(self.cofhee_basis)
        return -(-self.log_q // COFHEE_WORD_BITS)

    @classmethod
    def from_paper(
        cls, n: int, log_q: int, t: int | None = None, sigma: float = 3.2
    ) -> "BfvParameters":
        """Build one of the paper's parameter sets.

        ``q`` is assembled from the CPU's RNS towers (like SEAL builds its
        coeff_modulus from the prime list), so the software baseline is
        bit-exact; the CoFHEE basis uses ``COFHEE_WORD_BITS``-wide towers of
        the same total width.

        Args:
            n: polynomial degree, e.g. ``2**12`` or ``2**13``.
            log_q: total coefficient-modulus bits, e.g. 109 or 218.
            t: plaintext modulus. Defaults to the smallest batching-friendly
                prime (``t === 1 mod 2n``) of at least 16 bits.
        """
        cpu_moduli = plan_towers(log_q, CPU_WORD_BITS, n)
        cofhee_moduli = plan_towers(log_q, COFHEE_WORD_BITS, n)
        q = 1
        for m in cpu_moduli:
            q *= m
        if t is None:
            t = ntt_friendly_prime(n, max(17, n.bit_length() + 2))
        return cls(
            n=n,
            q=q,
            t=t,
            sigma=sigma,
            cpu_basis=RnsBasis(cpu_moduli),
            cofhee_basis=RnsBasis(cofhee_moduli),
        )

    @classmethod
    def toy(cls, n: int = 16, log_q: int = 60, t: int | None = None) -> "BfvParameters":
        """Small insecure parameters for unit tests and examples: one
        ``log_q``-bit prime ``q``, with CoFHEE's towers planned as
        :meth:`from_paper` plans them (``q`` itself up to
        ``COFHEE_WORD_BITS`` bits)."""
        q = ntt_friendly_prime(n, log_q)
        if t is None:
            t = ntt_friendly_prime(n, 12)
        return cls(n=n, q=q, t=t, cpu_basis=RnsBasis([q]), cofhee_basis=RnsBasis(
            plan_towers(log_q, COFHEE_WORD_BITS, n)
        ))

    @classmethod
    def toy_rns(
        cls, n: int = 16, towers: int = 3, tower_bits: int = 20,
        t: int | None = None,
    ) -> "BfvParameters":
        """Small insecure *multi-tower* parameters for tower-sharding tests.

        ``q`` is the product of ``towers`` distinct NTT-friendly primes of
        ``tower_bits`` bits each, and **both** platform bases use exactly
        those towers — so every tower is chip-native (``q_i === 1 mod 2n``)
        and a pool can shard one EvalMult across workers.
        """
        if towers < 1:
            raise ValueError(f"need at least one tower, got {towers}")
        moduli = plan_towers(towers * tower_bits, tower_bits, n)
        q = 1
        for m in moduli:
            q *= m
        if t is None:
            # Smallest batching-friendly width that actually has a prime
            # (some widths have no q = 2kn + 1 prime at all, e.g. 15 bits
            # at n = 2^12).
            bits = max(12, n.bit_length() + 2)
            while t is None:
                try:
                    t = ntt_friendly_prime(n, bits)
                except ValueError:
                    bits += 1
        basis = RnsBasis(moduli)
        return cls(n=n, q=q, t=t, cpu_basis=basis, cofhee_basis=basis)

    def describe(self) -> str:
        return (
            f"BFV(n=2^{self.n.bit_length() - 1}, log q={self.log_q}, t={self.t}, "
            f"CPU towers={self.cpu_tower_count}, CoFHEE towers={self.cofhee_tower_count})"
        )


class _LazyPresets:
    """Dict-like lazy preset table (prime search only on first access)."""

    def __init__(self):
        self._cache: dict[str, BfvParameters] = {}

    def __getitem__(self, key: str) -> BfvParameters:
        if key not in self._cache:
            if key == "paper_small":
                self._cache[key] = BfvParameters.from_paper(n=2**12, log_q=109)
            elif key == "paper_large":
                self._cache[key] = BfvParameters.from_paper(n=2**13, log_q=218)
            else:
                raise KeyError(key)
        return self._cache[key]

    def keys(self):
        return ("paper_small", "paper_large")


#: The two evaluation parameter sets of Section VI-B, built on demand:
#: ``paper_small`` = (2^12, 109), ``paper_large`` = (2^13, 218).
SEAL_PRESETS = _LazyPresets()
