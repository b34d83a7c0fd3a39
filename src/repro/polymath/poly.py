"""Polynomial rings ``Z_q[x]/(x^n + 1)`` — the BFV plaintext/ciphertext spaces.

A :class:`PolynomialRing` fixes ``(n, q)`` and caches the NTT context; a
:class:`Polynomial` is an immutable coefficient vector in that ring.
Arithmetic matches the paper's Section II-B/II-C formulation: addition and
subtraction are coefficient-wise (linear time), multiplication goes through
the negacyclic NTT (Algorithm 2), with a schoolbook path retained as the
quadratic-complexity baseline the paper contrasts against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.polymath.modmath import modinv
from repro.polymath.ntt import NttContext, reference_negacyclic_multiply


class PolynomialRing:
    """The ring ``Z_q[x]/(x^n + 1)`` with a cached NTT context.

    Args:
        n: polynomial degree (power of two).
        q: coefficient modulus. Must be an NTT-friendly prime
            (``q === 1 mod 2n``) unless ``allow_non_ntt`` is set, in which
            case multiplication falls back to the schoolbook algorithm.
    """

    def __init__(self, n: int, q: int, allow_non_ntt: bool = False):
        if n < 2 or n & (n - 1):
            raise ValueError(f"polynomial degree must be a power of two, got {n}")
        if q < 2:
            raise ValueError(f"modulus must be >= 2, got {q}")
        self.n = n
        self.q = q
        self._ntt: NttContext | None = None
        if (q - 1) % (2 * n) == 0:
            try:
                self._ntt = NttContext.shared(n, q)
            except ValueError:
                self._ntt = None
        if self._ntt is None and not allow_non_ntt:
            raise ValueError(
                f"q = {q} is not NTT-friendly for n = {n}; "
                "pass allow_non_ntt=True for schoolbook multiplication"
            )

    @property
    def ntt(self) -> NttContext:
        """The ring's NTT context (raises if the modulus is not NTT-friendly)."""
        if self._ntt is None:
            raise ValueError("ring modulus does not support NTT")
        return self._ntt

    @property
    def coeff_byte_width(self) -> int:
        """Bytes per coefficient in the packed wire representation."""
        return (self.q.bit_length() + 7) // 8

    def unpack(self, data: bytes) -> "Polynomial":
        """Inverse of :meth:`Polynomial.pack` (strict: rejects coeffs >= q).

        The serving layer's wire format (:mod:`repro.service.serialization`)
        uses this as the innermost decoding step; out-of-range coefficients
        indicate corruption and raise rather than silently reducing mod q.
        """
        width = self.coeff_byte_width
        if len(data) != self.n * width:
            raise ValueError(
                f"packed polynomial needs {self.n * width} bytes "
                f"(n={self.n}, {width} B/coeff), got {len(data)}"
            )
        coeffs = [
            int.from_bytes(data[i * width : (i + 1) * width], "big")
            for i in range(self.n)
        ]
        bad = next((c for c in coeffs if c >= self.q), None)
        if bad is not None:
            raise ValueError(f"packed coefficient {bad} >= modulus {self.q}")
        # Unsigned and range-checked above: already canonical.
        return Polynomial.from_canonical(self, coeffs)

    @property
    def supports_ntt(self) -> bool:
        return self._ntt is not None

    def __call__(self, coeffs: Iterable[int]) -> "Polynomial":
        return Polynomial(self, coeffs)

    def zero(self) -> "Polynomial":
        return Polynomial(self, [0] * self.n)

    def one(self) -> "Polynomial":
        return Polynomial(self, [1] + [0] * (self.n - 1))

    def monomial(self, degree: int, coeff: int = 1) -> "Polynomial":
        """Return ``coeff * x**degree`` reduced into the ring.

        Degrees at or above ``n`` wrap with sign flips per ``x^n = -1``.
        """
        c = [0] * self.n
        wraps, d = divmod(degree, self.n)
        c[d] = coeff % self.q if wraps % 2 == 0 else (-coeff) % self.q
        return Polynomial(self, c)

    def random(self, rng) -> "Polynomial":
        """Uniform random ring element drawn from ``rng`` (random.Random)."""
        return Polynomial(self, [rng.randrange(self.q) for _ in range(self.n)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolynomialRing)
            and self.n == other.n
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q))

    def __repr__(self) -> str:
        return f"PolynomialRing(n={self.n}, q={self.q})"


class Polynomial:
    """An element of ``Z_q[x]/(x^n + 1)``: an immutable coefficient tuple."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolynomialRing, coeffs: Iterable[int]):
        self.ring = ring
        reduced = tuple(c % ring.q for c in coeffs)
        if len(reduced) > ring.n:
            raise ValueError(
                f"too many coefficients ({len(reduced)}) for degree-{ring.n} ring"
            )
        if len(reduced) < ring.n:
            reduced = reduced + (0,) * (ring.n - len(reduced))
        self.coeffs = reduced

    @classmethod
    def from_canonical(
        cls, ring: PolynomialRing, coeffs: Iterable[int]
    ) -> "Polynomial":
        """Wrap length-``n`` coefficients already reduced into ``[0, q)``.

        Skips the constructor's per-coefficient ``% q`` pass — for hot
        paths whose outputs are canonical by construction (the batched
        engine's round-scaling and key-switch fold both end in an exact
        ``% q``). Callers own the invariant; nothing is re-checked.
        """
        p = object.__new__(cls)
        p.ring = ring
        p.coeffs = tuple(coeffs)
        if len(p.coeffs) != ring.n:
            raise ValueError(
                f"expected exactly {ring.n} canonical coefficients, "
                f"got {len(p.coeffs)}"
            )
        return p

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        q = self.ring.q
        return Polynomial(
            self.ring, [(a + b) % q for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        q = self.ring.q
        return Polynomial(
            self.ring, [(a - b) % q for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "Polynomial":
        q = self.ring.q
        return Polynomial(self.ring, [(-a) % q for a in self.coeffs])

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_ring(other)
        if self.ring.supports_ntt:
            product = self.ring.ntt.negacyclic_multiply(self.coeffs, other.coeffs)
        else:
            product = reference_negacyclic_multiply(
                self.coeffs, other.coeffs, self.ring.q
            )
        return Polynomial(self.ring, product)

    def __rmul__(self, other: int) -> "Polynomial":
        return self.scalar_mul(other)

    def scalar_mul(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by a scalar (chip op ``CMODMUL``)."""
        q = self.ring.q
        s = scalar % q
        return Polynomial(self.ring, [a * s % q for a in self.coeffs])

    def scalar_div_exact(self, scalar: int) -> "Polynomial":
        """Multiply by the modular inverse of ``scalar``."""
        return self.scalar_mul(modinv(scalar, self.ring.q))

    def schoolbook_mul(self, other: "Polynomial") -> "Polynomial":
        """Quadratic-time negacyclic product (the pre-NTT baseline)."""
        self._check_ring(other)
        return Polynomial(
            self.ring,
            reference_negacyclic_multiply(self.coeffs, other.coeffs, self.ring.q),
        )

    def hadamard(self, other: "Polynomial") -> "Polynomial":
        """Pointwise (NTT-domain) product — chip op ``PMODMUL``."""
        self._check_ring(other)
        q = self.ring.q
        return Polynomial(
            self.ring, [a * b % q for a, b in zip(self.coeffs, other.coeffs)]
        )

    # -- domain transforms ------------------------------------------------

    def to_ntt(self) -> "Polynomial":
        """Forward negacyclic NTT of this polynomial (chip op ``NTT``)."""
        return Polynomial(self.ring, self.ring.ntt.forward(self.coeffs))

    def from_ntt(self) -> "Polynomial":
        """Inverse negacyclic NTT (chip op ``iNTT``)."""
        return Polynomial(self.ring, self.ring.ntt.inverse(self.coeffs))

    # -- utilities ---------------------------------------------------------

    def pack(self) -> bytes:
        """Deterministic byte packing: fixed-width big-endian coefficients.

        The width is ``ring.coeff_byte_width`` so two equal polynomials in
        the same ring always produce identical bytes (the property the wire
        format's digests and checksums rely on).
        """
        width = self.ring.coeff_byte_width
        return b"".join(c.to_bytes(width, "big") for c in self.coeffs)

    def centered(self) -> list[int]:
        """Coefficients lifted to the symmetric interval (-q/2, q/2]."""
        q = self.ring.q
        half = q // 2
        return [c - q if c > half else c for c in self.coeffs]

    def infinity_norm(self) -> int:
        """Max absolute value of the centered coefficients."""
        return max((abs(c) for c in self.centered()), default=0)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def evaluate(self, x: int) -> int:
        """Evaluate at a point modulo q (Horner); used in tests."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.ring.q
        return acc

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.ring.n > 4 else ""
        return f"Polynomial(n={self.ring.n}, [{head}{tail}])"
