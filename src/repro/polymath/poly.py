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

import numpy as np

from repro.polymath.modmath import modinv
from repro.polymath.ntt import NttContext, reference_negacyclic_multiply


def _word_count(width: int) -> int:
    """32-bit words per coefficient of a ``width``-byte packed form."""
    return -(-width // 4)


def _int_words(value: int, count: int) -> np.ndarray:
    """``value`` as ``count`` big-endian 32-bit words (``uint32``)."""
    return np.frombuffer(value.to_bytes(4 * count, "big"), dtype=">u4").astype(
        np.uint32
    )


def _packed_words(data: bytes, n: int, width: int) -> np.ndarray:
    """``n`` fixed-width big-endian integers -> ``(n, W)`` ``uint32`` words.

    Each coefficient is left-padded to ``W = ceil(width / 4)`` words, so
    row ``i``, most significant word first, is coefficient ``i``. The
    array is column-major: every word position is one contiguous column,
    which is what the compares and reductions below walk.
    """
    count = _word_count(width)
    raw = np.frombuffer(data, dtype=np.uint8).reshape(n, width)
    if width != 4 * count:
        padded = np.zeros((n, 4 * count), dtype=np.uint8)
        padded[:, 4 * count - width :] = raw
        raw = padded
    return np.asarray(raw.view(">u4"), dtype=np.uint32, order="F")


def _word_values(words: np.ndarray) -> tuple[int, ...]:
    """The Python ints of ``(n, W)`` big-endian 32-bit words, one per row
    (combined one word column at a time)."""
    values = words[:, 0].astype(object)
    for j in range(1, words.shape[1]):
        values = (values << 32) | words[:, j].astype(object)
    return tuple(values.tolist())


def _above(words: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Row-wise ``words > bound``, compared lexicographically word by word.

    The most significant word decides unless it ties; later words are
    read only while some row still ties, which random residues almost
    never do past the first word.
    """
    column = words[:, 0]
    above = column > bound[0]
    tied = column == bound[0]
    for j in range(1, words.shape[1]):
        if not tied.any():
            break
        column = words[:, j]
        above |= tied & (column > bound[j])
        tied &= column == bound[j]
    return above


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
        # Word forms of q - 1 and floor(q/2): the bounds of the unpack
        # range check and of the centred lift.
        words = _word_count(self.coeff_byte_width)
        self._max_words = _int_words(q - 1, words)
        self._half_words = _int_words(q // 2, words)

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

        One numpy pass reads the bytes as big-endian 32-bit words and
        range-checks every coefficient against ``q - 1`` lexicographically;
        no Python int is built. The result is word-backed (see
        :class:`Polynomial`).
        """
        width = self.coeff_byte_width
        if len(data) != self.n * width:
            raise ValueError(
                f"packed polynomial needs {self.n * width} bytes "
                f"(n={self.n}, {width} B/coeff), got {len(data)}"
            )
        data = bytes(data)
        words = _packed_words(data, self.n, width)
        over = _above(words, self._max_words)
        if over.any():
            i = int(over.argmax())
            bad = int.from_bytes(data[i * width : (i + 1) * width], "big")
            raise ValueError(f"packed coefficient {bad} >= modulus {self.q}")
        return Polynomial._from_words(self, words, data)

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
    """An element of ``Z_q[x]/(x^n + 1)``: an immutable coefficient vector.

    It has one of three interchangeable forms: ``coeffs``, ``pack()``,
    ``==``, ``hash``, ``centered()`` and ``+``/``-``/``neg`` agree
    between them, and each form builds the others' data lazily, once.

    * **Int-backed**: a tuple of canonical Python ints (the constructor,
      :meth:`from_canonical`).
    * **Word-backed**: :meth:`PolynomialRing.unpack`'s wire bytes and
      their big-endian 32-bit :attr:`words`.
    * **Tower-backed**: :meth:`from_towers`, ``(L, n)`` ``uint32``
      residues on q's own towers with the batched engine over them —
      every ciphertext the scheme computes when those towers are
      engine-sized. Its bytes and ``words`` come from the towers in one
      kernel call each
      (:meth:`~repro.polymath.engine.BatchedRnsEngine.pack`,
      :meth:`~repro.polymath.engine.BatchedRnsEngine.to_words`), and
      ``+``/``-``/``neg``/:meth:`scalar_mul` with it run per tower.
    """

    __slots__ = ("ring", "_coeffs", "_words", "_packed", "_towers", "_rns")

    def __init__(self, ring: PolynomialRing, coeffs: Iterable[int]):
        reduced = tuple(c % ring.q for c in coeffs)
        if len(reduced) > ring.n:
            raise ValueError(
                f"too many coefficients ({len(reduced)}) for degree-{ring.n} ring"
            )
        if len(reduced) < ring.n:
            reduced = reduced + (0,) * (ring.n - len(reduced))
        self._set(ring, coeffs=reduced)

    def _set(self, ring, coeffs=None, words=None, packed=None, towers=None,
             rns=None) -> "Polynomial":
        self.ring = ring
        self._coeffs, self._words, self._packed = coeffs, words, packed
        self._towers, self._rns = towers, rns
        return self

    @classmethod
    def from_canonical(
        cls, ring: PolynomialRing, coeffs: Iterable[int]
    ) -> "Polynomial":
        """Wrap length-``n`` coefficients already reduced into ``[0, q)``,
        skipping the constructor's ``% q`` pass (a range-checked plaintext
        constant, an automorphism). Nothing is re-checked."""
        coeffs = tuple(coeffs)
        if len(coeffs) != ring.n:
            raise ValueError(
                f"expected exactly {ring.n} canonical coefficients, "
                f"got {len(coeffs)}"
            )
        return object.__new__(cls)._set(ring, coeffs=coeffs)

    @classmethod
    def from_towers(cls, ring: PolynomialRing, rns, towers: np.ndarray):
        """Wrap ``(L, n)`` residues in ``[0, q_i)`` on ``rns``, the engine
        over q's own towers, as ``uint32`` (not copied when they are)."""
        towers = np.asarray(towers, dtype=np.uint32)
        return object.__new__(cls)._set(ring, towers=towers, rns=rns)

    @classmethod
    def _from_words(
        cls, ring: PolynomialRing, words: np.ndarray, packed: bytes
    ) -> "Polynomial":
        """Wrap range-checked wire bytes and their words (see ``unpack``)."""
        return object.__new__(cls)._set(ring, words=words, packed=packed)

    def on_towers(self, rns) -> "Polynomial":
        """This polynomial, tower-backed on ``rns`` (q's engine)."""
        if self._rns is not None and self._rns.basis == rns.basis:
            return self
        return Polynomial.from_towers(
            self.ring, rns, rns.decompose_centered(self)
        )

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The canonical coefficients in ``[0, q)``, as Python ints."""
        if self._coeffs is None:
            self._coeffs = _word_values(self.words)
        return self._coeffs

    @property
    def words(self) -> np.ndarray:
        """The ``(n, W)`` ``uint32`` big-endian words of the canonical
        coefficients (``W = ceil(coeff_byte_width / 4)``, column-major)."""
        if self._words is None:
            width = self.ring.coeff_byte_width
            if self._towers is not None:
                self._words = self._rns.to_words(
                    self._towers, _word_count(width)
                )
            else:
                self._words = _packed_words(self.pack(), self.ring.n, width)
        return self._words

    # -- ring operations -------------------------------------------------

    def _combine(self, other: "Polynomial | None", op) -> "Polynomial":
        """``op`` coefficient-wise mod q: per tower if either operand is
        tower-backed (a ``uint32`` value in ``(-q, 2q)``, wrapped below
        zero, takes a conditional ``+q`` then ``-q``), else on Python ints
        (``other=None`` is unary)."""
        if other is not None:
            self._check_ring(other)
        rns = self._rns or (other._rns if other is not None else None)
        if rns is not None:
            a = rns.decompose_centered(self)
            b = None if other is None else rns.decompose_centered(other)
            r, q = op(a, b), rns._mods.q
            np.minimum(r, r + q, out=r)
            np.minimum(r, r - q, out=r)
            return Polynomial.from_towers(self.ring, rns, r)
        b = other.coeffs if other is not None else (0,) * self.ring.n
        return Polynomial(self.ring, [op(x, y) for x, y in zip(self.coeffs, b)])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, lambda a, b: a - b)

    def __neg__(self) -> "Polynomial":
        return self._combine(None, lambda a, _: -a)

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
        if self._rns is not None:
            return Polynomial.from_towers(
                self.ring, self._rns, self._rns.lift(self._towers, scalar)
            )
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

    def permuted(self, src: np.ndarray, mask: np.ndarray) -> "Polynomial":
        """The signed index permutation ``p'[j] = ±p[src[j]]``, negated
        where the ``uint32`` ``mask[j]`` is all ones (an automorphism's
        table).

        Tower-backed, it is one gather of the ``(L, n)`` stack along
        ``n`` and one branch-free select between each row and its
        negation, ``rows ^ ((rows ^ neg) & mask)``; ``neg = min(-rows,
        -rows + q)`` is ``q - x`` for ``x > 0`` and ``0`` for ``x = 0``.
        """
        if self._rns is not None:
            rows = np.take(self._towers, src, axis=1)
            neg = -rows  # 2^32 - x; + q wraps it to q - x, and 0 stays 0
            np.minimum(neg, neg + self._rns._mods.q, out=neg)
            neg ^= rows
            neg &= mask
            rows ^= neg
            return Polynomial.from_towers(self.ring, self._rns, rows)
        out = np.asarray(self.coeffs, dtype=object)[src]
        flip = mask != 0
        out[flip] = -out[flip] % self.ring.q
        return Polynomial.from_canonical(self.ring, out.tolist())

    def pack(self) -> bytes:
        """Deterministic byte packing: fixed-width big-endian coefficients.

        The width is ``ring.coeff_byte_width`` so two equal polynomials in
        the same ring always produce identical bytes (the property the wire
        format's digests and checksums rely on). A word-backed polynomial
        returns the bytes it was unpacked from; a tower-backed one packs
        its towers straight into the bytes it keeps (one kernel call, no
        words or other temporary: a packed result sits in the server's
        result cache). Built once, then held.
        """
        if self._packed is None:
            width = self.ring.coeff_byte_width
            if self._towers is not None:
                self._packed = self._rns.pack(self._towers, width)
            else:  # int-backed: a word-backed one holds its bytes
                self._packed = b"".join(
                    c.to_bytes(width, "big") for c in self._coeffs
                )
        return self._packed

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
        if not isinstance(other, Polynomial) or self.ring != other.ring:
            return False
        if self._coeffs is not None and other._coeffs is not None:
            return self._coeffs == other._coeffs
        return self.pack() == other.pack()

    def __hash__(self) -> int:
        return hash((self.ring, self.pack()))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.ring.n > 4 else ""
        return f"Polynomial(n={self.ring.n}, [{head}{tail}])"
