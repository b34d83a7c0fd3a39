"""Batched RNS tower engine: the whole hot math path, vectorized.

Section II-D of the paper observes that SEAL keeps its RNS towers
word-sized precisely to unlock vectorized arithmetic. The pure-Python
:class:`~repro.polymath.ntt.NttContext` is exact for any modulus width
(CoFHEE's native 128 bits) but loops per butterfly. This module makes the
trade: a ciphertext's *full tower stack* is one ``(num_towers, n)``
``uint32`` ndarray of residues, kept at that width between calls, and
every operation — the NTTs, the Hadamard and tensor products, the
key-switch inner product, base conversion, CRT recombination, the integer
part of Eq. 4's rounding — is one call into the C kernels of
:mod:`repro.polymath.kernels` (which the chip model's MDMC runs too)
across all towers at once. Every kernel leaves its words fully reduced:
the results are **bit-identical** to :class:`NttContext` and to exact
integer arithmetic.

Engine selection is capability-based: :func:`get_engine` returns a cached
engine when every tower modulus is an NTT-friendly prime of at most
:data:`MAX_MODULUS_BITS` bits (:func:`~repro.polymath.kernels.fits`), and
``None`` otherwise — callers fall back to the exact pure-Python path for
wide moduli.

When q's own towers are engine-sized, nothing between wire and wire needs
a wide integer, as on the chip: a ciphertext is a tower-backed
:class:`~repro.polymath.poly.Polynomial` on the engine over q's basis,
mod-q work runs per tower, and each change of representation is one
kernel call: :meth:`BatchedRnsEngine.centred` takes wire words onto a
basis, :meth:`BatchedRnsEngine.scale_round` does the Eq. 4 ``t/q``
rounding, :meth:`BatchedRnsEngine.key_digits` splits key-switch digits
off the towers, and :meth:`BatchedRnsEngine.pack` makes wire bytes.
Python ints remain on the paths for other bases
(:meth:`~BatchedRnsEngine.round_scale`,
:meth:`~BatchedRnsEngine.centered_values`) and for the few coefficients
``scale_round`` finds next to a half.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Sequence

import numpy as np

from repro.polymath import kernels
from repro.polymath.kernels import MAX_MODULUS_BITS
from repro.polymath.modmath import modinv
from repro.polymath.ntt import NttContext
from repro.polymath.poly import Polynomial, _packed_words
from repro.polymath.primes import is_prime
from repro.polymath.rns import RnsBasis


def supports(moduli: "RnsBasis | Sequence[int]", n: int) -> bool:
    """Can the batched engine run this basis at degree ``n``?

    Requires a power-of-two degree and, per tower, an NTT-friendly prime
    (``q === 1 mod 2n``) of at most :data:`MAX_MODULUS_BITS` bits
    (:func:`~repro.polymath.kernels.fits`). Wide moduli (e.g. SEAL's
    54/55-bit CPU towers or CoFHEE's native 109-bit towers) fail the
    check and stay on the exact pure-Python path.
    """
    mods = moduli.moduli if isinstance(moduli, RnsBasis) else tuple(moduli)
    if n < 2 or n & (n - 1) or not mods:
        return False
    return all(
        kernels.fits(q)
        and (q - 1) % (2 * n) == 0
        and is_prime(q)
        for q in mods
    )


def get_engine(basis: RnsBasis, n: int) -> "BatchedRnsEngine | None":
    """The shared cached engine for ``(basis, n)``, or ``None``.

    ``None`` means the caller must use the exact pure-Python path: the
    basis has a wide or non-NTT-friendly tower.
    """
    return require_engine(basis, n) if supports(basis, n) else None


@lru_cache(maxsize=128)
def require_engine(basis: RnsBasis, n: int) -> "BatchedRnsEngine":
    """The shared cached engine for an *explicitly requested* basis.

    Engines are cached per (moduli, n) so every consumer — scheme
    multiplier, software baseline, chip-pool cross-check — shares one set
    of NTT tables.

    Raises:
        ValueError: if any tower is wide or non-NTT-friendly at ``n``.
    """
    return BatchedRnsEngine(basis, n)


class BatchedRnsEngine:
    """All towers of an RNS polynomial stack, transformed at once.

    The working representation is a ``(num_towers, n)`` ``uint32`` array
    whose row ``i`` holds the polynomial's residues mod ``moduli[i]``.
    The public methods take stacks of any integer dtype and value, treat
    them as immutable and return new ``uint32`` arrays, fully reduced
    into ``[0, q_i)`` per row.

    Args:
        basis: pairwise-coprime NTT-friendly prime towers, each at most
            :data:`MAX_MODULUS_BITS` bits.
        n: polynomial degree (power of two).

    Raises:
        ValueError: if any tower cannot run the negacyclic NTT at ``n``
            or exceeds :data:`MAX_MODULUS_BITS` bits (see :func:`supports`).
    """

    def __init__(self, basis: RnsBasis, n: int):
        if not supports(basis, n):
            raise ValueError(
                f"{basis!r} does not qualify for the batched engine at "
                f"n = {n} (wide or non-NTT-friendly towers); use NttContext"
            )
        # Per-tower contexts build (and validate) the psi tables the
        # kernel's twiddles come from, as on the chip.
        ctxs = [NttContext(n, q) for q in basis.moduli]
        psi = np.asarray([c._psi_brv for c in ctxs], dtype=np.uint64)
        self._init_tables(basis, n, (
            kernels.NttTables.derive(psi, basis.moduli),
            kernels.NttTables.derive(psi, basis.moduli, inverse=True,
                                     scale=[c.n_inv for c in ctxs]),
        ))

    def _init_tables(self, basis: RnsBasis, n: int, ntt: tuple) -> None:
        self._fwd, self._inv = ntt
        self.basis = basis
        self.n = n
        self.num_towers = len(basis)
        self.modulus = basis.modulus
        self._mods = kernels.Moduli.of(basis.moduli)
        # Garner mixed-radix constants for CRT recombination: row ``k``
        # holds ``inv``, the inverse of ``p_k = q_0 * ... * q_{k-1}`` mod
        # q_k, at ``k`` and ``-(p_i * inv)`` at each ``i < k``
        # (:meth:`_mixed_radix`).
        towers = len(basis)
        self._places = [prod(basis.moduli[:k]) for k in range(towers)]
        inv = [modinv(p % q, q) for p, q in zip(self._places, basis.moduli)]
        self._garner = self._mods.constants([
            [-self._places[i] * inv[k] for i in range(k)]
            + [inv[k]] + [0] * (towers - k - 1) for k in range(towers)
        ])
        # Lazily built base-conversion tables and scaling sub-engines.
        self._tables: dict = {}

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
            [obj % q for q in self.basis.moduli], dtype=np.uint32
        )

    def decompose_centered(self, poly: Polynomial) -> np.ndarray:
        """``decompose(poly.centered())`` without Python ints: a polynomial
        tower-backed on this basis hands over its residues (centring
        changes nothing mod a tower of q), any other is :meth:`centred`."""
        rns = poly._rns
        if rns is not None and rns.basis.moduli == self.basis.moduli:
            return poly._towers
        return self.centred([poly])[0]

    def centred(self, polys: Sequence[Polynomial]) -> np.ndarray:
        """The ``(P, L, n)`` stack of :meth:`decompose_centered` of
        polynomials of one ring, in one kernel call for all that are not
        tower-backed here (:func:`~repro.polymath.kernels.centre`): their
        big-endian 32-bit :attr:`~repro.polymath.poly.Polynomial.words`
        sum against ``2^(32 j) mod q_i``, and ``-q mod q_i`` is added
        where the coefficient exceeds ``floor(q/2)``."""
        out = np.empty((len(polys), self.num_towers, self.n), np.uint32)
        rest = []
        for poly, row in zip(polys, out):
            rns = poly._rns
            if rns is not None and rns.basis.moduli == self.basis.moduli:
                row[...] = poly._towers
            else:
                rest.append((poly, row))
        if not rest:
            return out
        ring = rest[0][0].ring
        words = [poly.words.T for poly, _ in rest]
        if any(poly.ring != ring for poly, _ in rest) or len(words[0][0]) != self.n:
            raise ValueError(f"expected {self.n} coefficients of one ring")
        kernels.centre([row for _, row in rest], words, ring._half_words,
                       self._radix(len(words[0])),
                       self._mods.times(-ring.q)[0], self._mods)
        return out

    def stack(self, towers: Sequence[Sequence[int]]) -> np.ndarray:
        """Per-tower residue vectors -> validated ``(num_towers, n)`` stack."""
        a = np.asarray(towers, dtype=np.int64)
        if a.shape != (self.num_towers, self.n):
            raise ValueError(
                f"expected a ({self.num_towers}, {self.n}) tower stack, "
                f"got {a.shape}"
            )
        return kernels.reduce(a, self._mods)

    def lift(self, values: np.ndarray, scale: int = 1) -> np.ndarray:
        """``values * scale`` as canonical residues: signed integer
        coefficients ``(n,)`` or rows ``(..., L, n)``, any int ``scale``."""
        return kernels.reduce(values, self._mods, self._mods.times(scale))

    def to_words(self, stack: np.ndarray, count: int) -> np.ndarray:
        """Canonical residues ``(L, n)`` -> ``(n, count)`` wire words, laid
        out like :func:`~repro.polymath.poly._packed_words`: the Garner
        digits folded into 32-bit limbs in one kernel call
        (:func:`~repro.polymath.kernels.words`)."""
        return kernels.words(stack, count, self._garner, self._mods).T

    def pack(self, stack: np.ndarray, width: int) -> bytes:
        """Canonical residues ``(L, n)`` -> ``n`` big-endian integers of
        ``width`` bytes, straight from the towers in one kernel call
        (:func:`~repro.polymath.kernels.pack`)."""
        return kernels.pack(stack, width, self._garner, self._mods)

    def reconstruct(self, stack: np.ndarray) -> list[int]:
        """CRT-recombine a stack into coefficients in ``[0, q)`` (Garner),
        bit-identical to :meth:`~repro.polymath.rns.RnsBasis.reconstruct_poly`."""
        # Object arrays hold Python ints already: tolist() hands them out.
        return self._garner_values(self.stack(stack)[None])[0].tolist()

    def centered_reconstruct(self, stack: np.ndarray) -> list[int]:
        """CRT-recombine into the symmetric interval ``(-q/2, q/2]``."""
        return self.centered_values(stack).tolist()

    def _mixed_radix(self, a: np.ndarray) -> np.ndarray:
        """Garner digits ``v = d_0 + d_1 q_0 + d_2 q_0 q_1 + ...`` of
        reduced ``(B, L, n)`` stacks: ``d_k = (a_k inv - sum_i d_i
        (prefix_i inv mod q_k)) mod q_k``, one kernel call."""
        return kernels.garner(a, self._garner, self._mods)

    def _garner_values(self, a: np.ndarray) -> np.ndarray:
        """Garner recombination of reduced ``(B, L, n)`` stacks into a
        ``(B, n)`` object array in ``[0, P)``: digits paired in int64
        (``d_k + q_k d_{k+1} < 2^62``), then one object Horner pass over
        half as many limbs."""
        digits = self._mixed_radix(a).astype(np.int64)
        moduli = np.asarray(self.basis.moduli + (1,) * (self.num_towers % 2))
        digits = np.pad(digits, ((0, 0), (0, len(moduli) - self.num_towers),
                                 (0, 0)))
        limbs = digits[:, ::2] + moduli[::2, None] * digits[:, 1::2]
        out = limbs[:, -1].astype(object)
        for k in range(limbs.shape[1] - 2, -1, -1):
            out = out * (int(moduli[2 * k]) * int(moduli[2 * k + 1])) + limbs[:, k]
        return out

    def centered_values(self, stack: np.ndarray) -> np.ndarray:
        """CRT values in ``(-P/2, P/2]`` as an object array: ``(n,)`` for
        one ``(L, n)`` stack, ``(k, n)`` for a batch."""
        a, squeeze = self._prepare_nd(stack)
        out = self._garner_values(a)
        modulus = self.modulus
        out = np.where(out > modulus >> 1, out - modulus, out)
        return out[0] if squeeze else out

    def round_scale(self, stack: np.ndarray, t: int, q: int) -> list:
        """The Eq. 4 scaling for any ``q``: ``round(t * c / q) mod q``.

        ``c`` is each coefficient's centered CRT value (the exact integer
        tensor product). Rounding is half-away-from-zero, bit-identical to
        the scheme's ``_round_div(t * c, q) % q``, via ``(2*t*c + q -
        [c < 0]) // (2*q)`` on object arrays. :meth:`scale_round` is the
        residue path for a basis that leads with q's towers.

        Accepts one ``(L, n)`` stack (returns ``list[int]``) or a batch
        ``(k, L, n)`` (returns ``k`` coefficient lists).
        """
        if t < 1 or q < 1:
            raise ValueError("round_scale needs positive t and q")
        a, squeeze = self._prepare_nd(stack)
        scaled = _round_half_away(self.centered_values(a), t, q) % q
        return scaled[0].tolist() if squeeze else scaled.tolist()

    def scale_round(self, stack: np.ndarray, t: int, head: int) -> np.ndarray:
        """Eq. 4 scale-and-round in RNS: ``round(t * c / q)`` on q's towers.

        For an engine whose first ``head`` towers multiply to ``q`` and a
        ``(B, L, n)`` batch of exact centered values ``c``, the ``(B, head,
        n)`` residues of :meth:`round_scale`'s result, bit for bit — the
        RNS rounding of Halevi, Polyakov and Shoup (CT-RSA 2019), exact:

        * ``c = q*u + v``: ``v = c mod q`` is the head rows, and ``u = (c -
          v) / q`` is exact on the extension towers, whose product holds
          ``|u| <= 2n(q/2+1)^2 / q + 1`` (checked in :meth:`_split`); its
          Garner digits carry it to q's towers, its top digit its sign.
        * ``round(t*c/q) = t*u + round(t*v/q)``, since odd ``q`` never
          makes ``t*c/q`` a half. ``v/q = (d_{L-1} + (... + d_0/q_0)
          ...)/q_{L-1}`` in float64 errs by under ``t * 2^-45``; a
          coefficient within ``t * 2^-40`` of a half takes the exact
          :meth:`_round_exact` instead.
        """
        return self._scale_round(self._prepare_nd(stack)[0], t, head)

    def _scale_round(self, a: np.ndarray, t: int, head: int) -> np.ndarray:
        """:meth:`scale_round` of a reduced ``(B, L, n)`` batch (as
        :meth:`inverse` returns it): one kernel pass per coefficient
        (:func:`~repro.polymath.kernels.scale_round`), then
        :meth:`_round_exact` of the columns it finds near a half."""
        qe, table = self._split(head)
        if t >> 32:  # a rounding past one word takes the exact path
            batch, towers, n = a.shape
            out = self._round_exact(a.transpose(0, 2, 1).reshape(-1, towers),
                                    t, qe)
            return np.ascontiguousarray(
                out.reshape(batch, n, head).transpose(0, 2, 1))
        out, near = kernels.scale_round(a, head, t, table, qe._mods.times(t),
                                        self._mods)
        if len(near):
            b, j = np.divmod(near, self.n)
            out[b, :, j] = self._round_exact(a[b, :, j], t, qe)
        return out

    def _split(self, head: int) -> tuple:
        """:meth:`scale_round`'s engine over q's towers and the constants
        table of ``ntt.c``'s ``scale_round``: the Garner constants on q's
        towers; ``-place_k / q`` and ``1 / q`` on the extension; its Garner
        constants; its place values and ``-E`` on q's towers."""
        key = ("split", head)
        if key not in self._tables:
            qe = self.select(range(head))
            xe = self.select(range(head, self.num_towers))
            q, ext = qe.modulus, xe.basis.moduli
            if (2 * self.n * (q // 2 + 1) ** 2) // q + 1 >= (
                ext[-1] // 2 * (xe.modulus // ext[-1])
            ):
                raise ValueError("extension towers too narrow to carry c / q")
            q_inv = [modinv(q % p, p) for p in ext]
            parts = (
                qe._garner,
                xe._mods.constants(
                    [[-pk * inv for pk in qe._places] + [inv] for inv in q_inv]
                ),
                xe._garner,
                qe._mods.constants([xe._places] * head),
                qe._mods.times(-xe.modulus),
            )
            table = tuple(np.concatenate([p[i].ravel() for p in parts])
                          for i in (0, 1))
            for words in table:
                words.flags.writeable = False
            self._tables[key] = (qe, table)
        return self._tables[key]

    def _round_exact(self, cols: np.ndarray, t: int, qe) -> np.ndarray:
        """:meth:`round_scale` of ``(K, L)`` residue columns, as ``(K,
        head)`` residues on ``qe``'s towers: the exact, sign-aware
        fallback of :meth:`scale_round`."""
        c = self._garner_values(cols.T[None])[0]
        c = np.where(c > self.modulus >> 1, c - self.modulus, c)
        r = _round_half_away(c, t, qe.modulus)
        return np.asarray([r % m for m in qe.basis.moduli], dtype=np.uint32).T

    def digit_decompose(
        self, coeffs: Sequence[int], digit_bits: int, num_digits: int
    ) -> np.ndarray:
        """:meth:`digit_rows` of *canonical* Python-int coefficients.

        Raises:
            ValueError: if any coefficient is negative — a centered
                coefficient would sign-extend under the mask and corrupt
                the fold, exactly like the scalar
                ``Bfv._decompose_digits`` path.
        """
        if digit_bits < 1 or num_digits < 1:
            raise ValueError("digit_bits and num_digits must be >= 1")
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        if min(coeffs) < 0:
            raise ValueError(
                "digit decomposition requires canonical coefficients in "
                "[0, q); got a negative (centered?) coefficient"
            )
        width = max(1, -(-int(max(coeffs)).bit_length() // 8))
        data = b"".join(int(c).to_bytes(width, "big") for c in coeffs)
        return self.digit_rows(
            _packed_words(data, self.n, width), digit_bits, num_digits
        )

    def digit_rows(
        self, words: np.ndarray, digit_bits: int, num_digits: int
    ) -> np.ndarray:
        """Base-T digits of canonical coefficients, straight from words.

        Digit ``i`` is bits ``[i*T, (i+1)*T)`` of each coefficient of the
        ``(n, W)`` big-endian ``words``, reduced per tower in one kernel
        call (:func:`~repro.polymath.kernels.digits`). Returns the
        ``(num_digits, num_towers, n)`` ``uint32`` batch.
        """
        out = np.empty((num_digits, self.num_towers, self.n), np.uint32)
        kernels.digits(out, words.T, digit_bits, self._radix(
            -(-digit_bits // 32)), self._mods)
        return out

    def key_digits(
        self, polys: Sequence[Polynomial], digit_bits: int, num_digits: int
    ) -> np.ndarray:
        """The ``(J, num_digits, num_towers, n)`` :meth:`digit_rows` of
        canonical polynomials, one kernel call each: a polynomial
        tower-backed on this basis goes from its residues (Garner's digits
        folded into limbs), any other from its words."""
        out = np.empty((len(polys), num_digits, self.num_towers, self.n),
                       np.uint32)
        radix = self._radix(-(-digit_bits // 32))
        for poly, rows in zip(polys, out):
            rns = poly._rns
            if rns is not None and rns.basis.moduli == self.basis.moduli:
                kernels.digits(rows, poly._towers, digit_bits, radix,
                               self._mods, self._garner)
            else:
                kernels.digits(rows, poly.words.T, digit_bits, radix,
                               self._mods)
        return out

    def _radix(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The constants of ``2^(32 (width - 1 - j))`` on every tower, ``(L,
        width)``: a ``width``-word big-endian value's place values."""
        table = self._tables.get(("radix", width))
        if table is None:
            table = self._tables["radix", width] = self._mods.constants([
                [1 << 32 * (width - 1 - j) for j in range(width)]
            ] * self.num_towers)
        return table

    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT, all towers at once.

        Natural order in, bit-reversed order out per tower — identical
        values to ``NttContext.forward`` row by row. Accepts one stack
        ``(num_towers, n)`` or a batch ``(k, num_towers, n)``.
        """
        a, squeeze = self._prepare_nd(stack)
        out = self._forward(a)
        return out[0] if squeeze else out

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT with n^-1 scaling.

        Bit-reversed order in, natural order out — identical values to
        ``NttContext.inverse`` row by row. Accepts one stack or a batch.
        """
        a, squeeze = self._prepare_nd(stack)
        out = self._inverse(a)
        return out[0] if squeeze else out

    def _forward(self, a: np.ndarray) -> np.ndarray:
        """:meth:`forward` of a reduced ``(B, L, n)`` ``uint32`` batch the
        caller hands over: transformed in place, no ``% q`` pass."""
        return kernels.transform(a, self._fwd)

    def _inverse(self, a: np.ndarray) -> np.ndarray:
        """:meth:`inverse` of a reduced batch the caller hands over."""
        return kernels.transform(a, self._inv)

    def pointwise_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hadamard product per tower of residue stacks."""
        return kernels.multiply(a, b, self._mods)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-tower polynomial product modulo ``x^n + 1``."""
        fa, fb = self.forward(np.stack((a, b)))
        return self._inverse(self.pointwise_mul(fa, fb))

    def tensor(
        self, a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Eq. 4 mod-q tensor across every tower at once.

        Four batched forward NTTs, four Hadamard products, one addition,
        three batched inverse NTTs — exactly the per-tower op mix of
        ``SoftwareBfv.tower_multiply`` and the chip's Algorithm 3.
        """
        operands = self._prepare_nd(np.stack((a0, a1, b0, b1)))[0]
        return tuple(self._tensor(operands))

    def tensor_square(
        self, a0: np.ndarray, a1: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Eq. 4 tensor of a ciphertext with itself: two forward NTTs,
        the cross term ``2 * a0 * a1``."""
        return tuple(self._tensor(self._prepare_nd(np.stack((a0, a1)))[0]))

    def _tensor(self, operands: np.ndarray) -> np.ndarray:
        """:meth:`tensor` of a reduced ``(4, L, n)`` batch ``(a0, a1, b0,
        b1)``, or :meth:`tensor_square` of a ``(2, L, n)`` one, as one ``(3,
        L, n)`` array, with no ``% q`` pass; the batch is consumed (a ``(4,
        L, n)`` one's first three rows hold the result)."""
        f = self._forward(operands)
        out = f[:3] if len(f) == 4 else None
        return self._inverse(kernels.tensor(f, self._mods, out))

    def keyswitch_rows(self, rows) -> np.ndarray:
        """A key-switch key's rows in NTT form, ready for :meth:`keyswitch`.

        ``rows`` are the key's ``D`` polynomial pairs ``(b_i, a_i)``,
        lifted centred. Returns the ``(2, D, L, n)`` forward transforms:
        ``[0]`` the ``b`` rows, ``[1]`` the ``a`` rows.
        """
        stack = self.centred([b for b, _ in rows] + [a for _, a in rows])
        return self._forward(stack).reshape(
            2, len(rows), self.num_towers, self.n
        )

    def keyswitch(self, digits: np.ndarray, key_rows: np.ndarray) -> np.ndarray:
        """The key-switch kernel: fold ``J`` digit sets through one key.

        The ``(J, D, L, n)`` digit polynomials ride one forward
        pass, fold against ``key_rows`` (:meth:`keyswitch_rows`) in the NTT
        domain in one kernel call, and one inverse pass covers both
        components of every job: the ``(2, J, L, n)`` residues of ``sum_d
        digit_d * b_d`` and of the ``a`` fold.
        """
        J, D, L, n = np.shape(digits)
        a, _ = self._prepare_nd(np.reshape(digits, (J * D, L, n)))
        return self._keyswitch(a.reshape(J, D, L, n), key_rows)

    def _keyswitch(self, digits: np.ndarray, key_rows: np.ndarray) -> np.ndarray:
        """:meth:`keyswitch` of reduced digits (as :meth:`digit_rows`
        returns them), with no ``% q`` pass; the digits are consumed."""
        J, D, L, n = digits.shape
        fwd = self._forward(digits.reshape(J * D, L, n)).reshape(J, D, L, n)
        acc = kernels.keyswitch(fwd, key_rows, self._mods)
        return self._inverse(acc.reshape(2 * J, L, n)).reshape(2, J, L, n)

    def select(self, indices: Sequence[int]) -> "BatchedRnsEngine":
        """An engine over a subset of towers, sharing all precomputation:
        for a run of consecutive towers its NTT tables are row slices
        (views) of this one's, otherwise gathered copies."""
        indices = list(indices)
        rows = slice(indices[0], indices[-1] + 1)
        if indices != list(range(rows.start, rows.stop)):
            rows = indices
        sub = object.__new__(BatchedRnsEngine)
        sub._init_tables(self.basis.sub_basis(indices), self.n,
                         (self._fwd.rows(rows), self._inv.rows(rows)))
        return sub

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
        return kernels.reduce(a, self._mods), squeeze

    def __repr__(self) -> str:
        bits = [q.bit_length() for q in self.basis.moduli]
        return (
            f"BatchedRnsEngine(n={self.n}, towers={self.num_towers}, "
            f"bits={bits})"
        )


def _round_half_away(c: np.ndarray, t: int, q: int) -> np.ndarray:
    """``round(t * c / q)``, half away from zero, on an object array."""
    # adj must stay an object array: q may exceed int64.
    adj = np.full(c.shape, q, dtype=object)
    adj[c < 0] = q - 1
    return (2 * t * c + adj) // (2 * q)
