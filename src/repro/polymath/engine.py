"""Batched RNS tower engine: the whole hot math path, vectorized.

Section II-D of the paper observes that SEAL keeps its RNS towers
word-sized precisely to unlock vectorized arithmetic. The pure-Python
:class:`~repro.polymath.ntt.NttContext` is exact for any modulus width
(CoFHEE's native 128 bits) but loops per butterfly. This module makes the
trade: a ciphertext's *full tower stack* lives in one ``(num_towers, n)``
int64 ndarray, and every operation — forward and inverse negacyclic NTT,
Hadamard and tensor products, additions, CRT recombination — runs across
all towers at once with a per-tower modulus column.

The transforms are the shared stage kernels of
:mod:`repro.polymath.kernels` — the same in-place Shoup butterflies the
chip model's MDMC runs over one bank row — fed one compact ``(L, n)``
twiddle table plus its Shoup companions per direction. They are
**bit-identical** to :class:`NttContext`: the twiddle tables are built by
the same per-tower contexts, and lazy reduction only defers (never
changes) the mod-q result. The property suite proves it across random
(n, basis, tower-count) grids.

Engine selection is capability-based: :func:`get_engine` returns a cached
engine when every tower modulus is an NTT-friendly prime of at most
:data:`MAX_MODULUS_BITS` bits, and ``None`` otherwise — callers fall back
to the exact pure-Python path for wide moduli.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.polymath import kernels
from repro.polymath.kernels import MAX_MODULUS_BITS
from repro.polymath.modmath import modinv
from repro.polymath.ntt import NttContext
from repro.polymath.poly import Polynomial
from repro.polymath.primes import is_prime
from repro.polymath.rns import RnsBasis


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
    of twiddle/Shoup tables.

    Raises:
        ValueError: if any tower is wide or non-NTT-friendly at ``n``.
    """
    return BatchedRnsEngine(basis, n)


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
            or exceeds :data:`MAX_MODULUS_BITS` bits (see :func:`supports`).
    """

    def __init__(self, basis: RnsBasis, n: int):
        if not supports(basis, n):
            raise ValueError(
                f"{basis!r} does not qualify for the batched engine at "
                f"n = {n} (wide or non-NTT-friendly towers); use NttContext"
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
        # 2^32 mod q_i: the radix of the wire words decompose_centered reads.
        self._word_radix = np.asarray(
            [(1 << 32) % q for q in basis.moduli], dtype=np.int64
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
        # The kernels' operands: per-stage views of one compact (L, n)
        # twiddle table per direction and of its Shoup companions.
        q = self._q_u64 = self._q.astype(np.uint64)
        psi = np.asarray([c._psi_brv for c in self._ctxs], dtype=np.uint64)
        ipsi = np.asarray([c._ipsi_brv for c in self._ctxs], dtype=np.uint64)
        self._psi = kernels.stage_twiddles(psi, q)
        self._ipsi = kernels.stage_twiddles(ipsi, q)
        self._n_inv = np.asarray(
            [c.n_inv for c in self._ctxs], dtype=np.uint64
        )[:, None]

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

    def decompose_centered(self, poly: Polynomial) -> np.ndarray:
        """``decompose(poly.centered())``, from the wire words if it can.

        A word-backed polynomial (see
        :class:`~repro.polymath.poly.Polynomial`) never becomes Python
        ints. Its big-endian 32-bit words reduce mod every tower in one
        int64 Horner pass, ``r = (r * 2^32 + w) mod q_i``, which stays
        below 2^63 because ``r, 2^32 mod q_i < 2^31``. The centred lift
        then subtracts ``q mod q_i`` where the coefficient exceeds
        ``floor(q/2)``, which is one word compare.
        """
        words = poly.words
        if words is None:
            return self.decompose(poly.centered())
        if len(words) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(words)}")
        q = self._q
        words = words.astype(np.int64)
        out = words[:, 0] % q
        for j in range(1, words.shape[1]):
            out = (out * self._word_radix + words[:, j]) % q
        lift = np.asarray(
            [poly.ring.q % m for m in self.basis.moduli], dtype=np.int64
        )[:, None]
        return (out - poly.negative_mask() * lift) % q

    def stack(self, towers: Sequence[Sequence[int]]) -> np.ndarray:
        """Per-tower residue vectors -> validated ``(num_towers, n)`` stack."""
        a = np.asarray(towers, dtype=np.int64)
        if a.shape != (self.num_towers, self.n):
            raise ValueError(
                f"expected a ({self.num_towers}, {self.n}) tower stack, "
                f"got {a.shape}"
            )
        return a % self._q

    def reconstruct(self, stack: np.ndarray) -> list[int]:
        """CRT-recombine a stack into big-modulus coefficients.

        Garner's mixed-radix algorithm (:meth:`_garner_values`): no
        per-coefficient wide modular reduction at all. The result is the
        unique representative in ``[0, q)``, bit-identical to
        :meth:`~repro.polymath.rns.RnsBasis.reconstruct_poly`.
        """
        # Object arrays hold Python ints already: tolist() hands them out.
        return self._garner_values(self.stack(stack)[None])[0].tolist()

    def centered_reconstruct(self, stack: np.ndarray) -> list[int]:
        """CRT-recombine into the symmetric interval ``(-q/2, q/2]``."""
        return self.centered_values(stack).tolist()

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
        return scaled[0].tolist() if squeeze else scaled.tolist()

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
        out = kernels.dit(a.view(np.uint64), self._q_u64, self._psi)
        return out.view(np.int64)[0] if squeeze else out.view(np.int64)

    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT (Gentleman-Sande DIF) with n^-1 scaling.

        Bit-reversed order in, natural order out — identical values to
        ``NttContext.inverse`` row by row. Accepts one stack or a batch,
        like :meth:`forward`.
        """
        a, squeeze = self._prepare_nd(stack)
        q = self._q_u64
        out = kernels.dif(a.view(np.uint64), q, self._ipsi)
        out = kernels.mul_const(out, self._n_inv, q).view(np.int64)
        return out[0] if squeeze else out

    # ------------------------------------------------------------------
    # Pointwise arithmetic (NTT or coefficient domain alike)
    # ------------------------------------------------------------------

    def pointwise_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hadamard product per tower (int64-safe: operands below 2^30)."""
        return a * b % self._q

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
        return (
            f"BatchedRnsEngine(n={self.n}, towers={self.num_towers}, "
            f"bits={bits})"
        )
