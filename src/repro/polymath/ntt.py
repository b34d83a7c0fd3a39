"""Number Theoretic Transform: Cooley-Tukey forward, Gentleman-Sande inverse.

CoFHEE implements the Cooley-Tukey algorithm (paper Algorithm 1) for the
forward transform and a decimation-in-frequency pass for the inverse
(Section VI-A notes the iNTT "includes a multiplication with a constant
(n^-1) and a decimation in frequency operation"). For negacyclic
convolution over ``x^n + 1`` the 2n-th root of unity ``psi`` is *merged
into the twiddle factors* (the standard Longa-Naehrig formulation), which
is why the chip needs no separate pre-scaling pass and why it can share one
twiddle table between NTT and iNTT (Section VIII-B, "CoFHEE uses the same
twiddle factors for both operations").

Both transforms run in place over a Python list of coefficients; each
butterfly performs exactly one modular multiplication, one modular
addition, and one modular subtraction — the three units of the chip's
processing element.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.polymath.modmath import modadd, modexp, modinv, modmul, modsub
from repro.polymath.primes import root_of_unity


class NttContext:
    """Precomputed transform context for degree ``n`` and prime modulus ``q``.

    The context owns the twiddle tables the chip keeps in its twiddle SRAM:
    powers of ``psi`` (2n-th root of unity) in bit-reversed order for the
    forward transform, powers of ``psi^-1`` for the inverse, and the scalar
    ``n^-1 mod q`` programmed into the ``INV_POLYDEG`` register (Table II).

    Args:
        n: polynomial degree; must be a power of two.
        q: prime modulus with ``q === 1 (mod 2n)``.
        psi: optional explicit primitive 2n-th root of unity; derived from
            the factorization of ``q - 1`` when omitted.
    """

    #: shared contexts keyed ``(n, q)`` — twiddle tables are immutable
    #: after construction, so every ring/driver for the same modulus can
    #: reuse one table instead of re-deriving psi per instance. A modulus
    #: with no such table keeps the error its search raised.
    _shared: dict[tuple[int, int], "NttContext | ValueError"] = {}

    @classmethod
    def shared(cls, n: int, q: int) -> "NttContext":
        """Return (building once) the cached context for ``(n, q)``.

        The derived-psi constructor is deterministic, so the shared
        instance is bit-identical to a fresh one; only contexts with an
        explicit ``psi`` need private construction. So is its failure:
        a modulus with no primitive ``2n``-th root (a composite RNS
        product, whose search takes tens of ms at ``n = 2^12``) raises
        its :class:`ValueError` again without searching again.
        """
        key = (n, q)
        ctx = cls._shared.get(key)
        if ctx is None:
            try:
                ctx = cls(n, q)
            except ValueError as exc:
                ctx = ValueError(*exc.args)  # without the search's frames
            if len(cls._shared) >= 64:
                cls._shared.pop(next(iter(cls._shared)))
            cls._shared[key] = ctx
        if isinstance(ctx, ValueError):
            raise ValueError(*ctx.args)
        return ctx

    def __init__(self, n: int, q: int, psi: int | None = None):
        if n < 2 or n & (n - 1):
            raise ValueError(f"polynomial degree must be a power of two, got {n}")
        if (q - 1) % (2 * n):
            raise ValueError(f"q = {q} does not support negacyclic NTT of size {n}")
        self.n = n
        self.q = q
        self.log_n = n.bit_length() - 1
        self.psi = root_of_unity(2 * n, q) if psi is None else psi
        if pow(self.psi, n, q) != q - 1:
            raise ValueError(f"psi = {self.psi} is not a primitive 2n-th root")
        self.psi_inv = modinv(self.psi, q)
        self.omega = self.psi * self.psi % q  # n-th root for the cyclic NTT
        self.omega_inv = modinv(self.omega, q)
        self.n_inv = modinv(n, q)
        self._psi_brv = self._bitrev_powers(self.psi)
        self._ipsi_brv = self._bitrev_powers(self.psi_inv)

    def _bitrev_powers(self, base: int) -> list[int]:
        """Powers ``base**i`` stored in bit-reversed index order."""
        powers = [1] * self.n
        for i in range(1, self.n):
            powers[i] = powers[i - 1] * base % self.q
        bits = self.log_n
        return [powers[_reverse_bits(i, bits)] for i in range(self.n)]

    # ------------------------------------------------------------------
    # Negacyclic (psi-merged) transforms -- what the chip executes.
    # ------------------------------------------------------------------

    def forward(self, coeffs: Sequence[int]) -> list[int]:
        """Negacyclic forward NTT (Cooley-Tukey DIT).

        Consumes natural order, produces bit-reversed order — the layout the
        chip keeps between NTT and the Hadamard product. Equivalent to
        evaluating the polynomial at the odd powers of ``psi``; two
        polynomials transformed this way multiply pointwise to give their
        product reduced modulo ``x^n + 1`` with no separate polynomial
        reduction (the property Section IV-C relies on).
        """
        a = self._checked_copy(coeffs)
        q = self.q
        t = self.n
        m = 1
        while m < self.n:
            t >>= 1
            for i in range(m):
                j1 = 2 * i * t
                s = self._psi_brv[m + i]
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = a[j + t] * s % q
                    a[j] = modadd(u, v, q)
                    a[j + t] = modsub(u, v, q)
            m <<= 1
        return a

    def inverse(self, values: Sequence[int]) -> list[int]:
        """Negacyclic inverse NTT (Gentleman-Sande DIF) including n^-1 scaling.

        Consumes bit-reversed order (the forward transform's output layout)
        and produces natural order. The final loop multiplies every coefficient by ``n^-1`` — on the
        chip this is the extra constant-multiply pass that makes iNTT take
        more cycles than NTT (Table V, Section VI-A).
        """
        a = self._checked_copy(values)
        q = self.q
        t = 1
        m = self.n
        while m > 1:
            j1 = 0
            h = m >> 1
            for i in range(h):
                s = self._ipsi_brv[h + i]
                for j in range(j1, j1 + t):
                    u = a[j]
                    v = a[j + t]
                    a[j] = modadd(u, v, q)
                    a[j + t] = (u - v) * s % q
                j1 += 2 * t
            t <<= 1
            m = h
        n_inv = self.n_inv
        return [x * n_inv % q for x in a]

    # ------------------------------------------------------------------
    # Plain cyclic transforms (omega-based) -- used by tests and by the
    # classic formulation with explicit psi pre/post-scaling.
    # ------------------------------------------------------------------

    def forward_cyclic(self, coeffs: Sequence[int]) -> list[int]:
        """Cyclic NTT: evaluate at powers of ``omega`` (paper Algorithm 1)."""
        a = self._checked_copy(coeffs)
        return _cooley_tukey(a, self.omega, self.q)

    def inverse_cyclic(self, values: Sequence[int]) -> list[int]:
        """Inverse cyclic NTT with ``n^-1`` scaling."""
        a = self._checked_copy(values)
        a = _cooley_tukey(a, self.omega_inv, self.q)
        return [x * self.n_inv % self.q for x in a]

    def negacyclic_multiply(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Multiply two polynomials modulo ``x^n + 1`` via the NTT.

        This is paper Algorithm 2 with the psi factors merged into the
        twiddles: forward both inputs, Hadamard product, inverse.
        """
        fa = self.forward(a)
        fb = self.forward(b)
        q = self.q
        prod = [x * y % q for x, y in zip(fa, fb)]
        return self.inverse(prod)

    def scale_psi(self, coeffs: Sequence[int], inverse: bool = False) -> list[int]:
        """Pointwise multiply by powers of psi (or psi^-1).

        Exposed for the classic Algorithm 2 formulation
        ``NTT((A . psi), omega)`` so tests can confirm both formulations
        agree.
        """
        base = self.psi_inv if inverse else self.psi
        q = self.q
        out = []
        p = 1
        for c in coeffs:
            out.append(c * p % q)
            p = p * base % q
        return out

    def _checked_copy(self, data: Iterable[int]) -> list[int]:
        a = [x % self.q for x in data]
        if len(a) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(a)}")
        return a


def reference_dft(coeffs: Sequence[int], omega: int, q: int) -> list[int]:
    """Quadratic-time cyclic DFT used as the ground truth in tests."""
    n = len(coeffs)
    out = []
    for k in range(n):
        acc = 0
        wk = pow(omega, k, q)
        term = 1
        for j in range(n):
            acc = (acc + coeffs[j] * term) % q
            term = term * wk % q
        out.append(acc)
    return out


def reference_negacyclic_multiply(
    a: Sequence[int], b: Sequence[int], q: int
) -> list[int]:
    """Schoolbook O(n^2) polynomial multiply reduced modulo ``x^n + 1``.

    The wrap-around term enters with a minus sign (negacyclic / negative
    wrapped convolution) — ground truth for the NTT-based product.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("operands must have equal length")
    out = [0] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            k = i + j
            term = ai * bj
            if k < n:
                out[k] = (out[k] + term) % q
            else:
                out[k - n] = (out[k - n] - term) % q
    return out


def _cooley_tukey(a: list[int], root: int, q: int) -> list[int]:
    """In-place iterative cyclic Cooley-Tukey NTT, natural order in and out.

    Structurally equivalent to paper Algorithm 1: log n stages of n/2
    butterflies, each butterfly one multiply + one add + one subtract.
    """
    n = len(a)
    bits = n.bit_length() - 1
    # Decimation in time: consume input in bit-reversed order.
    for i in range(n):
        j = _reverse_bits(i, bits)
        if i < j:
            a[i], a[j] = a[j], a[i]
    length = 2
    while length <= n:
        w_len = pow(root, n // length, q)
        half = length >> 1
        for start in range(0, n, length):
            w = 1
            for j in range(start, start + half):
                u = a[j]
                v = a[j + half] * w % q
                a[j] = modadd(u, v, q)
                a[j + half] = modsub(u, v, q)
                w = w * w_len % q
        length <<= 1
    return a


def _reverse_bits(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result
