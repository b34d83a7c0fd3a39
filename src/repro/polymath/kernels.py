"""The vector kernels: Bailey's four-step NTT as two float64 GEMMs, and
``a mod q`` by one scalar divisor per tower.

CoFHEE runs NTT and iNTT through one butterfly unit from one bank-resident
twiddle table (Section VIII-B, Algorithm 3). This module computes the same
transforms for every vector caller — the batched tower engine over a whole
``(..., L, n)`` stack, the chip model's MDMC over one bank row — with
Bailey's four-step mapping ("FFTs in external or hierarchical memory",
J. Supercomputing 1990), as TensorFHE (Fan et al., HPCA 2023) applies it
to FHE.

For ``n = n1 * n2`` with ``n1 = 2^ceil(log2(n) / 2)``, a row viewed as an
``n1 x n2`` matrix ``X`` transforms as ``((W1 X) o T) W2``, with
``W1[k1, j1] = psi^((2k1+1) n2 j1)`` and ``T[k1, j2] = psi^((2k1+1) j2)``
taken in bit-reversed ``k1`` row order and ``W2[j2, k2] = psi^(2 n1 k2
j2)`` in bit-reversed ``k2`` column order: the result is then already in
:class:`~repro.polymath.ntt.NttContext`'s bit-reversed order. The inverse
is the same three steps on the transposed row, with ``psi^-1`` powers
(:class:`FourStep`). Every matrix is a gather from one forward
``psi``-power table in bit-reversed order, ``psi^e = tab[brv(e mod n)]``,
negated for ``e mod 2n >= n``, so a caller passes the table it holds.

Exactness. Each constant matrix is centred and split into two 15-bit
limbs of magnitude at most ``2^14``, the high one pre-scaled by ``2^15``,
so each matrix step is one ``matmul`` over both limbs whose partial sums
are integers (multiples of ``2^15`` for the high limb) below ``n1 * 2^15
* (q - 1) < 2^53``: exact in float64 whatever the BLAS summation order
(:func:`fits`). The high product is reduced as ``P - rint(P / (q 2^15))
(q 2^15)``, the low one added, and one centred ``rint`` reduction leaves
a residue in ``(-q, q)``; each subtraction is exact (Sterbenz). The
middle twiddle step is the same limb split, elementwise: in float64 it
needs no conversion to or from ``uint64``. Results equal
:class:`~repro.polymath.ntt.NttContext`'s bit for bit.

Layout. :func:`transform` walks a ``(B, L, n)`` stack tower-major: a
chunk is a run of consecutive towers by every batch row that fits in
about :data:`CHUNK_WORDS` words, so GEMM 1 is ``(r x r) (r x c s)`` over
the whole batch rather than one row's ``(r x r) (r x s)``, and a run of
one tower reduces against Python-float moduli, numpy's scalar fast path.

Integer reduction. :func:`mod` is the ``a mod q`` every vector caller
uses (the engine's lazy sums, products and lifts, the MDMC's modular
multiplies). From :data:`MOD_SPLIT_WORDS` words a tower up it is one
scalar ``floor_divide`` per tower, about half the cost of a ``%`` by a
broadcast modulus column; below that, where each numpy call's fixed cost
dominates, it is that one ``%``. Both are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.polymath.bitrev import bit_reverse_indices

#: Widest tower modulus the kernels take: its centred residues, below
#: ``2^29``, split into two limbs of at most ``2^14``.
MAX_MODULUS_BITS = 30

#: Rows of a stack the kernel transforms per pass, in words: bounds its
#: float64 workspace however large the batch is.
CHUNK_WORDS = 1 << 15

_LIMB = 1 << 15

#: Words per tower from which :func:`mod` divides tower by tower. Below
#: it one ``np.remainder`` over the whole stack is faster: measured on a
#: 2-core Xeon host, the per-tower divides take 2-20x as long on
#: ``n = 16`` stacks, and win up to 1.3x at 2,048 contiguous words a
#: tower and 1.5-2x at 4,096.
MOD_SPLIT_WORDS = 2048


def mod(a: np.ndarray, q, out: np.ndarray | None = None) -> np.ndarray:
    """``a mod q``, bit for bit ``np.remainder(a, q)`` (floor semantics).

    ``a`` is ``int64`` or ``uint64``; ``q`` is one positive modulus or an
    ``(L, 1)`` column of them, one per tower on ``a``'s second-to-last
    axis (``a`` broadcasts against it). A tower of at least
    :data:`MOD_SPLIT_WORDS` words is reduced by its own scalar divisor,
    as ``a - floor(a / q) q``: numpy's ``floor_divide`` by a scalar takes
    its precomputed-divisor fast path, which a ``%`` by a broadcast
    column never does. Products wrap mod ``2^64`` like the true values,
    so the result is exact for every input. ``out`` may be ``a``.
    """
    # Words per tower: a column of moduli splits the second-to-last axis.
    # A stack under the threshold as a whole skips that test.
    column = a.size >= MOD_SPLIT_WORDS and np.ndim(q) > 0
    words = a.size // a.shape[-2] if column and a.ndim > 1 else a.size
    if words < MOD_SPLIT_WORDS:
        return np.remainder(a, q, out=out)
    if column:
        a = np.broadcast_to(a, np.broadcast_shapes(a.shape, np.shape(q)))
        towers = [((Ellipsis, i, slice(None)), m)
                  for i, m in enumerate(np.ravel(q).tolist())]
    else:
        towers = [(Ellipsis, q)]
    if out is None:
        out = np.empty(a.shape, a.dtype)
    # The quotient goes to ``out`` itself unless that overwrites ``a``.
    scratch = (np.empty(a[towers[0][0]].shape, a.dtype)
               if np.may_share_memory(a, out) else None)
    for i, m in towers:
        quot = out[i] if scratch is None else scratch
        np.floor_divide(a[i], m, out=quot)
        quot *= m
        np.subtract(a[i], quot, out=out[i])
    return out


def mul_const(a: np.ndarray, c, q) -> np.ndarray:
    """``a * c mod q`` in place, fully reduced, for ``uint64`` residues
    ``a`` and constants ``c`` below a scalar ``q`` of at most
    :data:`MAX_MODULUS_BITS` bits, so the product stays below ``2^60``.

    ``c`` broadcasts against ``a`` (one constant per row): the chip's
    CMODMUL, and its iNTT's ``n^-1`` pass.
    """
    a *= c
    return mod(a, q, out=a)


def split(n: int) -> tuple[int, int]:
    """``(n1, n2)``: the row-matrix shape of a length-``n`` row."""
    n1 = 1 << (n.bit_length() // 2)
    return n1, n // n1


def fits(q: int, n: int) -> bool:
    """Whether the kernel is exact for modulus ``q`` at degree ``n``:
    ``q`` of at most :data:`MAX_MODULUS_BITS` bits and every GEMM partial
    sum, at most ``n1 * 2^15 * (q - 1)``, below ``2^53``."""
    return 1 < q and q.bit_length() <= MAX_MODULUS_BITS and (
        split(n)[0] * _LIMB * (q - 1) < 1 << 53
    )


@dataclass(frozen=True, eq=False)
class FourStep:
    """One direction's constant operands for an ``(L, n)`` tower stack.

    A row is viewed as an ``r x s`` data matrix ``D`` (``X`` forward,
    ``X^T`` inverse) and transformed as ``((left D) o mid) right``. Each
    matrix is held as its two limbs, ``2^15``-scaled high then low, on a
    leading axis: ``left`` is ``(2, L, r, r)``, ``mid`` ``(2, L, r, 1,
    s)`` and ``right`` ``(2, L, s, s)``, all float64; ``q`` is the ``(L,
    1, 1, 1)`` moduli.
    """

    left: np.ndarray
    mid: np.ndarray
    right: np.ndarray
    q: np.ndarray
    inverse: bool

    @classmethod
    def derive(cls, psi_brv: np.ndarray, q, inverse: bool = False,
               scale=None) -> "FourStep":
        """The tables of ``(L, n)`` forward ``psi``-power tables in
        bit-reversed order mod the ``(L,)`` moduli ``q``; an inverse folds
        the ``(L,)`` constants ``scale`` (``n^-1``) into its last matrix."""
        n = psi_brv.shape[-1]
        qc = np.asarray(q, dtype=np.uint64).reshape(-1, 1, 1)
        e_left, e_mid, e_right = _exponents(n)
        if inverse:  # psi^-e, on the transposed row
            e_left, e_mid, e_right = -e_right, -e_mid.T, -e_left
        brv = np.asarray(bit_reverse_indices(n), dtype=np.intp)

        def powers(e):
            e = e % (2 * n)
            w = psi_brv[:, brv[e % n]]
            return np.where(e >= n, qc - w, w) % qc

        right = powers(e_right)
        if scale is not None:
            right = right * np.asarray(scale, np.uint64)[:, None, None] % qc
        tables = cls(
            left=_limbs(powers(e_left), qc),
            mid=_limbs(powers(e_mid), qc)[:, :, :, None, :],
            right=_limbs(right, qc),
            q=qc[..., None].astype(np.float64),
            inverse=inverse,
        )
        for table in (tables.left, tables.mid, tables.right, tables.q):
            table.flags.writeable = False  # shared by every caller
        return tables

    def rows(self, towers: "slice | list[int]") -> "FourStep":
        """The tables of a subset of towers: views of these for a slice."""
        return FourStep(self.left[:, towers], self.mid[:, towers],
                        self.right[:, towers], self.q[towers], self.inverse)


def transform(a: np.ndarray, tables: FourStep) -> np.ndarray:
    """The NTT (``tables.inverse`` false) or the iNTT before any ``n^-1``
    not folded into ``tables``, of residues ``a < q``, fully reduced out.

    ``a`` is an ``(..., L, n)`` ``int64`` or ``uint64`` array, natural
    order in and bit-reversed out forward, the reverse for the inverse.
    The result is written over ``a`` (a copy if ``a`` is not contiguous)
    and returned.

    The stack is walked tower-major with one workspace per call, in
    chunks of about :data:`CHUNK_WORDS` words laid out ``(k, r, c, s)``,
    so each GEMM spans every batch row of its chunk: a run of ``k =
    CHUNK_WORDS // (B n)`` consecutive towers by all ``B`` batch rows,
    with ``(k, 1, 1, 1)`` modulus columns (a stack of short rows goes
    through in one chunk), or, when that is at most one, one tower at a
    time against Python-float moduli, in batch chunks of up to
    ``CHUNK_WORDS // n`` rows.
    """
    out = np.ascontiguousarray(a)
    a = out.reshape(-1, *out.shape[-2:])
    batch, towers, n = a.shape
    r, s = tables.left.shape[-1], tables.right.shape[-1]
    run = min(towers, max(1, CHUNK_WORDS // (batch * n)))
    step = min(batch, max(1, CHUNK_WORDS // n))  # all of it if run > 1
    words = run * step * n
    x, tmp, p = np.empty(words), np.empty(words), np.empty(2 * words)
    for first in range(0, towers, run):
        k = min(run, towers - first)
        # A stack of short rows runs every tower at once, on ``tables``.
        part = tables if k == towers else tables.rows(slice(first, first + k))
        q = float(part.q[0, 0, 0, 0]) if k == 1 else part.q
        inv_q = 1.0 / q
        moduli = (q, q * _LIMB, inv_q, 1.0 / (q * _LIMB))
        for b in range(0, batch, step):
            chunk = a[b : b + step, first : first + k]
            c = len(chunk)
            m = k * c * n
            if tables.inverse:
                rows = chunk.reshape(c, k, s, r).swapaxes(-1, -2)
            else:
                rows = chunk.reshape(c, k, r, s)
            rows = rows.transpose(1, 2, 0, 3)  # (k, r, c, s)
            xs, t = (w[:m].reshape(k, r, c, s) for w in (x, tmp))
            np.copyto(xs, rows)
            hi, lo = p[: 2 * m].reshape(2, k, r, c, s)
            np.matmul(part.left, xs.reshape(k, r, c * s),
                      out=p[: 2 * m].reshape(2, k, r, c * s))
            _reduce(hi, lo, t, xs, moduli)
            np.multiply(xs, part.mid[0], out=hi)
            xs *= part.mid[1]
            _reduce(hi, xs, t, xs, moduli)
            np.matmul(xs.reshape(k, r * c, s), part.right,
                      out=p[: 2 * m].reshape(2, k, r * c, s))
            _reduce(hi, lo, t, xs, moduli)
            np.multiply(xs, inv_q, out=t)  # xs - floor(xs / q) q: [0, q)
            np.floor(t, out=t)
            t *= q
            xs -= t
            np.copyto(rows, xs, casting="unsafe")
    return out


def _reduce(hi, lo, t, out, moduli):
    """``hi + lo``, ``hi`` scaled by ``2^15``, to a residue in ``(-q, q)``,
    into ``out``; ``t`` is scratch."""
    q, qh, inv_q, inv_qh = moduli
    np.multiply(hi, inv_qh, out=t)
    np.rint(t, out=t)
    t *= qh
    hi -= t  # exact: 2^15 times a residue of magnitude <= q/2 + 1
    hi += lo
    np.multiply(hi, inv_q, out=t)
    np.rint(t, out=t)
    t *= q
    return np.subtract(hi, t, out=out)


@lru_cache(maxsize=16)
def _exponents(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward ``psi`` exponents of ``W1``, ``T`` and ``W2``."""
    n1, n2 = split(n)
    k1 = 2 * np.asarray(bit_reverse_indices(n1), dtype=np.int64) + 1
    k2 = np.asarray(bit_reverse_indices(n2), dtype=np.int64)
    j1, j2 = np.arange(n1), np.arange(n2)
    return (np.outer(k1, n2 * j1), np.outer(k1, j2),
            np.outer(2 * n1 * j2, k2))


def _limbs(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Residues ``w`` centred and split into 15-bit limbs: the high limbs
    times ``2^15``, then the low ones, on a new leading axis."""
    c = w.astype(np.int64) - (w > q // np.uint64(2)) * q.astype(np.int64)
    lo = ((c + _LIMB // 2) & (_LIMB - 1)) - _LIMB // 2
    return np.stack(((c - lo).astype(np.float64), lo.astype(np.float64)))
