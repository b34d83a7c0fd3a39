"""The NTT stage kernels: one butterfly datapath for every vector caller.

CoFHEE runs NTT and iNTT through one butterfly unit from one bank-resident
twiddle table (Section VIII-B, Algorithm 3). This module is that datapath
in numpy, run by the batched tower engine over a whole tower stack and by
the chip model's MDMC over one bank row: :func:`dit` (Cooley-Tukey,
natural order in, bit-reversed out), :func:`dif` (Gentleman-Sande before
the ``n^-1`` pass, bit-reversed in, natural out) and the 32-bit Shoup
product :func:`shoup_into` both use.

Arrays are ``uint64`` shaped ``(..., L, n)``: row ``i`` holds residues
mod ``q[i]`` for an ``(L, 1)`` modulus column ``q`` (a scalar for one
row). The kernels work in place and consume their input. A stage holds
its butterfly inputs as two contiguous halves, top operands then bottom
operands in butterfly order, and writes its outputs straight into the
next stage's halves in a second buffer; the two buffers ping-pong like
the chip's banks (:func:`_next_halves`). Stage ``k`` has ``m = 2^k``
twiddle blocks of ``t = n / 2m`` butterflies; each half is viewed
block-major, ``(m, t)``, while ``m <= t`` and block-minor, ``(t, m)``,
after (:func:`half_shape`), so every numpy loop runs at least
``sqrt(n / 2)`` long.

``stages[k]`` is stage ``k``'s ``(w, w_shoup)`` twiddle pair: any arrays
that broadcast against its half, so each caller keeps its own table
layout. The engine passes :func:`stage_twiddles` views of one compact
``(L, n)`` table; the MDMC expands them per stage for its single row.

Values stay lazily reduced below ``4q`` between stages (Harvey's
butterfly) and are multiplied by Shoup companions
``floor(w * 2^32 / q)``, so ``4q`` must fit 32 bits: moduli of at most
:data:`MAX_MODULUS_BITS` bits. Every ``uint64`` product is then exact,
and the results equal :class:`~repro.polymath.ntt.NttContext`'s bit for
bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Widest tower modulus the kernels take: ``4q < 2^32``.
MAX_MODULUS_BITS = 30

#: Shift width of the Shoup companions.
SHOUP_SHIFT = np.uint64(32)

#: One stage's ``(w, w_shoup)`` twiddle pair.
Stage = tuple[np.ndarray, np.ndarray]


def shoup_into(x, w, w_shoup, q, out, tmp) -> None:
    """``out = w * x mod q`` into ``[0, 2q)`` (Shoup; ``x < 2^32``).

    The estimate ``floor(x * w_shoup / 2^32)`` undershoots the quotient
    by at most one, so ``x * w - estimate * q`` lands in ``[0, 2q)``; the
    ``uint64`` products wrap mod 2^64 but the difference fits, so it is
    exact. ``tmp`` is scratch of ``out``'s shape.
    """
    np.multiply(x, w_shoup, out=tmp)
    tmp >>= SHOUP_SHIFT
    tmp *= q
    np.multiply(x, w, out=out)
    out -= tmp


def mul_const(a: np.ndarray, c, q) -> np.ndarray:
    """``a * c mod q`` in place, fully reduced (``a < 2^32``, ``c < q``).

    ``c`` is ``uint64`` and broadcasts like ``q`` (one constant per row):
    the iNTT's ``n^-1`` pass and the chip's CMODMUL.
    """
    tmp = np.empty_like(a)
    shoup_into(a, c, (c << SHOUP_SHIFT) // q, q, a, tmp)  # < 2q
    np.subtract(a, q, out=tmp)
    return np.minimum(a, tmp, out=a)


def stage_twiddles(w: np.ndarray, q) -> list[Stage]:
    """Per-stage ``(w, w_shoup)`` views of one compact bit-reversed table.

    ``w`` is ``(..., n)``: ``NttContext``'s ``_psi_brv`` (forward) or
    ``_ipsi_brv`` (inverse) per row; stage ``k`` reads entries
    ``[m, 2m)`` and broadcasts them across each block's butterflies.
    """
    n = w.shape[-1]
    w_shoup = (w << SHOUP_SHIFT) // q
    stages = []
    for k in range(n.bit_length() - 1):
        m = 1 << k
        axis = -2 if _column(k, n) else -1
        stages.append((
            np.expand_dims(w[..., m : 2 * m], axis),
            np.expand_dims(w_shoup[..., m : 2 * m], axis),
        ))
    return stages


def half_shape(k: int, n: int) -> tuple[int, int]:
    """The shape stage ``k`` views each ``n / 2``-word half in."""
    m = 1 << k
    t = n // (2 * m)
    return (t, m) if _column(k, n) else (m, t)


def dit(a: np.ndarray, q, stages: Sequence[Stage]) -> np.ndarray:
    """Cooley-Tukey DIT over residues ``a < q``, fully reduced out.

    Natural order in, bit-reversed order out, with the ``psi``-power
    twiddles of :func:`stage_twiddles`; ``a`` is consumed.
    """
    lead, n = a.shape[:-1], a.shape[-1]
    h = n // 2
    q2 = 2 * q
    qb = np.expand_dims(q, -1)  # broadcasts against a (..., L, r, c) half
    x, y = a, np.empty_like(a)
    v, tmp = np.empty(lead + (h,), np.uint64), np.empty(lead + (h,), np.uint64)
    for k, (wk, wk_shoup) in enumerate(stages):
        shape = lead + half_shape(k, n)
        u = x[..., :h]
        shoup_into(x[..., h:].reshape(shape), wk, wk_shoup, qb,
                   v.reshape(shape), tmp.reshape(shape))  # < 2q
        np.subtract(u, q2, out=tmp)
        np.minimum(u, tmp, out=u)  # < 2q
        top_out, bottom_out, src = _next_halves(y, k)
        us, vs = u.reshape(src), v.reshape(src)
        np.add(us, vs, out=top_out)  # < 4q
        u += q2
        np.subtract(us, vs, out=bottom_out)  # < 4q
        x, y = y, x
    np.subtract(x, q2, out=y)
    np.minimum(x, y, out=x)
    np.subtract(x, q, out=y)
    return np.minimum(x, y, out=x)


def dif(a: np.ndarray, q, stages: Sequence[Stage]) -> np.ndarray:
    """Gentleman-Sande DIF over residues ``a < q``, before ``n^-1``.

    Bit-reversed order in, natural order out, values below ``2q``, with
    the ``psi^-1``-power twiddles of :func:`stage_twiddles`; ``a`` is
    consumed. The stages run in reverse (blocks halve, butterfly spans
    double), each gathering its input halves back out of the layout
    :func:`dit` would have written.
    """
    lead, n = a.shape[:-1], a.shape[-1]
    h = n // 2
    q2 = 2 * q
    qb = np.expand_dims(q, -1)
    # The last stage pairs neighbours: de-interleave them into halves.
    x = np.ascontiguousarray(
        a.reshape(lead + (h, 2)).swapaxes(-1, -2)
    ).reshape(a.shape)
    y = np.empty_like(x)
    d, tmp = np.empty(lead + (h,), np.uint64), np.empty(lead + (h,), np.uint64)
    for k in range(len(stages) - 1, -1, -1):
        wk, wk_shoup = stages[k]
        half = half_shape(k, n)
        shape = lead + half
        u, b = x[..., :h], x[..., h:]
        np.add(u, q2, out=d)
        d -= b  # u - b + 2q < 4q
        u += b
        np.subtract(u, q2, out=tmp)
        np.minimum(u, tmp, out=u)  # < 2q
        bottom = x.reshape(lead + (2,) + half)[..., 1, :, :]  # b, as a view
        shoup_into(d.reshape(shape), wk, wk_shoup, qb, bottom,
                   tmp.reshape(shape))  # < 2q
        if k == 0:
            return x  # one block: the halves are the natural order
        top_in, bottom_in, src = _next_halves(x, k - 1)
        np.copyto(y[..., :h].reshape(src), top_in)
        np.copyto(y[..., h:].reshape(src), bottom_in)
        x, y = y, x
    return x


def _column(k: int, n: int) -> bool:
    """Whether stage ``k`` lays its halves out block-minor, ``(t, m)``."""
    return 1 << (2 * k + 1) > n


def _next_halves(buf: np.ndarray, k: int):
    """Where the outputs of stage ``k`` land in ``buf``.

    Returns ``(top, bottom, shape)``: views of ``buf`` receiving the
    stage's top and bottom outputs once its flat halves are reshaped to
    ``shape``, arranged as the input halves of stage ``k + 1``.
    ``buf`` is a contiguous ``(..., n)`` array; leading axes ride along.
    """
    lead, n = buf.shape[:-1], buf.shape[-1]
    m = 1 << k
    t = n // (2 * m)
    if t == 1:  # last stage: outputs interleave in natural order
        pairs = buf.reshape(lead + (n // 2, 2))
        return pairs[..., 0], pairs[..., 1], lead + (n // 2,)
    if _column(k + 1, n):
        # Next inputs are (t/2, 2m) halves whose block 2i + c is block i
        # of this stage's top (c = 0) or bottom (c = 1) output.
        cols = buf.reshape(lead + (2, t // 2, m, 2))
        top, bottom = cols[..., 0], cols[..., 1]
        if _column(k, n):
            return top, bottom, lead + (2, t // 2, m)
        return (np.moveaxis(top, -1, -3), np.moveaxis(bottom, -1, -3),
                lead + (m, 2, t // 2))
    quads = buf.reshape(lead + (2, m, 2, t // 2))
    return (
        quads[..., 0, :].swapaxes(-3, -2),
        quads[..., 1, :].swapaxes(-3, -2),
        lead + (m, 2, t // 2),
    )
