"""The vector kernels: one exact C butterfly kernel for the NTT and iNTT,
and ``a mod q`` by one scalar divisor per tower.

CoFHEE runs NTT and iNTT through one butterfly unit from one bank-resident
twiddle table (Section VIII-B, Algorithm 3). ``ntt.c`` runs them for the
batched tower engine (a whole ``(..., L, n)`` stack) and the chip model's
MDMC (one bank row) as Longa and Naehrig's merged-``psi`` Cooley–Tukey
forward and Gentleman–Sande inverse (CANS 2016): the loops of
:class:`~repro.polymath.ntt.NttContext` on ``uint32`` words with 32-bit
Shoup products, every word back in ``[0, q)`` after each butterfly, so
the results are its bit for bit.

It compiles at first import with ``gcc`` :data:`CFLAGS` into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), named by a hash
of the source, the flags, ``gcc --version`` and the CPU flags, and loads
through cffi's ABI mode. A build goes to a temporary file renamed into
place, so processes importing at once never load a half-written library.
Without a working ``gcc`` the import raises :class:`ImportError`.

:func:`mod` is the ``a mod q`` every vector caller uses (the engine's lazy
sums, products and lifts, the MDMC's modular multiplies). From
:data:`MOD_SPLIT_WORDS` words a tower up it is one scalar ``floor_divide``
per tower, about half the cost of a ``%`` by a broadcast modulus column;
below that, where each numpy call's fixed cost dominates, it is that one
``%``. Both are bit-identical.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import cffi
import numpy as np

from repro.polymath.bitrev import bit_reverse_indices

#: Widest tower modulus the kernels take: a butterfly's sum and a Shoup
#: product's ``[0, 2q)`` remainder stay below ``2^31``.
MAX_MODULUS_BITS = 30

#: Words per tower from which :func:`mod` divides tower by tower. Below
#: it one ``np.remainder`` over the whole stack is faster: measured on a
#: 2-core Xeon host, the per-tower divides take 2-20x as long on
#: ``n = 16`` stacks, and win up to 1.3x at 2,048 contiguous words a
#: tower and 1.5-2x at 4,096.
MOD_SPLIT_WORDS = 2048

#: How ``ntt.c`` is compiled.
CFLAGS = ("-O3", "-march=native", "-shared", "-fPIC")


def _gcc(*args: str) -> bytes:
    try:
        return subprocess.run(("gcc", *args), capture_output=True,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or str(exc).encode()
        raise ImportError(
            "repro.polymath.kernels compiles its NTT kernel with gcc at "
            f"first import, and `gcc {' '.join(args)}` failed: "
            + detail.decode(errors="replace").strip()
        ) from exc


def _library() -> str:
    """The compiled kernel's path, building it if it is not cached."""
    source = Path(__file__).with_name("ntt.c")
    try:
        info = Path("/proc/cpuinfo").read_bytes().splitlines()
    except OSError:
        info = [os.uname().machine.encode()]
    cpu = next((line for line in info if line.startswith(b"flags")), info[0])
    key = hashlib.sha256(b"\0".join((
        source.read_bytes(), " ".join(CFLAGS).encode(), _gcc("--version"),
        cpu,
    ))).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "repro"
    library = cache / f"ntt-{key}.so"
    if not library.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(".so", ".ntt-", cache)
        os.close(fd)
        try:
            _gcc(*CFLAGS, "-o", partial, str(source))
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    return str(library)


_ffi = cffi.FFI()
_ffi.cdef("void ntt(uint32_t *, size_t, size_t, size_t, const uint32_t *,"
          " const uint32_t *, const uint32_t *, const uint32_t *,"
          " const uint32_t *, int);")
_lib = _ffi.dlopen(_library())


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


def fits(q: int) -> bool:
    """Whether the kernel takes modulus ``q``."""
    return 1 < q and q.bit_length() <= MAX_MODULUS_BITS


@dataclass(frozen=True, eq=False)
class NttTables:
    """One direction's tables for an ``(L, n)`` tower stack, read-only
    ``uint32``: the twiddles ``w`` in the order the kernel reads them
    (``w[m + i]`` for block ``i`` of an ``m``-block stage) and their
    Shoup quotients ``w_shoup = floor(w 2^32 / q)``, ``(L, n)``; the
    moduli ``q``, the inverse's closing constants ``scale`` (1 for none)
    and ``scale_shoup``, ``(L,)``."""

    w: np.ndarray
    w_shoup: np.ndarray
    q: np.ndarray
    scale: np.ndarray
    scale_shoup: np.ndarray
    inverse: bool

    @classmethod
    def derive(cls, psi_brv: np.ndarray, q, inverse: bool = False,
               scale=None) -> "NttTables":
        """The tables of ``(L, n)`` forward ``psi``-power tables in
        bit-reversed order mod the ``(L,)`` moduli ``q``; an inverse ends
        with a multiply by the ``(L,)`` constants ``scale`` (``n^-1``).
        Its twiddles ``psi^-brv(k)`` are ``q - F[brv(n - brv(k))]``
        (``psi^n = -1``), as the MDMC's address generator derives them."""
        qc = np.asarray(q, dtype=np.uint64).reshape(-1, 1)
        w = np.asarray(psi_brv, dtype=np.uint64) % qc
        if inverse:
            brv = np.asarray(bit_reverse_indices(w.shape[-1]), dtype=np.intp)
            w = qc - w[:, brv[-brv]]  # brv(n - brv(k)) mod n
            w[:, 0] = 1
        scale = np.ones(len(qc), np.uint64) if scale is None else (
            np.asarray(scale, dtype=np.uint64) % qc[:, 0])
        tables = cls(*(x.astype(np.uint32) for x in (
            w, (w << np.uint64(32)) // qc, qc[:, 0], scale,
            (scale << np.uint64(32)) // qc[:, 0],
        )), inverse=inverse)
        for table in tables._arrays:
            table.flags.writeable = False  # shared by every caller
        return tables

    @property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.w, self.w_shoup, self.q, self.scale, self.scale_shoup

    def rows(self, towers: "slice | list[int]") -> "NttTables":
        """The tables of a subset of towers: views of these for a slice."""
        return NttTables(*(x[towers] for x in self._arrays), self.inverse)

    @cached_property
    def _pointers(self) -> tuple:
        return tuple(_ffi.from_buffer("uint32_t[]", np.ascontiguousarray(x))
                     for x in self._arrays)


def transform(a: np.ndarray, tables: NttTables) -> np.ndarray:
    """The NTT (``tables.inverse`` false) or the iNTT, ending with
    ``tables.scale``, of residues ``a < q``, fully reduced out.

    ``a`` is an ``(..., L, n)`` ``int64`` or ``uint64`` array over
    ``tables``' ``L`` towers, natural order in and bit-reversed out
    forward, the reverse for the inverse. The result is written over
    ``a`` (a copy if ``a`` is not contiguous) and returned.
    """
    out = np.ascontiguousarray(a)
    towers, n = out.shape[-2:]
    # The kernel walks a power-of-two row and its tables by shape.
    if tables.w.shape != (towers, n) or n & (n - 1):
        raise ValueError(f"{out.shape} stack, {tables.w.shape} tables")
    words = out.astype(np.uint32)
    _lib.ntt(_ffi.from_buffer("uint32_t[]", words), words.size // n, towers,
             n, *tables._pointers, tables.inverse)
    np.copyto(out, words)
    return out
