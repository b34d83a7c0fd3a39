"""The residue kernels: one C file, ``ntt.c``, of exact ``uint32``
passes on towers of at most :data:`MAX_MODULUS_BITS` bits, shared by the
batched tower engine and the chip model's MDMC, as CoFHEE runs its NTT,
Hadamard product and constant multiply on one datapath (Section VIII-B).

:func:`transform` is Longa and Naehrig's merged-``psi`` NTT (CANS 2016),
the loops of :class:`~repro.polymath.ntt.NttContext`, with Harvey's lazy
butterflies and, on AVX-512, 16-word vector stages. Around it run
:func:`reduce` (``a mod q`` of any 64-bit word, times a constant),
:func:`multiply` (the Hadamard product), :func:`tensor` (Eq. 4),
:func:`keyswitch` and :func:`garner` (mixed-radix digits), with
per-tower constants from a :class:`Moduli`. A product by a
constant is a 32-bit Shoup product (Harvey, J. Symb. Comp. 2014), one of
two residues a Barrett reduction with a 32x32->64 quotient estimate; on
AVX-512 each runs 16 words at a time on ``vpmuludq`` products, other
targets run them word by word. No accumulator reaches :data:`ACC_BOUND`
times the modulus and every output is fully reduced: the exact integer
results. A :class:`Replay` is the MDMC's stream of NTT and pointwise
commands over its bank rows, compiled once and run in one call.

Each change of representation on the served RNS path is one kernel that
writes straight into the buffer its consumer reads, carrying 16
coefficients at a time through all its steps: :func:`centre` (wire
words to centred residues, every operand of a tensor at once),
:func:`scale_round` (Eq. 4's ``round(t c / q)``, Halevi, Polyakov and
Shoup's RNS rounding made exact), :func:`digits` (canonical
coefficients to key-switch digits) and :func:`pack` / :func:`words`
(towers to wire bytes or words). ``scale_round``'s float64 estimate
rounds as numpy's expression does, one rounding per operation, which
``-ffp-contract=off`` keeps gcc from fusing into FMAs; the columns it
finds near a half go back to the caller's exact Python-int rounding.

The file compiles at first import with ``gcc`` :data:`CFLAGS` into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``), named by a hash
of the source, the flags, ``gcc --version`` and the CPU flags, and loads
through cffi's ABI mode. A build goes to a temporary file renamed into
place, so processes importing at once never load a half-written library.
Each load touches its build, and a new build deletes all but the
:data:`KEEP_BUILDS` most recently used. Without a working ``gcc`` the
import raises :class:`ImportError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from pathlib import Path

import cffi
import numpy as np

from repro.polymath.bitrev import bit_reverse_indices

#: Widest tower modulus the kernels take: a butterfly's sum, a Shoup
#: product's ``[0, 2q)`` remainder and a lazy sum stay in 32-bit words.
MAX_MODULUS_BITS = 30

#: Every accumulator the kernels keep is below ``ACC_BOUND * q``: a lazy
#: sum below ``2q`` plus a Shoup product below ``2q``, or a Barrett
#: remainder below ``3q``. With ``q < 2^30`` that is one 32-bit word.
ACC_BOUND = 4

#: How ``ntt.c`` is compiled: ``-ffp-contract=off`` keeps every float64
#: operation of ``scale_round`` rounded once, as numpy rounds it.
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


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


#: How many builds the cache keeps, the most recently loaded: checkouts
#: of different sources sharing one cache each keep theirs.
KEEP_BUILDS = 4


def _library(source: Path = Path(__file__).with_name("ntt.c")) -> str:
    """The path of ``source`` compiled, building it if it is not cached."""
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
    try:
        os.utime(library)  # touched on load: the cache keeps the latest used
        return str(library)
    except FileNotFoundError:
        pass
    except OSError:  # a build this process may not touch still loads
        return str(library)
    cache.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(".so", ".ntt-", cache)
    os.close(fd)
    try:
        _gcc(*CFLAGS, "-o", partial, str(source))
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    # Only the builds loaded longest ago go; a process running one keeps
    # its mapping.
    builds = []
    for build in cache.glob("ntt-*.so"):
        try:
            builds.append((build.stat().st_mtime, build))
        except FileNotFoundError:
            pass  # pruned by another process
    for _, stale in sorted(builds, reverse=True)[KEEP_BUILDS:]:
        stale.unlink(missing_ok=True)
    return str(library)


_ffi = cffi.FFI()
# The declarations come from the source: its record types, its opcodes and
# every function.
_ffi.cdef(";".join(re.findall(
    r"^typedef struct \{.*?\} \w+|^enum \w+ \{.*?\}|^(?:void|int|size_t) \w+\([^)]*\)",
    Path(__file__).with_name("ntt.c").read_text(), re.M | re.S,
)) + ";")
_lib = _ffi.dlopen(_library())


def fits(q: int) -> bool:
    """Whether the kernel takes modulus ``q``."""
    return 1 < q and q.bit_length() <= MAX_MODULUS_BITS


@dataclass(frozen=True, eq=False)
class NttTables:
    """One direction's tables for an ``(L, n)`` tower stack, read-only
    ``uint32``: the twiddles ``w`` in the order the kernel reads them
    (:func:`_kernel_order` of ``w[m + i]`` for block ``i`` of an
    ``m``-block stage) and their Shoup quotients ``w_shoup = floor(w
    2^32 / q)``, ``(L, n)``; the moduli ``q``, the inverse's closing
    constants ``scale`` (1 for none) and ``scale_shoup``, ``(L,)``."""

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
        w = w[:, _kernel_order(w.shape[-1])]
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
        return tuple(_ffi.from_buffer("uint32_t[]", _words(x))
                     for x in self._arrays)


@lru_cache(maxsize=16)
def _kernel_order(n: int) -> np.ndarray:
    """Where the kernel reads each twiddle: position ``k`` of its table
    holds ``w[order[k]]`` (``ntt.c``'s ``slot``: from ``n = 256`` the
    narrow stages' twiddles by tiles of 16 blocks, then the wide
    stages'). A degree that is not a power of two keeps its order."""
    order = np.arange(n) if n & (n - 1) else _call(
        "ntt_order", np.empty(n, np.uint64), n)
    order.flags.writeable = False
    return order


def _words(a) -> np.ndarray:
    """``a`` as a C-contiguous ``uint32`` array: itself when it is one."""
    return np.ascontiguousarray(a, dtype=np.uint32)


#: The pointer types of 8-, 32- and 64-bit words, by item size.
_BUFFERS = {1: _ffi.typeof("uint8_t[]"), 4: _ffi.typeof("uint32_t[]"),
            8: _ffi.typeof("uint64_t[]")}

#: A new ``bytes`` object of a size, whose contents a kernel writes before
#: anything else sees it (CPython's ``PyBytes_FromStringAndSize(NULL,
#: size)``): a packed polynomial is built in the object it is kept in.
_new_bytes = ctypes.pythonapi.PyBytes_FromStringAndSize
_new_bytes.restype = ctypes.py_object
_new_bytes.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t)


def _run(kernel: str, *args):
    """``kernel``'s result on ``args``: contiguous arrays go by pointer
    (64- or 32-bit words), ``None`` as ``NULL``, anything else as it is."""
    return getattr(_lib, kernel)(*(
        _ffi.NULL if a is None else a if not isinstance(a, np.ndarray)
        else _ffi.from_buffer(_BUFFERS[a.itemsize], a)
        for a in args
    ))


def _call(kernel: str, out: np.ndarray, *args) -> np.ndarray:
    """Run ``kernel`` into ``out``, as :func:`_run` passes arguments."""
    _run(kernel, out, *args)
    return out


def transform(a: np.ndarray, tables: NttTables) -> np.ndarray:
    """The NTT (``tables.inverse`` false) or the iNTT, ending with
    ``tables.scale``, of an ``(..., L, n)`` stack of residues over
    ``tables``' towers: natural order in and bit-reversed out forward,
    the reverse for the inverse. Words may exceed their tower's ``q``:
    the forward takes any below ``4q``, the inverse any below ``2q``
    (Harvey's lazy bounds, which the kernel keeps between stages); the
    results are fully reduced. A C-contiguous ``uint32`` stack is
    transformed in place; any other is copied into one first."""
    out = _words(a)
    towers, n = out.shape[-2:]
    # The kernel walks a power-of-two row and its tables by shape.
    if tables.w.shape != (towers, n) or n & (n - 1):
        raise ValueError(f"{out.shape} stack, {tables.w.shape} tables")
    return _call("ntt", out, out.size // n, towers, n, *tables._pointers,
                 tables.inverse)


@dataclass(frozen=True, eq=False)
class Moduli:
    """The pointwise kernels' constants for a tuple of :func:`fits`
    moduli, shared per tuple (:meth:`of`): per tower a ``modulus_t``
    record of ``q``, its bit length ``b``, ``floor(2^2b / q)``, the Shoup
    quotient of 1, ``2^32 mod q`` and its quotient, and ``2^64 mod q``."""

    moduli: tuple[int, ...]

    @staticmethod
    @lru_cache(maxsize=256)
    def of(moduli: tuple[int, ...]) -> "Moduli":
        return Moduli(tuple(moduli))

    @cached_property
    def width(self) -> int:
        """32-bit words of a value below the moduli's product."""
        return -(-prod(self.moduli).bit_length() // 32)

    @cached_property
    def q(self) -> np.ndarray:
        """The ``(L, 1)`` ``uint32`` column of moduli."""
        return _words(self.moduli)[:, None]

    @cached_property
    def _records(self):
        return _ffi.from_buffer("modulus_t[]", _words([
            (q, q.bit_length(), (1 << 2 * q.bit_length()) // q,
             (1 << 32) // q, (1 << 32) % q, ((1 << 32) % q << 32) // q,
             (1 << 64) % q, 0)
            for q in self.moduli
        ]))

    def constants(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Integers of any size and sign, tower axis first (``(L,)`` or
        ``(L, K)``), as ``uint32`` residues mod their tower and their
        Shoup quotients ``floor(w 2^32 / q)``."""
        w = np.asarray(values, dtype=object)
        q = np.asarray(self.moduli, dtype=object).reshape(-1, *[1] * (w.ndim - 1))
        w = w % q
        return _words(w), _words((w << 32) // q)

    @lru_cache(maxsize=64)
    def times(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`constants` of the integer ``c`` on every tower."""
        return self.constants([c] * len(self.moduli))


def reduce(a, mods: Moduli, scale=None) -> np.ndarray:
    """``a mod q`` times ``scale`` (:meth:`Moduli.constants` of one per
    tower, 1 by default), as a fresh ``uint32`` stack: ``a`` is ``int64``
    or ``uint64`` words (other integer dtypes are read as ``int64``),
    broadcast against ``(L, n)``."""
    a = np.asarray(a)
    a = np.ascontiguousarray(np.broadcast_to(
        a if a.dtype == np.uint64 else a.astype(np.int64, copy=False),
        np.broadcast_shapes(a.shape, (len(mods.moduli), 1)),
    ))
    return _call("reduce", np.empty(a.shape, np.uint32), a,
                 a.size // a.shape[-1], len(mods.moduli), a.shape[-1],
                 a.dtype == np.int64, *(scale or mods.times(1)), mods._records)


def multiply(a, b, mods: Moduli) -> np.ndarray:
    """The pointwise product ``a b mod q`` of two ``(..., L, n)`` residue
    stacks, row ``r`` on tower ``r mod L`` (the Hadamard product)."""
    a, b = _words(a), _words(b)
    if a.shape != b.shape:
        raise ValueError(f"{a.shape} and {b.shape} operands")
    return _call("multiply", np.empty_like(a), a, b, a.size // a.shape[-1],
                 len(mods.moduli), a.shape[-1], mods._records)


def tensor(f: np.ndarray, mods: Moduli, out=None) -> np.ndarray:
    """The Eq. 4 tensor of NTT-domain operands, ``(4, L, n)`` ``a0, a1,
    b0, b1`` or ``(2, L, n)`` ``a0, a1`` squared: one ``(3, L, n)`` stack
    ``y0, y1, y2`` with ``y1 = a0 b1 + a1 b0``, into ``out`` (a new
    array by default), which may be the first three rows of ``f``."""
    f = _words(f)
    shape = (3, *f.shape[1:])
    if f.shape[:2] not in ((4, len(mods.moduli)), (2, len(mods.moduli))) or (
            out is not None and (out.shape != shape or out.dtype != np.uint32
                                 or not out.flags.c_contiguous)):
        raise ValueError(f"{f.shape} operands for {len(mods.moduli)} towers")
    return _call("tensor", np.empty(shape, np.uint32) if out is None else out,
                 f, *f.shape[1:], len(f) == 2, mods._records)


def keyswitch(x: np.ndarray, key: np.ndarray, mods: Moduli) -> np.ndarray:
    """The ``(2, J, L, n)`` residues of ``sum_d x[:, d] key[s, d]``, ``s``
    in ``0, 1``, for ``(J, D, L, n)`` NTT-domain digits and ``(2, D, L,
    n)`` key rows: the key-switch inner product."""
    x, key = _words(x), _words(key)
    jobs, digits, towers, n = x.shape
    if key.shape != (2, digits, towers, n) or towers != len(mods.moduli):
        raise ValueError(f"{x.shape} digits, {key.shape} key rows")
    return _call("keyswitch", np.empty((2, jobs, towers, n), np.uint32), x,
                 key, *x.shape, mods._records)


def garner(a, c, mods: Moduli) -> np.ndarray:
    """Garner's mixed-radix digits ``d_k = (a_k c_kk + sum_{i<k} d_i
    c_ki) mod q_k`` of a ``(B, L, n)`` residue stack, ``c`` the
    :meth:`Moduli.constants` of an ``(L, L)`` table."""
    a = _words(a)
    if c[0].shape != (a.shape[1],) * 2 or a.shape[1] != len(mods.moduli):
        raise ValueError(f"{a.shape} stack, {c[0].shape} constants")
    return _call("garner", np.empty_like(a), a, *a.shape, *c, mods._records)


def centre(out, words, half, radix, lift, mods: Moduli) -> None:
    """Wire words to centred residues, every operand in one call: each
    ``out[p]`` (``(L, n)``, C-contiguous ``uint32``) takes the residues
    of ``c - Q`` where ``c > floor(Q/2)``, else of ``c``, for the
    coefficients ``c`` in ``[0, Q)`` whose ``W`` big-endian 32-bit words
    the ``(W, n)`` ``words[p]`` holds, ``half`` the ``(W,)`` words of
    ``floor(Q/2)``. ``radix`` is the :meth:`Moduli.constants` of ``2^(32
    (W - 1 - k))`` per tower and word, ``lift`` the ``(L,)`` residues of
    ``-Q``."""
    width, n = np.shape(words[0])
    words, half, lift = [_words(w) for w in words], _words(half), _words(lift)
    if (len(out) != len(words) or radix[0].shape != (len(mods.moduli), width)
            or half.shape != (width,) or lift.shape != (len(mods.moduli),)
            or any(w.shape != (width, n) for w in words)
            or any(o.shape != (len(mods.moduli), n) or o.dtype != np.uint32
                   or not o.flags.c_contiguous for o in out)):
        raise ValueError(f"{len(words)} operands of {(width, n)} words")
    buffers = [[_ffi.from_buffer(_BUFFERS[4], a) for a in arrays]
               for arrays in (out, words)]
    _run("centre", *(_ffi.new("uint32_t *[]", b) for b in buffers),
         len(words), width, len(mods.moduli), n, half, *radix, lift,
         mods._records)


def scale_round(a, head: int, t: int, table, tq, mods: Moduli):
    """Eq. 4's RNS scale-and-round of a ``(B, L, n)`` residue stack of
    centred values ``c`` on ``mods``' towers, q's ``head`` towers first:
    the ``(B, head, n)`` residues of ``round(t c / q)``, and the flat
    indices ``b n + j`` of the columns within ``t 2^-40`` of a half,
    whose residues are not exact. ``table`` is the pair of ``ntt.c``'s
    constants table (see ``scale_round`` there), ``tq`` the
    :meth:`Moduli.constants` of ``t`` on q's towers; ``t < 2^32``."""
    a = _words(a)
    batch, towers, n = a.shape
    ext = towers - head
    if (towers != len(mods.moduli) or not 0 < head < towers or t >> 32
            or table[0].shape != (head * (head + 1) + ext * (
                head + 1 + ext + head),) or tq[0].shape != (head,)):
        raise ValueError(f"{a.shape} stack, {head} of {len(mods.moduli)} "
                         f"towers, t = {t}")
    out = np.empty((batch, head, n), np.uint32)
    near = np.empty(batch * n, np.uint32)
    found = _run("scale_round", out, near, a, batch, head, ext, n, t,
                 *table, *tq, mods._records)
    return out, near[:found]


def digits(out, rows, bits: int, radix, mods: Moduli, garner=None) -> None:
    """The base-``2^bits`` digits of canonical coefficients, each reduced
    mod every tower, into the ``(D, L, n)`` ``out``: of the ``(L, n)``
    residues ``rows`` on ``mods``' towers, given Garner's ``garner``
    constants, else of the ``(W, n)`` big-endian 32-bit words ``rows``.
    ``radix`` is the :meth:`Moduli.constants` of ``2^(32 (C - 1 - k))``
    per tower and 32-bit chunk ``k`` of ``C`` in a digit."""
    rows, towers = _words(rows), len(mods.moduli)
    width, n = (mods.width, rows.shape[1]) if garner else rows.shape
    if (out.shape[1:] != (towers, n) or out.dtype != np.uint32
            or not out.flags.c_contiguous
            or radix[0].shape != (towers, -(-bits // 32))
            or garner and rows.shape[0] != towers):
        raise ValueError(f"{out.shape} digits of {bits} bits, {rows.shape} "
                         "rows")
    _run("digits", out, rows if garner else None, None if garner else rows,
         width, towers, n, bits, len(out), *(garner or (None, None)), *radix,
         mods._records)


def pack(a, width: int, garner, mods: Moduli) -> bytes:
    """The canonical coefficients of ``(L, n)`` residues ``a`` on
    ``mods``' towers (Garner's ``garner`` constants) as ``n`` big-endian
    integers of ``width`` bytes each, written straight into the bytes."""
    a = _check_pack(a, -(-width // 4), mods)
    data = _new_bytes(None, a.shape[1] * width)
    _run("pack", _ffi.from_buffer(_BUFFERS[1], data), None, a, *a.shape,
         width, *garner, mods._records)
    return data


def words(a, count: int, garner, mods: Moduli) -> np.ndarray:
    """:func:`pack`'s integers as ``count`` 32-bit words each, top first:
    the ``(count, n)`` ``uint32`` array."""
    a = _check_pack(a, count, mods)
    out = np.empty((count, a.shape[1]), np.uint32)
    _run("pack", None, out, a, *a.shape, 4 * count, *garner, mods._records)
    return out


def _check_pack(a, count: int, mods: Moduli) -> np.ndarray:
    """``a`` as residues on ``mods``' towers whose values ``count`` words
    hold."""
    a = _words(a)
    if a.ndim != 2 or len(a) != len(mods.moduli) or count < mods.width:
        raise ValueError(f"{a.shape} residues in {count} words")
    return a


#: The replay's opcodes with a second operand row.
_BINARY = ("PMODMUL", "PMODADD", "PMODSUB")


class Replay:
    """A stream of MDMC commands compiled for ``ntt.c``'s ``replay``,
    which runs it in one call: its hazard ``levels`` in order, each a
    list of groups ``(opcode, x, y, out, tables, constants)``, an
    :class:`~repro.core.isa.Opcode` name (``NTT``, ``INTT``, ``PMODMUL``,
    ``PMODSQR``, ``PMODADD``, ``PMODSUB``, ``CMODMUL``) over rows of
    ``n`` words mod one modulus ``q``. Rows are ``(array, start)`` pairs
    of 1-D ``uint64`` arrays (an MDMC's banks): ``x`` and ``y`` (empty
    for one operand) are read mod ``q``, whatever their words, and
    ``out`` takes the results once the whole level has read. An NTT or
    iNTT group runs on ``tables``; the :meth:`Moduli.constants` pair
    ``constants`` has one per row, the closing multiply of an iNTT row
    (its tables' ``scale`` is unused) or a CMODMUL row's. A run first
    compares each of the ``checks`` rows with the words it held at
    compilation, and stores nothing on any difference. Before the
    levels it enters each call's input rows mod ``q`` into the ``loads``
    rows, and after them it compares the ``expects`` rows with the
    call's expected rows.

    The program keeps its rows as residues in its thread's scratch: a
    bank region is read once, before the groups, unless its first use
    writes all of it, and each row written is stored into its bank once,
    at the end, so the banks end as a per-command run leaves them."""

    def __init__(self, q: int, n: int, checks, levels, loads=(), expects=()):
        mods = Moduli.of((q,))
        self._keep = [mods]  # everything the C program points at
        groups = [("CHECK", [row], (), (), None, None, False) for row in checks]
        if loads:
            groups.append(("LOAD", (), (), loads, None, None, False))
        for level in levels:
            groups += [(*g, i == len(level) - 1) for i, g in enumerate(level)]
        if expects:
            groups.append(("EXPECT", expects, (), (), None, None, False))
        self._n, self._loads, self._expects = n, len(loads), len(expects)
        rows = [row for g in groups[len(checks):] for row in (*g[1], *g[2], *g[3])]
        if n & (n - 1) or any(
                a.dtype != np.uint64 or a.ndim != 1 or not a.flags.c_contiguous
                or not 0 <= at <= a.size - n for a, at in (*checks, *rows)):
            raise ValueError(f"{len(rows)} rows of {n} uint64 words")
        banks = {}
        for a, _ in (*checks, *rows):
            if id(a) not in banks:
                banks[id(a)] = self._pin(_ffi.from_buffer(_BUFFERS[8], a))
        # Each bank's rows merge into regions of the scratch where they
        # overlap, after the rows a level computes into.
        words = n * max((sum(len(g[1]) for g in level) for level in levels),
                        default=0)
        starts, region, regions = {}, {}, []
        for a, at in rows:
            starts.setdefault(id(a), (a, set()))[1].add(at)
        for a, ats in starts.values():
            current = None
            for at in sorted(ats):
                if current is None or at >= current[2]:
                    current = [a, at, at + n, 0]
                    regions.append(current)
                current[2] = max(current[2], at + n)
                region[id(a), at] = current
        for r in regions:
            r[3], words = words, words + r[2] - r[1]
        self._words = words
        offset = {key: r[3] + key[1] - r[1] for key, r in region.items()}

        # A region is read from its bank unless its first use writes it all.
        fill: dict[int, tuple] = {}
        uses = [(loads, True)]
        for level in levels:
            uses += [(part, False) for g in level for part in g[1:3]]
            uses += [(g[3], True) for g in level]
        for part, write in (*uses, (expects, False)):
            for a, at in part:
                r = region[id(a), at]
                if id(r) not in fill:
                    fill[id(r)] = () if write and r[1:3] == [at, at + n] else r
        written = dict.fromkeys((id(a), at) for g in groups for a, at in g[3])
        spans = [(banks[id(a)] + lo, _ffi.NULL, at, hi - lo)
                 for a, lo, hi, at in filter(None, fill.values())]
        spans += [(banks[key[0]] + key[1], _ffi.NULL, offset[key], n)
                  for key in written]
        spans += [(banks[id(a)] + at, self._pin(_ffi.from_buffer(
            _BUFFERS[8], a[at : at + n].copy())), 0, n) for a, at in checks]
        table = self._pin(_ffi.new("span_t[]", spans))
        fills = len(spans) - len(written) - len(checks)
        offsets = self._pin(_ffi.new("size_t[]", [
            offset[id(a), at] for a, at in rows]))
        self._groups = _ffi.new("group_t[]", len(groups))
        at = 0
        for i, (g, (op, x, y, out, tables, constants, last)) in enumerate(zip(
                self._groups, groups)):
            if (len(y) != len(x) * (op in _BINARY)
                    or (tables is None or tables.w.shape != (1, n))
                    == (op in ("NTT", "INTT"))
                    or (constants is None or constants[0].shape != (len(x),))
                    == (op in ("INTT", "CMODMUL"))):
                raise ValueError(f"{op} of {len(x)} rows of {n} words")
            g.op, g.rows, g.last = getattr(_lib, "OP_" + op), len(x or out), last
            if op == "CHECK":
                g.span = table + len(spans) - len(checks) + i
                continue
            for field, part in (("x", x), ("y", y), ("out", out)):
                if part:
                    setattr(g, field, offsets + at)
                    at += len(part)
            if tables is not None:
                g.w, g.w_shoup = tables._pointers[:2]
                self._keep.append(tables)
            if constants is not None:
                g.c, g.c_shoup = (self._pin(_ffi.from_buffer(
                    _BUFFERS[4], _words(a))) for a in constants)
        self._call = (self._groups, len(groups), table, fills, table + fills,
                      len(written), n, mods._records)

    def _pin(self, cdata):
        self._keep.append(cdata)
        return cdata

    def __call__(self, inputs=None, expected=None) -> "bool | None":
        """Run the program on ``inputs`` and ``expected``, ``(rows, n)``
        ``uint32`` arrays whose rows are contiguous (``None`` for no
        rows): ``None``, with nothing stored, when a checked row has
        changed since compilation, else whether every expected row
        matched."""
        code = _lib.replay(*self._call, _scratch(self._words),
                           *self._host(inputs, self._loads),
                           *self._host(expected, self._expects))
        return None if code == 1 else code == 0

    def _host(self, a, rows: int) -> tuple:
        """A pointer to the first of ``rows`` host rows (the rows after it
        are in the same array) and their stride in words."""
        if not rows and a is None:
            return _ffi.NULL, 0
        n = self._n
        if (not isinstance(a, np.ndarray) or a.dtype != np.uint32
                or a.shape != (rows, n) or a.strides[1] != 4
                or rows > 1 and (a.strides[0] < 0 or a.strides[0] % 4)):
            raise ValueError(f"host rows must be ({rows}, {n}) uint32 words")
        if not rows:
            return _ffi.NULL, 0
        return (_ffi.from_buffer(_BUFFERS[4], a[0]),
                a.strides[0] // 4 if rows > 1 else 0)


_local = threading.local()


def _scratch(words: int):
    """This thread's replay scratch of at least ``words`` 32-bit words:
    one buffer every program of the thread shares, so it stays in cache
    from one program to the next."""
    buffer = getattr(_local, "scratch", None)
    if buffer is None or len(buffer) < words:
        buffer = _local.scratch = _ffi.new("uint32_t[]", words)
    return buffer
