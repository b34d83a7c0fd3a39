"""The software baseline: SEAL-style RNS BFV on a 64-bit CPU (Fig. 6).

Two layers:

* :class:`SoftwareBfv` executes the *same work* SEAL does functionally:
  the ciphertext is decomposed into ~55-bit RNS towers (54+55 for
  log q = 109, 54+54+55+55 for 218) and the Eq. 4 polynomial tensor runs
  per tower through NTT-domain arithmetic, bit-exact against the chip
  model's per-tower products.
* :class:`CpuCostModel` prices that work like the paper's measurement
  setup (SEAL 3.7, Ryzen 7 5800h @ 3.8 GHz, powertop): per-tower
  ciphertext-mult time calibrated to the two measured points (1.5 ms for
  2 towers at n = 2^12; 6.91 ms for 4 towers at n = 2^13), Amdahl-style
  thread scaling with the diminishing returns Fig. 6 shows, and
  near-linear power growth with thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bfv.params import BfvParameters
from repro.polymath.ntt import NttContext
from repro.polymath.rns import RnsBasis, residue_words

#: The evaluation CPU (Section VI-B).
CPU_NAME = "AMD Ryzen 7 5800h"
CPU_TECHNOLOGY = "TSMC 7nm FinFET"
CPU_FREQ_GHZ = 3.8
CPU_AREA_MM2 = 180.0
CPU_THREADS_MAX = 16


class SoftwareBfv:
    """Functional RNS-tower execution of the Eq. 4 ciphertext tensor.

    This is the algorithmic mirror of ``CofheeDriver.ciphertext_multiply``:
    per tower, 4 forward NTTs, 4 Hadamard products, 1 addition, 3 inverse
    NTTs — the outputs CRT-recombine to the big-modulus tensor mod q.

    Every tower runs through the exact per-butterfly :class:`NttContext`
    (:meth:`_pure_tower`), whatever its width: this is the reference the
    batched engine and the chip model are checked against.

    Args:
        basis: the RNS tower basis.
        n: polynomial degree.
    """

    def __init__(self, basis: RnsBasis, n: int):
        self.basis = basis
        self.n = n
        self.tower_ops = {"ntt": 0, "intt": 0, "hadamard": 0, "add": 0}

    def tower_multiply(
        self,
        q: int,
        ct_a: tuple[Sequence[int], Sequence[int]],
        ct_b: tuple[Sequence[int], Sequence[int]],
    ) -> list[list[int]]:
        """The Eq. 4 tensor on one tower: ``[y0, y1, y2]`` mod ``q``."""
        if q not in self.basis.moduli:
            raise ValueError(f"modulus {q} is not a tower of {self.basis!r}")
        self._count_tensor_ops(towers=1)
        return self._pure_tower(q, ct_a, ct_b)

    def _pure_tower(self, q, ct_a, ct_b) -> list[list[int]]:
        """One tower's tensor through the exact per-butterfly NTT."""
        ctx = NttContext.shared(self.n, q)
        a0 = ctx.forward([c % q for c in ct_a[0]])
        a1 = ctx.forward([c % q for c in ct_a[1]])
        b0 = ctx.forward([c % q for c in ct_b[0]])
        b1 = ctx.forward([c % q for c in ct_b[1]])
        y0 = [int(x) * int(y) % q for x, y in zip(a0, b0)]
        y2 = [int(x) * int(y) % q for x, y in zip(a1, b1)]
        cross1 = [int(x) * int(y) % q for x, y in zip(a0, b1)]
        cross2 = [int(x) * int(y) % q for x, y in zip(a1, b0)]
        y1 = [(u + v) % q for u, v in zip(cross1, cross2)]
        return [
            [int(c) for c in ctx.inverse(y0)],
            [int(c) for c in ctx.inverse(y1)],
            [int(c) for c in ctx.inverse(y2)],
        ]

    def tensor_towers(
        self,
        ct_a: tuple[Sequence[int], Sequence[int]],
        ct_b: tuple[Sequence[int], Sequence[int]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Operand residues and the Eq. 4 tensor on every tower, tower by
        tower through the exact per-butterfly NTT.

        Returns ``(operands, outputs)``: the ``(4, L, n)`` tower residues
        of ``a0, a1, b0, b1`` and the ``(3, L, n)`` outputs ``y0, y1, y2``,
        row ``i`` of each belonging to tower ``i``, as ``uint64`` words
        (exact Python ints for a tower wider than 64 bits). The chip pool
        loads and cross-checks against these only where the scheme has no
        tensor rows of its own to share: towers wider than the engine's
        30 bits.
        """
        self._count_tensor_ops(towers=len(self.basis))
        operands = np.stack([
            np.stack([residue_words(poly, q) for q in self.basis.moduli])
            for poly in (*ct_a, *ct_b)
        ])
        outputs = [self._pure_tower(q, ct_a, ct_b) for q in self.basis.moduli]
        return operands, np.asarray(outputs, dtype=operands.dtype).swapaxes(0, 1)

    def ciphertext_multiply(
        self,
        ct_a: tuple[Sequence[int], Sequence[int]],
        ct_b: tuple[Sequence[int], Sequence[int]],
    ) -> list[list[int]]:
        """Return the three tensor polynomials mod q (big-modulus form),
        CRT-recombined from :meth:`tower_multiply` on every tower."""
        tower_results = [
            self.tower_multiply(q, ct_a, ct_b) for q in self.basis.moduli
        ]
        return [
            self.basis.reconstruct_poly([tw[j] for tw in tower_results])
            for j in range(3)
        ]

    def _count_tensor_ops(self, towers: int) -> None:
        """SEAL's per-tower op mix: 4 NTT, 4 Hadamard, 1 add, 3 iNTT."""
        self.tower_ops["ntt"] += 4 * towers
        self.tower_ops["hadamard"] += 4 * towers
        self.tower_ops["add"] += towers
        self.tower_ops["intt"] += 3 * towers


@dataclass(frozen=True)
class CpuMeasurement:
    """One modeled CPU data point (a Fig. 6 bar)."""

    n: int
    log_q: int
    towers: int
    threads: int
    time_ms: float
    power_w: float

    @property
    def pdp_w_ms(self) -> float:
        return self.power_w * self.time_ms


class CpuCostModel:
    """SEAL-3.7-on-Ryzen calibrated wall-clock/power model.

    Calibration anchors (Section VI-B):

    * (n, log q) = (2^12, 109), 2 towers, 1 thread: **1.5 ms**, **1.48 W**;
    * (n, log q) = (2^13, 218), 4 towers, 1 thread: **6.91 ms**, **2.3 W**.

    Per-tower ciphertext-mult time follows ``c(n) * n log2 n`` with a weak
    cache-pressure term in ``c(n)``; threads scale by Amdahl's law with a
    fitted serial fraction (the paper's "diminishing returns as we add
    extra threads"); power grows near-linearly in active threads.
    """

    #: ns per (coefficient x stage) at n = 2^12, from the 1.5 ms anchor:
    #: 1.5 ms / (2 towers * 4096 * 12).
    BASE_NS = 15.259
    #: cache-pressure growth per octave of n, from the 6.91 ms anchor.
    CACHE_SLOPE = 0.0629
    #: Amdahl serial fraction (fits the Fig. 6 bar shape).
    SERIAL_FRACTION = 0.15
    #: Power split: idle-attributable base + per-thread active power.
    POWER_BASE_FRACTION = 0.30

    def tower_time_ms(self, n: int) -> float:
        """Single-thread per-tower Eq. 4 tensor time."""
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two, got {n}")
        log_n = n.bit_length() - 1
        c_ns = self.BASE_NS * (1.0 + self.CACHE_SLOPE * (log_n - 12))
        return c_ns * n * log_n / 1e6

    def ciphertext_mult_ms(self, params: BfvParameters, threads: int = 1) -> float:
        """Wall-clock for one big-modulus ciphertext multiplication."""
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        single = params.cpu_tower_count * self.tower_time_ms(params.n)
        s = self.SERIAL_FRACTION
        return single * (s + (1.0 - s) / threads)

    def power_w(self, params: BfvParameters, threads: int = 1) -> float:
        """powertop-style package power attribution."""
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        single = self.single_thread_power_w(params)
        base = self.POWER_BASE_FRACTION * single
        per_thread = (1.0 - self.POWER_BASE_FRACTION) * single
        return base + per_thread * threads

    def single_thread_power_w(self, params: BfvParameters) -> float:
        """Interpolate the two measured single-thread power points."""
        log_n = params.n.bit_length() - 1
        return 1.48 + (2.3 - 1.48) * (log_n - 12)

    def measurement(self, params: BfvParameters, threads: int) -> CpuMeasurement:
        return CpuMeasurement(
            n=params.n,
            log_q=params.log_q,
            towers=params.cpu_tower_count,
            threads=threads,
            time_ms=self.ciphertext_mult_ms(params, threads),
            power_w=self.power_w(params, threads),
        )

    def pdp_w_ms(self, params: BfvParameters, threads: int = 1) -> float:
        """Power-Delay Product — the paper's 2.22 W*ms (n = 2^12) and
        15.9 W*ms (n = 2^13) single-thread figures."""
        return self.ciphertext_mult_ms(params, threads) * self.power_w(
            params, threads
        )

    def crossover_threads(self, params: BfvParameters,
                          cofhee_ms: float) -> int | None:
        """Smallest thread count at which SEAL beats one CoFHEE instance
        ("to the point of becoming faster than a single instance")."""
        for threads in range(1, CPU_THREADS_MAX + 1):
            if self.ciphertext_mult_ms(params, threads) < cofhee_ms:
                return threads
        return None
