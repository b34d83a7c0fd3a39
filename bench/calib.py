"""Frozen host-calibration kernel and the paired-normalisation estimators.

This module must never import ``repro``: the kernel is a fixed yardstick
for how fast *this host, right now* runs the repo's kind of work (Python
big-int list passes, int64 modular butterflies, list <-> object-array
<-> int64 round trips), so no change to ``src/`` may ever change what
one run of it costs. A wave's wall/CPU times are multiplied by
``CAL_REF_S / mean(cal_before, cal_after)``, which turns them into
"reference-host" time: a slowdown that hits the kernel and the wave
alike (a noisy neighbour, a frequency step) cancels, a slowdown of the
program alone does not.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: What one kernel run costs on the reference host (frozen; echoed in
#: ``BENCHMARK.json`` and in every fingerprint). Changing it rescales
#: every calibrated timing, so it is part of the benchmark's identity.
CAL_REF_S = 0.0125

_N = 4096
_MODULI = (1073479681, 1073184769, 1073086465)  # three 30-bit primes
_Q = _MODULI[0] * _MODULI[1] * _MODULI[2]  # ~90 bits
_BATCH = 7


class Calibrator:
    """The frozen kernel plus its fixed inputs (built once per process)."""

    def __init__(self):
        rng = random.Random(0xC0F4EE)
        self._big = [rng.randrange(_Q) for _ in range(_N)]
        self._stack = np.asarray(
            [[[rng.randrange(q) for _ in range(_N)] for q in _MODULI]
             for _ in range(_BATCH)],
            dtype=np.int64,
        )
        self._q = np.asarray(_MODULI, dtype=np.int64)[None, :, None]
        self._twiddle = np.asarray(
            [[rng.randrange(1, q) for _ in range(_N // 2)] for q in _MODULI],
            dtype=np.int64,
        )[None, :, :]
        self.samples: list[float] = []

    def kernel(self) -> int:
        """One run of the frozen mix; returns a checksum so nothing is elided."""
        big, q = self._big, _Q
        # 1. Big-int list passes (what Polynomial/codec loops cost).
        a = [(3 * c + 1) % q for c in big]
        b = [c - q if c > (q >> 1) else c for c in a]
        c = [(x * 40961 + (q >> 1)) // q for x in b]
        # 2. int64 butterfly passes (what the batched NTT costs).
        s = self._stack
        half = _N // 2
        for _ in range(6):
            u, w = s[:, :, :half], s[:, :, half:]
            s = np.concatenate(
                ((u + w) % self._q, ((u - w) * self._twiddle) % self._q),
                axis=2,
            )
        # 3. list -> object array -> % q_i -> int64 -> list round trips
        #    (what decompose / reconstruct cost).
        total = 0
        for _ in range(2):
            obj = np.asarray(big, dtype=object)
            rows = np.asarray([obj % m for m in _MODULI], dtype=np.int64)
            total += sum(rows[0].tolist()[:8])
        return (c[0] + int(s[0, 0, 0]) + total) & 0xFFFF

    def sample(self, runs: int = 3) -> float:
        """Mean wall seconds of ``runs`` kernel runs; remembered.

        An untimed run goes first: whatever ran before has evicted the
        kernel's 1 MB of inputs, and refilling them costs ~9 % that says
        something about the program's cache footprint, not about how
        fast the host is. Three timed runs, not one, because a single
        10 ms sample catches or misses a neighbour's burst: on the
        reference host the drift between 20-wave blocks of one run fell
        from 5.1 % (one run per gap) to 4.1 % (three) and 2.6 % (five)
        in-process; three is what the time cap affords (32 ms per gap).
        """
        self.kernel()
        t0 = time.perf_counter()
        for _ in range(runs):
            self.kernel()
        dt = (time.perf_counter() - t0) / runs
        self.samples.append(dt)
        return dt

    def warm(self, runs: int = 3) -> None:
        """Discarded warm-up runs (allocator, caches, frequency)."""
        for _ in range(runs):
            self.kernel()


def factor(cal_before: float, cal_after: float) -> float:
    """Multiplier that turns a raw time into reference-host time."""
    return CAL_REF_S / ((cal_before + cal_after) / 2.0)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty series")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Wave estimators (pure functions of recorded samples)
# ----------------------------------------------------------------------


@dataclass
class Wave:
    """Raw measurements of one wave plus its two calibration samples.

    Times are ``perf_counter`` seconds; ``latencies`` are per job, from
    the wave's start to the job's result bytes; ``cpu`` is everything
    the harness process and its workers burned, ``cpu_workers`` the
    workers' part of it.
    """

    start: float
    end: float
    latencies: list[float]
    cpu: float
    cpu_workers: float
    cal_before: float
    cal_after: float

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @property
    def factor(self) -> float:
        return factor(self.cal_before, self.cal_after)


def midmean(values, trim: float = 0.2) -> float:
    """Mean of what is left after dropping the ``trim`` lowest and
    highest share of the values (the middle 60 % by default).

    The estimator over a run's waves. A median would do for ``W = 1``,
    but a ``W = 4`` wave over TCP settles in one of two batch patterns
    (``1+2+1`` or ``1+3``, 16 % apart in mean latency) chosen by a race
    inside the server, and the median of such a mixture jumps from one
    cluster to the other when the mixing share crosses one half; a
    trimmed mean moves with the share, and still ignores the fifth of
    waves a noisy neighbour hits hardest.
    """
    data = sorted(values)
    if not data:
        raise ValueError("midmean of an empty series")
    cut = int(len(data) * trim)
    kept = data[cut:len(data) - cut]
    return float(sum(kept) / len(kept))


def latency_mean_ms(waves: list[Wave]) -> float:
    """Midmean over waves of the mean per-job latency from wave start.

    Work per job is deterministic, so at ``W = 1`` anything above the
    middle of the distribution measures the host; the tail that belongs
    to the program is a job's position in its wave, which the per-wave
    *mean* captures.
    """
    return 1e3 * midmean(
        w.factor * sum(w.latencies) / len(w.latencies) for w in waves
    )


def jobs_per_s(waves: list[Wave], width: int) -> float:
    """``W`` over the midmean calibrated wave makespan."""
    return width / midmean(w.factor * w.makespan for w in waves)


def cpu_ms_per_job(waves: list[Wave], width: int) -> float:
    """Midmean over waves of calibrated CPU consumed per job."""
    return 1e3 * midmean(w.factor * w.cpu / width for w in waves)
