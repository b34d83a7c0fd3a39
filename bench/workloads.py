"""The four wave workloads and the child-side procedure that runs one.

A workload is a fixed number of *waves*: ``W`` jobs submitted
back-to-back, all awaited, then the system is idle while the frozen
calibration kernel is sampled. Job counts are fixed by the workload and
the wave-scale factor, never by a clock, so two runs of equal shape do
exactly the same work and ``model_cycles_per_job`` /
``wire_bytes_per_job`` repeat to the last digit.
"""

from __future__ import annotations

import gc
import hashlib
import time

import calib
import host
import stacks
import traffic
from spec import Workload, scaled

#: Discarded waves before measuring: lazy set-up (worker key
#: replication, NTT tables, allocator growth) is finished, as it is for
#: every job but a session's first.
WARMUP_WAVES = 1
#: Every Nth result is compared byte for byte with in-process execution.
BYTE_CHECK_EVERY = 8


# ----------------------------------------------------------------------
# Traffic for one workload
# ----------------------------------------------------------------------


class Traffic:
    """Tenants, job kinds and the wave schedule of one workload run."""

    def __init__(self, workload: Workload, seed: int, quick: bool,
                 waves: int, tenants=None, dense=None):
        """``tenants``/``dense`` reuse already generated material (the
        traced ladder serves one tenant's pool through every stack)."""
        self.workload = workload
        # Per tenant: the waves' jobs plus one probe job for cold builds.
        self._per_wave = workload.per_tenant
        jobs = waves * self._per_wave + 1
        pool_size = traffic.pool_size_for(jobs)
        if tenants is None:
            tenants = make_tenants(seed, quick, workload.tenants, pool_size)
        self.tenants = tenants[:workload.tenants]
        if any(len(t.cts) < pool_size for t in self.tenants):
            raise ValueError("ciphertext pool too small for this many jobs")
        if workload.kind == "dense16":
            self.kinds = [dense or traffic.Dense16(self.tenants[0], seed)]
        else:
            self.kinds = [traffic.EvalMult(t) for t in self.tenants]
        self._orders = [
            traffic.job_order(seed, i, jobs)
            for i in range(workload.tenants)
        ]

    def wave(self, index: int) -> list[traffic.Job]:
        """Wave ``index``: ``W`` jobs, split evenly over the tenants."""
        lo, hi = index * self._per_wave, (index + 1) * self._per_wave
        return [job for order in self._orders for job in order[lo:hi]]

    def serial_jobs(self, first_wave: int, count: int) -> list[traffic.Job]:
        """``count`` jobs of tenant 0 from wave ``first_wave`` on."""
        lo = first_wave * self._per_wave
        return self._orders[0][lo:lo + count]

    def build_probe(self) -> list[traffic.Job]:
        """The job(s) a cold build serves first: one per open session.

        The last job of each order, which no wave reaches.
        """
        return [order[-1] for order in self._orders]

    def operands(self, job: traffic.Job) -> tuple[bytes, bytes]:
        wire = self.tenants[job.tenant].wire
        return wire[job.a], wire[job.b]

    def circuit(self, job: traffic.Job) -> bytes | None:
        return self.kinds[job.tenant].circuit_wire

    def wire_bytes(self, job: traffic.Job, payload: bytes) -> int:
        """Bytes crossing the client boundary for one job."""
        circuit = self.circuit(job)
        return (
            sum(len(op) for op in self.operands(job))
            + (len(circuit) if circuit else 0) + len(payload)
        )


def make_tenants(seed: int, quick: bool, count: int, pool_size: int):
    """Tenant 0 on the paper set; tenant 1 on the set the fleet routes
    to its other worker."""
    params = [traffic.paper_params(quick), traffic.second_tenant_params(quick)]
    return [
        traffic.make_tenant(f"tenant{i}", params[i], seed, i, pool_size)
        for i in range(count)
    ]


def make_stack(workload: Workload, tracer=None):
    if workload.stack == "tcp":
        return stacks.TcpStack(tracer)
    return stacks.InprocStack(
        tracer, fleet_size=2 if workload.stack == "fleet" else 0
    )


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def run_wave(stack, tr: Traffic, jobs: list[traffic.Job]):
    """Submit a wave back-to-back and await all of it.

    Returns the wave's raw measurements (a :class:`calib.Wave` without
    its calibration pair) and ``[(job, job_id, payload, error)]``.
    """
    own0, workers0 = host.cpu_seconds()
    with stack.tracer.span("wave"):
        t0 = time.perf_counter()
        ids = stack.submit_wave([
            (job.tenant, tr.operands(job), tr.circuit(job), job.key)
            for job in jobs
        ])
        done = stack.drain(ids)
        t1 = time.perf_counter()
    own1, workers1 = host.cpu_seconds()
    raw = dict(
        start=t0, end=t1,
        latencies=[done[job_id][0] - t0 for job_id in ids],
        cpu=(own1 - own0) + (workers1 - workers0),
        cpu_workers=workers1 - workers0,
    )
    results = [
        (job, job_id, done[job_id][1], done[job_id][2])
        for job, job_id in zip(jobs, ids)
    ]
    return raw, results


def measure_waves(stack, tr: Traffic, cal: calib.Calibrator,
                  waves: list[list[traffic.Job]]):
    """Run ``waves`` (lists of jobs) in order.

    The calibration kernel is sampled in every quiescent gap, so wave
    ``i`` is paired with the samples just before and just after it.
    """
    measured: list[calib.Wave] = []
    results = []
    cal_before = cal.sample()
    for jobs in waves:
        raw, wave_results = run_wave(stack, tr, jobs)
        cal_after = cal.sample()
        measured.append(
            calib.Wave(cal_before=cal_before, cal_after=cal_after, **raw)
        )
        results.extend(wave_results)
        cal_before = cal_after
    return measured, results


def measure_setup(workload: Workload, tr: Traffic, cal: calib.Calibrator,
                  builds: int):
    """Cold builds: construct stack -> open sessions -> first result.

    One build is discarded (imports, module-level tables), then each of
    ``builds`` is timed between two calibration samples. ``gc.collect()``
    and the worker join (``close``) sit between builds, outside the
    clock. Returns calibrated seconds per build and the probe results.
    """
    probe = tr.build_probe()
    seconds: list[float] = []
    results = []
    for build in range(builds + 1):
        gc.collect()
        cal_before = cal.sample()
        t0 = time.perf_counter()
        stack = make_stack(workload)
        try:
            stack.open(tr.tenants)
            _, wave_results = run_wave(stack, tr, probe)
            elapsed = time.perf_counter() - t0
        finally:
            stack.close()
        cal_after = cal.sample()
        results.extend(wave_results)
        if build > 0:
            seconds.append(elapsed * calib.factor(cal_before, cal_after))
    return seconds, results


class Verifier:
    """The correctness gate: every result is checked, every miss counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def _miss(self, job: traffic.Job, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{job.key}: {what}")

    def check(self, tr: Traffic, results) -> None:
        """Decrypt every distinct result; byte-compare every 8th job.

        A job served again (the cold builds' probe, or the same job
        through another stack) must return the very bytes already
        verified, which its SHA-256 settles without a second decryption.
        """
        for job, _job_id, payload, error in results:
            self.attempted += 1
            if payload is None:
                self._miss(job, f"failed or refused: {error}")
                continue
            kind = tr.kinds[job.tenant]
            key = f"{kind.name}/{job.key}"
            digest = hashlib.sha256(payload).hexdigest()
            if key in self.digests:
                if self.digests[key] != digest:
                    self._miss(job, "bytes differ between two servings")
                continue
            if kind.slots(payload) != kind.expected(job):
                self._miss(job, "decrypts to the wrong plaintext")
                continue
            if len(self.digests) % BYTE_CHECK_EVERY == 0:
                if kind.reference(job) != payload:
                    self._miss(job, "not byte-identical to in-process Bfv")
                    continue
            self.digests[key] = digest

    def require(self, condition: bool, what: str) -> None:
        """A run-level invariant: one more attempt, failed on a breach."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            self.problems.append(what)


def stack_counts(stack) -> dict:
    """Counters the serving stack itself keeps, read after the waves."""
    report = stack.fhe.pool_report()
    stats = stack.fhe.scheduler.stats
    counts = {
        "cache_hits": report["result_cache"]["hits"],
        "cache_misses": report["result_cache"]["misses"],
        "dedupe_hits": report["result_cache"]["dedupe_hits"],
        "batches": len(stats.batches),
        "jobs_completed": stats.jobs_completed,
    }
    if stack.fhe.fleet is not None:
        fleet = stack.fhe.fleet_report()
        counts["requeues"] = fleet["requeues"]
        counts["deaths"] = fleet["deaths"]
    return counts


def run_end_to_end(workload: Workload, seed: int, scale: float,
                   quick: bool) -> dict:
    """One untraced run of one workload: the end-to-end metrics."""
    waves_n, builds_n = scaled(workload, scale)
    cal = calib.Calibrator()
    cal.warm()
    tr = Traffic(workload, seed, quick, WARMUP_WAVES + waves_n)
    verifier = Verifier()

    setup_seconds, probe_results = measure_setup(workload, tr, cal, builds_n)

    gc.collect()
    stack = make_stack(workload)
    try:
        stack.open(tr.tenants)
        _, warm_results = measure_waves(
            stack, tr, cal, [tr.wave(i) for i in range(WARMUP_WAVES)]
        )
        waves, results = measure_waves(
            stack, tr, cal,
            [tr.wave(WARMUP_WAVES + i) for i in range(waves_n)],
        )
        cycles = [stack.cycles(job_id) for _, job_id, _, _ in results]
        counts = stack_counts(stack)
        rss_mb = host.peak_rss_mb()
    finally:
        stack.close()

    verifier.check(tr, results)
    verifier.check(tr, warm_results + probe_results)
    verifier.require(
        counts["cache_hits"] == 0,
        f"cache_hits == {counts['cache_hits']}: traffic must be all misses",
    )
    for name in ("requeues", "deaths"):
        verifier.require(
            counts.get(name, 0) == 0, f"fleet {name} == {counts.get(name)}"
        )
    wire = [
        tr.wire_bytes(job, payload)
        for job, _, payload, _ in results if payload is not None
    ]
    width = workload.width
    metrics = {
        "setup_s": (calib.median(setup_seconds), "s"),
        "latency_mean_ms": (calib.latency_mean_ms(waves), "ms"),
        "jobs_per_s": (calib.jobs_per_s(waves, width), "1/s"),
        "cpu_ms_per_job": (calib.cpu_ms_per_job(waves, width), "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "model_cycles_per_job": (sum(cycles) / len(cycles), "cycles"),
        "wire_bytes_per_job": (sum(wire) / max(1, len(wire)), "bytes"),
    }
    latencies = [lat for w in waves for lat in w.latencies]
    normalised = [w.factor * lat for w in waves for lat in w.latencies]
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "problems": verifier.problems,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "shape": {
            "waves": waves_n, "width": width, "builds": builds_n,
            "warmup_waves": WARMUP_WAVES,
        },
        "counts": counts,
        "digests": verifier.digests,
        "cal_samples": cal.samples,
        "host": {
            "raw_latency_p50_ms": calib.percentile(latencies, 50) * 1e3,
            "raw_latency_p95_ms": calib.percentile(latencies, 95) * 1e3,
            "norm_latency_p95_ms": calib.percentile(normalised, 95) * 1e3,
            "setup_spread": (
                (max(setup_seconds) - min(setup_seconds))
                / calib.median(setup_seconds)
            ),
        },
    }
