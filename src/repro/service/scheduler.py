"""Batching scheduler: fair multi-tenant packing over compute backends.

Jobs land in per-tenant FIFO queues. Batches are formed round-robin across
tenants — one job per tenant per rotation — so a tenant flooding the queue
cannot starve a light one (the fairness property the service tests prove
with dispatch sequence numbers). A batch only packs *compatible* jobs:
same parameter digest and same requested backend, so a chip worker
keeps its modulus and twiddle tables programmed across the batch and the
registry's cached evaluation engine is shared across every job in it.

A formed batch is a fairness and compatibility unit, not a settlement
unit: a synchronous backend runs it one job per :meth:`step`, and each
job completes at its own end — the host-side counterpart of CoFHEE's
per-command completion interrupt — so a caller between steps (the
transport pump) delivers the first result while the rest of the batch
waits its turn.

Tower sharding composes with this, one level down: the chip-pool backend
splits each batched multi-tower EvalMult into per-tower work units (see
:mod:`repro.service.towers`) and fans them out across the pool. Fairness
still holds — a 3-tower tenant's work units occupy more workers per batch,
but batch *formation* stays round-robin, so a 1-tower tenant's jobs keep
leading their own batches on schedule. :class:`ServiceStats` aggregates
both views: total cycles (work) and makespan cycles (wall time on the
pool), plus the per-batch fidelity counts that say which jobs really
executed on worker drivers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.service.backends import Backend, BatchReport
from repro.service.jobs import Job, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.telemetry import MetricsRegistry

#: A batch's compatibility key: (params digest, backend name).
BatchKey = tuple[bytes, str]


@dataclass
class ServiceStats:
    """Aggregate accounting across every dispatched batch.

    ``cache_hits`` / ``cache_misses`` count the server's content-addressed
    result cache: a hit completes the job at submit time without ever
    forming a batch (so hit jobs appear in ``jobs_completed`` but in no
    :class:`BatchReport`); a miss is a cacheable job that had to execute.

    ``dedupe_hits`` counts in-queue dedupe — cache-aware scheduling's
    submit-before-complete case: a job whose content address matches one
    already queued or running attaches to that execution as a follower
    instead of executing again, and the one result fans out to every
    attached job when the primary completes. Followers appear in
    ``jobs_submitted``/``jobs_completed`` but in no batch.

    Per-tenant settlement is split by outcome —
    ``per_tenant_completed`` / ``per_tenant_failed`` — so a tenant whose
    jobs keep failing no longer looks identical to one being served;
    :attr:`per_tenant` remains as the merged read-only view.
    """

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedupe_hits: int = 0
    batches: list[BatchReport] = field(default_factory=list)
    per_tenant_completed: dict[str, int] = field(default_factory=dict)
    per_tenant_failed: dict[str, int] = field(default_factory=dict)

    @property
    def per_tenant(self) -> dict[str, int]:
        """Settled jobs per tenant, completed and failed together."""
        merged = dict(self.per_tenant_completed)
        for tenant, count in self.per_tenant_failed.items():
            merged[tenant] = merged.get(tenant, 0) + count
        return merged

    def settle(self, job: Job) -> None:
        """Count one finished job (completed or failed) for its tenant."""
        if job.status is JobStatus.FAILED:
            self.jobs_failed += 1
            bucket = self.per_tenant_failed
        else:
            self.jobs_completed += 1
            bucket = self.per_tenant_completed
        bucket[job.tenant] = bucket.get(job.tenant, 0) + 1

    def record(self, report: BatchReport, jobs: list[Job]) -> None:
        self.batches.append(report)
        for job in jobs:
            self.settle(job)

    @property
    def total_cycles(self) -> int:
        return sum(b.cycles for b in self.batches)

    @property
    def makespan_cycles(self) -> int:
        """Sum of per-report makespans: modeled wall time on the chip pool.

        Each report's makespan is its largest single-worker share; reports
        execute one after another, so their makespans add. A synchronous
        backend reports one job at a time, so this is the sum of per-job
        makespans. With tower sharding it drops below :attr:`total_cycles`
        (the work does not shrink — it spreads).
        """
        return sum(b.makespan_cycles for b in self.batches)

    @property
    def pipelined_makespan_cycles(self) -> int:
        """Pool wall time with cross-batch tower pipelining.

        Each chip-pool batch's extent beyond the previous batch's gather
        barrier; a batch whose first tower level fit entirely into the
        previous batch's straggler window contributes less than its own
        :attr:`makespan_cycles`. Backends that do not pipeline report 0
        and fall back to their makespan.
        """
        return sum(
            b.pipelined_makespan_cycles or b.makespan_cycles
            for b in self.batches
        )

    @property
    def overlap_cycles(self) -> int:
        """Total tower cycles started inside a previous batch's gather window."""
        return sum(b.overlap_cycles for b in self.batches)

    @property
    def fidelity(self) -> dict[str, int]:
        """Aggregate execution-path counts across every batch.

        Keys are the :class:`~repro.service.backends.BatchReport` fidelity
        labels: ``"chip"`` (tensor ran tower-by-tower on worker drivers),
        ``"model"`` (DAG/cost-model pricing), ``"relin_engine"``
        (relinearization executed as batched chip-side key-switch work
        units), ``"relin_model"`` (tail model-priced only — params the
        engine cannot carry).
        """
        totals: dict[str, int] = {}
        for b in self.batches:
            for path, count in b.fidelity.items():
                totals[path] = totals.get(path, 0) + count
        return totals


class BatchingScheduler:
    """Round-robin fair batching over per-tenant queues.

    Args:
        registry: the shared session registry.
        backends: backend instances keyed by name; ``default`` names the
            one used when a job does not request a backend.
        max_batch: largest number of jobs packed into one batch.
    """

    def __init__(self, registry: SessionRegistry, backends: dict[str, Backend],
                 default: str, max_batch: int = 8):
        if max_batch < 1:
            raise ValueError("batches need room for at least one job")
        if default not in backends:
            raise ValueError(f"default backend {default!r} not in {sorted(backends)}")
        self.registry = registry
        self.backends = backends
        self.default = default
        self.max_batch = max_batch
        self._queues: dict[str, deque[Job]] = {}
        self._rotation: deque[str] = deque()
        self._submit_seq = 0
        self._dispatch_seq = 0
        self._batch_ids = 0
        #: Cross-batch pipelining: the next batch, formed while the
        #: previous one was still executing (its stragglers gathering),
        #: as ``(formed, rotation_snapshot, plan_start, plan_end)``.
        self._preplanned: tuple | None = None
        #: The formed synchronous batch whose jobs are still waiting
        #: their turn: ``(backend, batch_id, plan_end, waiting jobs)``.
        self._running: tuple | None = None
        self.stats = ServiceStats()
        #: Metrics sink (set by :class:`~repro.service.server.FheServer`;
        #: ``None`` leaves the scheduler un-instrumented for direct use).
        self.metrics: MetricsRegistry | None = None

    # -- intake -------------------------------------------------------------

    def submit(self, job: Job) -> Job:
        self.registry.get(job.session_id)  # fail fast on unknown sessions
        if not job.backend:
            job.backend = self.default
        if job.backend not in self.backends:
            raise ValueError(
                f"unknown backend {job.backend!r} (have {sorted(self.backends)})"
            )
        job.metrics.submitted_seq = self._submit_seq
        self._submit_seq += 1
        if job.tenant not in self._queues:
            self._queues[job.tenant] = deque()
            self._rotation.append(job.tenant)
        self._queues[job.tenant].append(job)
        self.stats.jobs_submitted += 1
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_queue_depth", "jobs queued and not yet dispatched"
            ).set(self.pending)
        return job

    @property
    def pending(self) -> int:
        queued = sum(len(q) for q in self._queues.values())
        if self._preplanned is not None:
            queued += len(self._preplanned[0][1])
        return queued

    def _shed_expired(self) -> int:
        """Fail still-queued jobs whose deadline already passed.

        Runs at batch-plan time, before any batch is formed: an expired
        job never costs a placement or a worker round trip — it settles
        immediately with the typed ``deadline expired`` failure the
        client maps to a terminal :class:`JobFailedError` kind.
        """
        now = time.monotonic()
        shed = 0
        for tenant, queue in self._queues.items():
            if not any(j.deadline is not None and j.deadline <= now
                       for j in queue):
                continue
            keep: deque[Job] = deque()
            for job in queue:
                if job.deadline is None or job.deadline > now:
                    keep.append(job)
                    continue
                job.fail("deadline expired before dispatch")
                self.stats.settle(job)
                shed += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "repro_deadline_shed_total",
                        "jobs failed past their deadline",
                        stage="queued", tenant=job.tenant,
                    ).inc()
                    self.metrics.counter(
                        "repro_jobs_settled_total", "jobs settled by outcome",
                        tenant=job.tenant, outcome="failed",
                    ).inc()
            self._queues[tenant] = keep
        if shed and self.metrics is not None:
            self.metrics.gauge(
                "repro_queue_depth", "jobs queued and not yet dispatched"
            ).set(self.pending)
        return shed

    # -- batch formation ------------------------------------------------------

    def _job_key(self, job: Job) -> BatchKey:
        return (self.registry.get(job.session_id).digest, job.backend)

    def next_batch(self) -> tuple[BatchKey, list[Job]] | None:
        """Form the next batch, or ``None`` when every queue is empty.

        The rotation pointer advances one tenant per call, and the batch's
        compatibility key is fixed by that tenant's head job — so over
        consecutive calls every tenant's work leads a batch, regardless of
        how many jobs anyone else has queued. Within the batch, jobs are
        taken one per tenant per rotation (only matching queue heads), up
        to ``max_batch``.
        """
        if self.pending == 0:
            return None
        # Advance the rotation to the next tenant with pending work.
        while not self._queues[self._rotation[0]]:
            self._rotation.rotate(-1)
        lead = self._rotation[0]
        key = self._job_key(self._queues[lead][0])
        self._rotation.rotate(-1)  # next call starts at the following tenant
        batch: list[Job] = []
        # Round-robin passes starting at the lead tenant.
        order = [lead] + [t for t in self._rotation if t != lead]
        progress = True
        while progress and len(batch) < self.max_batch:
            progress = False
            for tenant in order:
                queue = self._queues[tenant]
                if queue and self._job_key(queue[0]) == key:
                    batch.append(queue.popleft())
                    progress = True
                    if len(batch) >= self.max_batch:
                        break
        return key, batch

    # -- cross-batch pre-planning ---------------------------------------------

    def _preplan(self) -> None:
        """Form the next batch while the current one is still executing.

        This is the scheduler half of cross-batch tower pipelining: batch
        N+1 is planned during batch N's execution window (while N's
        straggler towers are still gathering), so the chip pool can start
        N+1's level-0 tower units in its workers' idle headroom below the
        gather barrier. The plan is provisional — jobs leave their queues,
        but fairness state is snapshotted so a stale plan (a deadline
        expiring before dispatch) rolls back losslessly.
        """
        if self._preplanned is not None or self.pending == 0:
            return
        rotation = tuple(self._rotation)
        plan_start = time.perf_counter()
        formed = self.next_batch()
        plan_end = time.perf_counter()
        self._preplanned = (formed, rotation, plan_start, plan_end)

    def _rollback_preplan(self) -> None:
        """Return a provisional batch to its queues, restoring fairness.

        Jobs go back to the *front* of their tenant queues in reverse
        take order (queue order is exactly as before the plan), and the
        rotation pointer returns to its snapshot — tenants that appeared
        after the snapshot keep their place at the tail.
        """
        formed, rotation, _start, _end = self._preplanned
        self._preplanned = None
        _key, jobs = formed
        for job in reversed(jobs):
            self._queues[job.tenant].appendleft(job)
        fresh = [t for t in self._rotation if t not in rotation]
        self._rotation = deque(list(rotation) + fresh)

    def _take_preplanned(self):
        """The pre-planned batch, unless stale; ``None`` re-plans normally.

        The deadline contract survives pipelining: ``_shed_expired`` never
        sees pre-planned jobs, so a plan holding any job whose deadline
        has passed is rolled back (and the queues re-shed) instead of
        dispatching expired work.
        """
        if self._preplanned is None:
            return None
        formed, _rotation, plan_start, plan_end = self._preplanned
        now = time.monotonic()
        if any(j.deadline is not None and j.deadline <= now
               for j in formed[1]):
            self._rollback_preplan()
            self._shed_expired()
            return None
        self._preplanned = None
        return formed, plan_start, plan_end

    # -- dispatch ---------------------------------------------------------------

    def _async_backends(self) -> list[Backend]:
        return [b for b in self.backends.values() if b.supports_async]

    def _record_settled(self, report: BatchReport, jobs: list[Job],
                        execute_seconds: float) -> None:
        """Shared settlement accounting for sync and async batches."""
        self.stats.record(report, jobs)
        if self.metrics is None:
            return
        m = self.metrics
        m.histogram(
            "repro_batch_execute_seconds",
            "measured wall seconds per executed batch",
            backend=report.backend,
        ).observe(execute_seconds)
        for job in jobs:
            outcome = (
                "failed" if job.status is JobStatus.FAILED else "completed"
            )
            m.counter(
                "repro_jobs_settled_total", "jobs settled by outcome",
                tenant=job.tenant, outcome=outcome,
            ).inc()

    def _record_dispatched(self, backend_name: str, jobs: list[Job]) -> None:
        if self.metrics is None:
            return
        m = self.metrics
        m.counter(
            "repro_batches_total", "batches dispatched",
            backend=backend_name,
        ).inc()
        m.histogram(
            "repro_batch_occupancy", "jobs packed per batch",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32),
            backend=backend_name,
        ).observe(len(jobs))
        m.gauge(
            "repro_queue_depth", "jobs queued and not yet dispatched"
        ).set(self.pending)

    def _harvest_async(self, timeout: float = 0.0) -> BatchReport | None:
        """Collect completed async batches; returns the last report."""
        last = None
        for backend in self._async_backends():
            for report, jobs in backend.poll(timeout):
                self._record_settled(report, jobs, report.seconds)
                last = report
        return last

    def step(self) -> BatchReport | None:
        """Advance the service by one settled job (or async batch).

        Batches are formed exactly as :meth:`next_batch` packs them, but
        a synchronous backend runs them one job per call: each job is its
        own ``execute_batch(batch_id, [job])`` and settles before the
        next one starts, so a caller between steps (the transport pump)
        can deliver it mid-batch. The rest of the formed batch waits its
        turn, marked ``batch_wait`` from the batch's planning to the
        job's own start. Asynchronous backends (the worker fleet) are
        *dispatched* whole without blocking — batch after batch, so work
        for different params digests overlaps across workers — and their
        completions are harvested here; a call returns the next settled
        report, blocking only when everything is dispatched and still
        in flight. ``None`` means truly idle: no queued jobs and nothing
        in flight.
        """
        self._shed_expired()
        harvested = self._harvest_async()
        if harvested is not None:
            return harvested
        while self._running is None and self.pending > 0:
            taken = self._take_preplanned()
            if taken is not None:
                formed, plan_start, plan_end = taken
            else:
                if self.pending == 0:  # a stale pre-plan was fully shed
                    break
                plan_start = time.perf_counter()
                formed = self.next_batch()
                plan_end = time.perf_counter()
            (_, backend_name), jobs = formed
            backend = self.backends[backend_name]
            self._batch_ids += 1
            dispatched_at = time.perf_counter()
            for job in jobs:
                job.status = JobStatus.RUNNING
                job.metrics.dispatched_seq = self._dispatch_seq
                self._dispatch_seq += 1
                trace = job.trace
                if trace.enabled:
                    # queue_wait spans submit settling -> batch formation;
                    # batch_plan is the next_batch call that packed the
                    # job, charged to every job in the batch (their wall
                    # clocks all tick through it).
                    if trace.queued_at is not None:
                        trace.mark("queue_wait", trace.queued_at, plan_start)
                    trace.mark("batch_plan", plan_start, plan_end)
                    if backend.supports_async and taken is not None:
                        # Pre-planned during the previous batch: the
                        # stretch from plan to dispatch waited on it.
                        trace.mark("batch_wait", plan_end, dispatched_at)
            if backend.supports_async:
                backend.dispatch_batch(self._batch_ids, jobs, self.registry)
                self._record_dispatched(backend_name, jobs)
                continue
            self._running = (backend, self._batch_ids, plan_end, deque(jobs))
            # Pipeline: plan the next batch before this one executes, so
            # its formation overlaps this batch's execution window and
            # the chip pool sees back-to-back batches it can overlap at
            # the barrier.
            self._preplan()
            self._record_dispatched(backend_name, jobs)
        if self._running is not None:
            return self._execute_next()
        # Every queue is drained; wait on whatever the fleet still owes.
        while True:
            harvested = self._harvest_async(0.05)
            if harvested is not None:
                return harvested
            if not any(b.in_flight for b in self._async_backends()):
                return None

    def _execute_next(self) -> BatchReport:
        """Run the next job of the formed synchronous batch and settle it."""
        backend, batch_id, planned_at, waiting = self._running
        job = waiting.popleft()
        if not waiting:
            self._running = None
        start = time.perf_counter()
        if job.trace.enabled:
            job.trace.mark("batch_wait", planned_at, start)
        report = backend.execute_batch(batch_id, [job], self.registry)
        self._record_settled(report, [job], time.perf_counter() - start)
        return report

    def run_all(self) -> ServiceStats:
        """Drain every queue (and every in-flight async batch)."""
        while self.step() is not None:
            pass
        return self.stats
