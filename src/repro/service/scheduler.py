"""Job scheduler: fair multi-tenant picks over compute backends.

Jobs land in per-tenant FIFO queues. Each pick takes **one** job,
round-robin across tenants — one job per tenant per rotation — so a
tenant flooding the queue cannot starve a light one, whatever parameter
set or backend either asked for (the fairness property the service
tests prove with dispatch sequence numbers).

Every backend sees the same two calls: ``dispatch(job, registry)`` and
``poll(timeout)``. A synchronous backend runs the job inside
``dispatch`` and hands the settled job to the next ``poll`` — the
host-side counterpart of CoFHEE's per-command completion interrupt —
while the worker fleet ships it to a worker process and hands it back
once the reply arrives. The scheduler does not know which kind it is
driving, so a caller between steps (the transport pump) delivers each
result as soon as its own job is done.

Tower sharding happens one level down, inside the chip pool (see
:class:`~repro.service.backends.ChipPoolBackend`: each tower runs on its
modulus's home chip): a 3-tower tenant's job occupies more workers, but
picks stay round-robin. Backends record each job's cost on its
:class:`~repro.service.jobs.JobMetrics` and build no report; the
scheduler folds every settled job into :class:`ServiceStats`' running
totals: total cycles (work), makespan cycles (wall time on the pool),
and the fidelity counts that say which jobs really executed on worker
drivers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.service.backends import Backend
from repro.service.errors import DEADLINE_EXPIRED
from repro.service.jobs import Job, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.telemetry import MetricsRegistry


@dataclass
class BatchReport:
    """What one executed job cost, as :meth:`ServiceStats.record` saw it.

    ``batch_id`` is the job's ``dispatched_seq``; ``cycles`` and
    ``makespan_cycles`` are copied from its
    :class:`~repro.service.jobs.JobMetrics`.
    """

    batch_id: int
    backend: str
    jobs: int
    cycles: int
    makespan_cycles: int = 0


@dataclass
class ServiceStats:
    """Aggregate accounting across every executed job.

    ``total_cycles``, ``makespan_cycles``, ``fidelity`` and
    ``tower_cycles`` are running totals that :meth:`record` folds from
    each executed job's :class:`~repro.service.jobs.JobMetrics`.
    ``makespan_cycles`` sums per-job makespans, the modeled wall time on
    the chip pool: jobs execute one after another, so their makespans
    add, and with tower sharding it drops below ``total_cycles`` (the
    work does not shrink — it spreads). ``fidelity`` counts jobs per
    execution path: ``"chip"`` (tensors ran tower-by-tower on worker
    drivers), ``"model"`` (``TimingModel`` pricing: no tensor step, or
    moduli not chip-native), ``"relin_engine"`` (relinearization ran
    through the batched engine fold, its tail priced on the
    then-least-loaded worker), ``"relin_model"`` (tail model-priced only — params the
    engine cannot carry). ``tower_cycles`` sums the chip-executed jobs'
    per-tower cycles, index-aligned with their CoFHEE basis.
    ``batches`` holds one :class:`BatchReport` per executed job, in
    settlement order.

    ``cache_hits`` / ``cache_misses`` count the server's content-addressed
    result cache: a hit completes the job at submit time without ever
    reaching a backend (so hit jobs appear in ``jobs_completed`` but in no
    :class:`BatchReport`); a miss is a cacheable job that had to execute.

    ``dedupe_hits`` counts in-queue dedupe — cache-aware scheduling's
    submit-before-complete case: a job whose content address matches one
    already queued or running attaches to that execution as a follower
    instead of executing again, and the one result fans out to every
    attached job when the primary completes. Followers appear in
    ``jobs_submitted``/``jobs_completed`` but in no report.

    Per-tenant settlement is split by outcome —
    ``per_tenant_completed`` / ``per_tenant_failed`` — so a tenant whose
    jobs keep failing no longer looks identical to one being served.
    :meth:`JobScheduler.settle` is the one place that counts them.
    """

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedupe_hits: int = 0
    total_cycles: int = 0
    makespan_cycles: int = 0
    fidelity: dict[str, int] = field(default_factory=dict)
    tower_cycles: list[int] = field(default_factory=list)
    batches: list[BatchReport] = field(default_factory=list)
    per_tenant_completed: dict[str, int] = field(default_factory=dict)
    per_tenant_failed: dict[str, int] = field(default_factory=dict)

    def settle(self, job: Job) -> None:
        """Count one finished job (completed or failed) for its tenant."""
        if job.status is JobStatus.FAILED:
            self.jobs_failed += 1
            bucket = self.per_tenant_failed
        else:
            self.jobs_completed += 1
            bucket = self.per_tenant_completed
        bucket[job.tenant] = bucket.get(job.tenant, 0) + 1

    def record(self, job: Job, backend: str) -> None:
        """Fold one executed job's cost into the running totals.

        Every job's cycles count, a failed one's too. A job counts
        toward ``fidelity`` and ``tower_cycles`` only when it is DONE and
        its backend named a path: the chip pool names its path and the
        relinearization's, a fleet job its worker's path only, and the
        software backend none.
        """
        m = job.metrics
        self.total_cycles += m.cycles
        self.makespan_cycles += m.makespan_cycles
        self.batches.append(BatchReport(
            batch_id=m.dispatched_seq, backend=backend, jobs=1,
            cycles=m.cycles, makespan_cycles=m.makespan_cycles,
        ))
        if job.status is not JobStatus.DONE or not m.fidelity:
            return
        paths = [m.fidelity]
        if m.relin_fidelity:
            paths.append(f"relin_{m.relin_fidelity}")
        for path in paths:
            self.fidelity[path] = self.fidelity.get(path, 0) + 1
        for t, cycles in enumerate(m.tower_cycles):
            if t == len(self.tower_cycles):
                self.tower_cycles.append(0)
            self.tower_cycles[t] += cycles


class JobScheduler:
    """Round-robin fair picks over per-tenant queues, one job at a time.

    Args:
        registry: the shared session registry.
        backends: backend instances keyed by name; ``default`` names the
            one used when a job does not request a backend.
    """

    def __init__(self, registry: SessionRegistry, backends: dict[str, Backend],
                 default: str):
        if default not in backends:
            raise ValueError(f"default backend {default!r} not in {sorted(backends)}")
        self.registry = registry
        self.backends = backends
        self.default = default
        self._queues: dict[str, deque[Job]] = {}
        self._rotation: deque[str] = deque()
        self._submit_seq = 0
        self._dispatch_seq = 0
        #: Dispatched jobs that have not come back: job id ->
        #: the ``perf_counter`` instant of their dispatch.
        self._in_flight: dict[str, float] = {}
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
        self._set_queue_depth()
        return job

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def _set_queue_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_queue_depth", "jobs queued and not yet dispatched"
            ).set(self.pending)

    def _shed_expired(self) -> None:
        """Fail still-queued jobs whose deadline already passed.

        Runs before every pick: an expired job never costs a placement
        or a worker round trip — it settles immediately with the typed
        ``deadline expired`` failure the client maps to a terminal
        :class:`JobFailedError` kind.
        """
        now = time.monotonic()
        for tenant, queue in self._queues.items():
            expired = [job for job in queue
                       if job.deadline is not None and job.deadline <= now]
            if not expired:
                continue
            for job in expired:
                self.shed(job, "queued", f"{DEADLINE_EXPIRED} before dispatch")
            self._queues[tenant] = deque(job for job in queue if not job.done)
            self._set_queue_depth()

    def shed(self, job: Job, stage: str, message: str) -> None:
        """Fail a job past its deadline at ``stage`` and settle it."""
        job.fail(message)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_deadline_shed_total", "jobs failed past their deadline",
                stage=stage, tenant=job.tenant,
            ).inc()
        self.settle(job)

    def settle(self, job: Job) -> None:
        """Count one settled job: the only place that does.

        Every settlement comes through here — executed, shed, a cache
        hit, a dedupe follower — so ``stats`` and
        ``repro_jobs_settled_total`` always agree.
        """
        self.stats.settle(job)
        if self.metrics is not None:
            failed = job.status is JobStatus.FAILED
            self.metrics.counter(
                "repro_jobs_settled_total", "jobs settled by outcome",
                tenant=job.tenant, outcome="failed" if failed else "completed",
            ).inc()

    # -- pick, dispatch, harvest ---------------------------------------------

    def _pick(self) -> Job | None:
        """The head of the next tenant queue with work, or ``None``.

        The rotation advances one tenant per pick, so over consecutive
        picks every tenant with queued work gets a turn regardless of how
        many jobs anyone else has queued.
        """
        for _ in range(len(self._rotation)):
            queue = self._queues[self._rotation[0]]
            self._rotation.rotate(-1)
            if queue:
                return queue.popleft()
        return None

    def _dispatch(self, job: Job) -> None:
        job.status = JobStatus.RUNNING
        job.metrics.dispatched_seq = self._dispatch_seq
        self._dispatch_seq += 1
        self._set_queue_depth()
        start = time.perf_counter()
        if job.trace.queued_at is not None:
            job.trace.mark("queue_wait", job.trace.queued_at, start)
        self.backends[job.backend].dispatch(job, self.registry)
        self._in_flight[job.job_id] = start

    def _harvest(self, timeout: float) -> Job | None:
        """Settle every job that is back; returns the last one."""
        last = None
        for backend in self.backends.values():
            for job in backend.poll(timeout):
                self._settle(backend, job)
                last = job
        return last

    def _settle(self, backend: Backend, job: Job) -> None:
        started = self._in_flight.pop(job.job_id)
        job.metrics.host_seconds = time.perf_counter() - started
        self.stats.record(job, backend.name)
        self.settle(job)
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_job_execute_seconds",
                "measured wall seconds from dispatch to settlement per job",
                backend=backend.name,
            ).observe(job.metrics.host_seconds)

    def step(self) -> Job | None:
        """Pick, dispatch and harvest until one job settles.

        Each pass sheds expired queued jobs, picks one job and dispatches
        it, then settles the jobs that are back. A synchronous backend
        finishes its job inside ``dispatch``, so the pass that picked it
        returns that job: one job per call. A fleet job only
        leaves for a worker, so the loop picks again — every queued fleet
        job reaches a worker before the call waits — and returns once a
        reply settles one. ``None`` means idle: nothing queued and
        nothing in flight.
        """
        while True:
            self._shed_expired()
            job = self._pick()
            if job is not None:
                self._dispatch(job)
            elif not self._in_flight:
                return None
            settled = self._harvest(0.0 if job is not None else 0.05)
            if settled is not None:
                return settled

    def run_all(self) -> ServiceStats:
        """Drain every queue and every in-flight job."""
        while self.step() is not None:
            pass
        return self.stats
