"""The service front door: a synchronous in-process ``submit/poll/result`` API.

:class:`FheServer` is what a transport wraps — in this repo, the asyncio
TCP listener in :mod:`repro.service.transport` calls one of these on its
event loop's thread. Everything crossing this boundary is wire
bytes: parameter sets, evaluation keys, ciphertext operands, circuit
descriptions, and results all travel in the
:mod:`repro.service.serialization` format, so the server genuinely works
across a process boundary even when a test drives it in-process.

The execution model is cooperative: ``poll`` advances the scheduler by at
most one job per call (an event-loop tick) — on a synchronous backend
each tick picks one job and settles it at its own end — and ``result``
drives it until the requested job is done. ``run`` drains everything;
the transport's pump task drives ``tick`` instead, delivering each
completion between ticks.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.bfv.params import BfvParameters
from repro.bfv.scheme import Ciphertext
from repro.service.backends import (
    Backend,
    ChipPoolBackend,
    SoftwareBackend,
)
from repro.service.circuits import Circuit, CircuitError, rotation_exponents
from repro.service.errors import DEADLINE_EXPIRED, QuotaExceededError
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import Session, SessionRegistry
from repro.service.scheduler import JobScheduler, ServiceStats
from repro.service.serialization import (
    deserialize_circuit,
    deserialize_galois_key,
    deserialize_params,
    deserialize_public_key,
    deserialize_relin_key,
    serialize_ciphertext,
    serialize_circuit,
)
from repro.service.telemetry import (
    JobTrace,
    MetricsRegistry,
    adopt_follower_spans,
    aggregate_phases,
)


#: The decoded-circuit memo (:meth:`FheServer._decode_circuit`) holds at
#: most this many circuits, whose wire bodies total at most this many
#: bytes; a body larger than the byte bound is decoded and not kept.
CIRCUIT_MEMO_ENTRIES = 32
CIRCUIT_MEMO_BYTES = 1 << 20


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (``0`` disables each mechanism).

    ``max_inflight`` caps accepted-but-unsettled jobs for the tenant;
    ``rate``/``burst`` form a token bucket over submits: a submit costs
    one token, the bucket holds at most ``burst`` and refills at
    ``rate`` tokens per second. A ``burst`` with ``rate == 0`` never
    refills — the deterministic configuration the quota tests use.
    Negative counts and a negative or non-finite rate raise
    :class:`ValueError`: each would silently disable a limit or reject
    forever.
    """

    max_inflight: int = 0
    rate: float = 0.0
    burst: int = 0

    def __post_init__(self):
        if self.max_inflight < 0 or self.burst < 0:
            raise ValueError(
                f"quota counts must be >= 0 (0 disables), got "
                f"max_inflight={self.max_inflight} burst={self.burst}"
            )
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(
                f"quota rate must be finite and >= 0 (0 disables), got "
                f"{self.rate}"
            )


class FheServer:
    """Multi-tenant FHE serving endpoint.

    Args:
        pool_size: chips in the cycle-accurate pool backend.
        result_cache_size: capacity (entries) of the content-addressed
            result cache; ``0`` disables caching. Raw-op and circuit
            results are keyed by (params digest, op, rotation steps,
            circuit digest, backend, evaluation-key digest, operand
            hashes), so a repeated identical request — common in
            inference traffic — completes at submit time without
            recomputation. Homomorphic evaluation is deterministic and
            all backends are bit-identical, so a cached result is
            exactly what a fresh execution would return.
        fleet_size: worker count for the multi-process fleet backend
            (``0``, the default, registers no fleet). A request that
            names no backend runs on the fleet when there is one, else
            on the chip pool. With a fleet the server **must** be closed (:meth:`close`, or use it as a
            context manager) to reap the worker processes.
        fleet_mode: ``"process"`` (spawned interpreters) or ``"thread"``
            (the identical worker in threads, for fast tests).
        fault_spec: deterministic fault-injection spec for the fleet
            (see :class:`~repro.service.fleet.FaultPlan`); empty, the
            default, injects none.
        fleet_options: extra :class:`~repro.service.fleet.FleetBackend`
            keyword arguments (``heartbeat_interval``,
            ``heartbeat_timeout``, ``restart``, ``spill_threshold``).
        quotas: per-tenant :class:`TenantQuota` admission limits keyed
            by tenant name (``None``/missing tenant = unlimited). An
            over-quota submit raises the retryable
            :class:`~repro.service.errors.QuotaExceededError` before
            any decode or math.
    """

    def __init__(self, pool_size: int = 4,
                 result_cache_size: int = 256, fleet_size: int = 0,
                 fleet_mode: str = "process", fault_spec: str = "",
                 fleet_options: dict | None = None,
                 quotas: dict[str, TenantQuota] | None = None):
        self.registry = SessionRegistry()
        self.chip_pool = ChipPoolBackend(pool_size=pool_size)
        self.backends: dict[str, Backend] = {
            "chip_pool": self.chip_pool,
            "software": SoftwareBackend(),
        }
        self.fleet = None
        if fleet_size > 0:
            # Imported here: a fleet worker is this module's FheServer,
            # so the fleet module imports (through the transport) this one.
            from repro.service.fleet import FleetBackend

            self.fleet = FleetBackend(
                fleet_size, mode=fleet_mode, fault_spec=fault_spec,
                **(fleet_options or {}),
            )
            self.backends["fleet"] = self.fleet
        elif fleet_options:
            raise ValueError("fleet_options given but fleet_size is 0")
        self._closed = False
        self.scheduler = JobScheduler(
            self.registry, self.backends,
            default="fleet" if self.fleet is not None else "chip_pool",
        )
        # One metrics registry per server, shared down the stack: the
        # scheduler (queue depth, per-job execute time), every backend
        # (worker busy fractions, tower planning), and the transport
        # (frame/byte counters) all write here, so one STATS reply or
        # ``stats_snapshot()`` covers the whole serving path.
        self.metrics = MetricsRegistry()
        self.registry.metrics = self.metrics
        self.scheduler.metrics = self.metrics
        for backend in self.backends.values():
            backend.metrics = self.metrics
        self._submit_hist = self.metrics.histogram(
            "repro_submit_seconds", "submit-path latency per job"
        )
        self._jobs: dict[str, Job] = {}
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        self._cache_capacity = result_cache_size
        # Both keyed by content address (:meth:`_cache_key`): settled
        # results (an LRU of their wire bytes alone), and the jobs
        # waiting on each address's one execution, ``[primary,
        # *followers]`` — kept even with the result cache disabled.
        self._results: OrderedDict[tuple, bytes] = OrderedDict()
        self._inflight: dict[tuple, list[Job]] = {}
        # Circuits decoded from wire bodies, LRU by the body's SHA-256,
        # and the bytes of the bodies held (see CIRCUIT_MEMO_ENTRIES).
        self._circuits: OrderedDict[bytes, tuple[Circuit, int]] = OrderedDict()
        self._circuit_bytes = 0
        # Per-tenant admission control: outstanding job ids (pruned of
        # settled jobs at admission time, so each set stays bounded by
        # its quota) and token-bucket state (tokens, last refill).
        self._quotas = dict(quotas) if quotas else {}
        self._tenant_inflight: dict[str, set[str]] = {}
        self._tenant_buckets: dict[str, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (fleet worker processes); idempotent."""
        if self._closed:
            return
        self._closed = True
        for backend in self.backends.values():
            backend.close()

    def __enter__(self) -> "FheServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Session management (wire-format inputs)
    # ------------------------------------------------------------------

    def open_session(
        self,
        tenant: str,
        params: bytes | BfvParameters,
        *,
        public_key: bytes | None = None,
        relin_key: bytes | None = None,
        galois_keys: tuple[bytes, ...] = (),
    ) -> str:
        """Open a tenant session from serialized parameters and keys.

        A public key is decoded only to check it belongs to ``params``
        (the server never encrypts on a tenant's behalf), then dropped.
        """
        if isinstance(params, (bytes, bytearray)):
            params = deserialize_params(bytes(params))
        if public_key is not None:
            deserialize_public_key(public_key, params)
        relin = (
            deserialize_relin_key(relin_key, params)
            if relin_key is not None else None
        )
        galois = tuple(deserialize_galois_key(g, params) for g in galois_keys)
        session = self.registry.open_session(
            tenant, params, relin=relin, galois=galois
        )
        return session.session_id

    # ------------------------------------------------------------------
    # Job intake
    # ------------------------------------------------------------------

    def submit(
        self,
        session_id: str,
        kind: JobKind | str,
        operands: tuple[bytes | Ciphertext, ...] = (),
        *,
        steps: int = 0,
        payload: object = None,
        backend: str = "",
        deadline: float = 0.0,
    ) -> str:
        """Queue one job; operands may be wire bytes or Ciphertext objects.

        A ``Ciphertext`` operand is framed here, once, so every job
        carries each operand's wire bytes (:attr:`Job.wire_operands`).

        A circuit job's ``payload`` may be a built
        :class:`~repro.service.circuits.Circuit` or its wire bytes (the
        transport passes the blob straight through); its operands bind
        positionally to the circuit's named inputs.

        A job whose content address is already cached completes
        immediately (a cache hit never enters the scheduler). One whose
        address matches a job still queued or running attaches to that
        execution as a dedupe follower — the cache hit wins when both
        apply, since a cached result needs no waiting at all. Everything
        else is queued. Returns the job id to ``poll``/``result``
        against.

        ``deadline`` (seconds from now, ``0`` = none) bounds the job's
        life: expired before dispatch it is shed before the next pick,
        expired in flight the fleet reaps it — either way it fails with
        the typed ``deadline expired`` message.

        A circuit runs as submitted: every step it holds is executed.

        Raises :class:`~repro.service.errors.QuotaExceededError`
        (retryable) when the tenant is over its admission quota — before
        any operand decode, so a rejected submit leaves no server state.
        """
        tenant = None
        if self._quotas:
            tenant = self.registry.get(session_id).tenant
            self._admit_tenant(tenant)
        trace = JobTrace()
        started = time.perf_counter()
        with trace.span("submit"):
            job_id = self._submit_traced(
                trace, session_id, kind, operands,
                steps=steps, payload=payload, backend=backend,
                deadline=deadline,
            )
        trace.stamp_queued()  # queue_wait origin for the scheduler's mark
        self._submit_hist.observe(time.perf_counter() - started)
        if tenant is not None and not self._jobs[job_id].done:
            quota = self._quotas.get(tenant)
            if quota is not None and quota.max_inflight > 0:
                self._tenant_inflight.setdefault(tenant, set()).add(job_id)
        return job_id

    def _admit_tenant(self, tenant: str) -> None:
        """Admission control: runs before any decode or math."""
        quota = self._quotas.get(tenant)
        if quota is None:
            return
        if quota.max_inflight > 0:
            outstanding = self._tenant_inflight.get(tenant, set())
            live = {jid for jid in outstanding if not self._jobs[jid].done}
            self._tenant_inflight[tenant] = live
            if len(live) >= quota.max_inflight:
                self.metrics.counter(
                    "repro_quota_rejections_total",
                    "submits rejected by per-tenant admission control",
                    tenant=tenant, reason="inflight",
                ).inc()
                raise QuotaExceededError(
                    f"tenant {tenant!r} has {len(live)} job(s) in flight "
                    f"(quota {quota.max_inflight}); retry after completions"
                )
        if quota.burst > 0:
            now = time.monotonic()
            tokens, last = self._tenant_buckets.get(
                tenant, (float(quota.burst), now)
            )
            tokens = min(float(quota.burst), tokens + (now - last) * quota.rate)
            if tokens < 1.0:
                self._tenant_buckets[tenant] = (tokens, now)
                self.metrics.counter(
                    "repro_quota_rejections_total",
                    "submits rejected by per-tenant admission control",
                    tenant=tenant, reason="rate",
                ).inc()
                raise QuotaExceededError(
                    f"tenant {tenant!r} exceeded its submit rate "
                    f"({quota.rate}/s, burst {quota.burst}); retry after "
                    "backoff"
                )
            self._tenant_buckets[tenant] = (tokens - 1.0, now)

    def _submit_traced(
        self, trace, session_id, kind, operands, *, steps, payload, backend,
        deadline=0.0,
    ) -> str:
        with trace.span("decode"):
            if isinstance(kind, str):
                kind = JobKind(kind)
            received = kind is JobKind.CIRCUIT and isinstance(
                payload, (bytes, bytearray))
            wire_circuit = b""
            if received:
                # The received frame is the content address and what a
                # fleet worker is sent — no re-encode on the serving hot
                # path. (A non-canonical encoding of the same program
                # would address separately; that only forgoes sharing,
                # never aliases it.)
                wire_circuit = bytes(payload)
            elif kind is JobKind.CIRCUIT and isinstance(payload, Circuit):
                wire_circuit = serialize_circuit(payload)
            circuit_digest = hashlib.sha256(wire_circuit).digest()
            if received:
                payload = self._decode_circuit(wire_circuit, circuit_digest)
            session = self.registry.get(session_id)
            decoded = [
                self.registry.ingest_ciphertext(session, op)
                if isinstance(op, (bytes, bytearray)) else op
                for op in operands
            ]
            wire_ops = tuple(
                bytes(op) if isinstance(op, (bytes, bytearray))
                else serialize_ciphertext(op)
                for op in operands
            )
        if backend and backend not in self.backends:
            raise ValueError(
                f"unknown backend {backend!r} (have {sorted(self.backends)})"
            )
        job = Job(
            session_id=session_id,
            tenant=session.tenant,
            kind=kind,
            operands=decoded,
            steps=steps,
            payload=payload,
            backend=backend,
            wire_operands=wire_ops,
            wire_circuit=wire_circuit,
            trace=trace,
        )
        if deadline > 0:
            job.deadline = time.monotonic() + deadline
        self.metrics.counter(
            "repro_jobs_submitted_total", "jobs submitted",
            tenant=session.tenant,
        ).inc()
        stats = self.scheduler.stats
        with trace.span("cache_check"):
            key = self._cache_key(session, job, circuit_digest)
            cached = self._results.get(key)
            waiting = self._inflight.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            self._jobs[job.job_id] = job
            job.finish(cached)
            job.metrics.backend = "cache"
            stats.jobs_submitted += 1
            stats.cache_hits += 1
            self.metrics.counter(
                "repro_cache_hits_total", "result-cache hits at submit"
            ).inc()
            self.scheduler.settle(job)
            return job.job_id
        if waiting is not None:
            # Submit-before-complete miss: attach to the in-flight
            # execution; the result fans out at harvest time.
            self._jobs[job.job_id] = job
            waiting.append(job)
            job.metrics.backend = "dedupe"
            job.metrics.dedupe_of = waiting[0].job_id
            stats.jobs_submitted += 1
            stats.dedupe_hits += 1
            self.metrics.counter(
                "repro_dedupe_hits_total", "in-queue dedupe followers"
            ).inc()
            return job.job_id
        # Queue first: a rejected submission must leave no server state.
        self.scheduler.submit(job)
        self._jobs[job.job_id] = job
        self._inflight[key] = [job]
        if self._cache_capacity > 0:
            stats.cache_misses += 1
            self.metrics.counter(
                "repro_cache_misses_total",
                "cacheable jobs that had to execute",
            ).inc()
        return job.job_id

    # ------------------------------------------------------------------
    # Result cache (content-addressed, ROADMAP "result caching")
    # ------------------------------------------------------------------

    def _decode_circuit(self, wire: bytes, digest: bytes) -> Circuit:
        """The circuit a wire body encodes, decoded and validated once per
        distinct body (``digest`` is its SHA-256): a :class:`Circuit` is
        frozen, so jobs share it. A body that fails raises every time and
        is never kept."""
        entry = self._circuits.get(digest)
        if entry is not None:
            self._circuits.move_to_end(digest)
            return entry[0]
        circuit = deserialize_circuit(wire)
        if len(wire) <= CIRCUIT_MEMO_BYTES:
            self._circuits[digest] = (circuit, len(wire))
            self._circuit_bytes += len(wire)
            while (len(self._circuits) > CIRCUIT_MEMO_ENTRIES
                   or self._circuit_bytes > CIRCUIT_MEMO_BYTES):
                self._circuit_bytes -= self._circuits.popitem(last=False)[1][1]
        return circuit

    def _cache_key(self, session: Session, job: Job,
                   circuit_digest: bytes) -> tuple:
        """Content address of a job.

        The request kind stays in the address, so a raw op and a
        hand-written circuit with identical bytes never share an entry
        (one settles to a ciphertext, the other to a named-output map).
        The evaluation-key digest keeps tenants with identical parameters
        but different relin/Galois keys from ever sharing an entry, and
        the backend name keeps a request for a specific execution path
        honest (all backends return the same bytes, but a tenant asking
        for chip fidelity gets it). Circuit jobs additionally fold in
        ``circuit_digest``, the SHA-256 of ``job.wire_circuit`` (the
        circuit's wire encoding as :meth:`submit` received it, or encoded
        it, once, from a ``Circuit``) that the submit took once, so two
        tenants submitting the same program on the same inputs share one
        execution, and two different programs never can. The server runs
        the circuit as submitted, so those bytes are also the program
        that executes. The operands part hashes ``job.wire_operands``,
        each operand's frame.

        The same address drives both the result cache and in-queue
        dedupe, so dedupe stays on when caching is disabled.
        """
        operands = hashlib.sha256()
        for wire in job.wire_operands:
            operands.update(hashlib.sha256(wire).digest())
        return (
            session.digest,
            job.kind.value,
            job.steps,
            circuit_digest,
            job.backend or self.scheduler.default,
            self._eval_key_digest(session, job.payload),
            operands.digest(),
        )

    def _eval_key_digest(self, session: Session, circuit: Circuit) -> bytes:
        """Digest of the evaluation key material the circuit would use:
        the content digests the registry took when each key was uploaded.

        A job that will fail for want of a key (or for a no-op rotation)
        gets a sentinel instead; failures are never cached.
        """
        parts = []
        if circuit.uses_relin:
            if session.relin is None:
                return b"no-relin"
            parts.append(session.relin_digest)
        if circuit.uses_rotations:
            try:
                exponents = rotation_exponents(circuit, session.params)
            except CircuitError:
                return b"invalid-rotation"
            for exponent in exponents:
                digest = session.galois_digests.get(exponent)
                if digest is None:
                    return b"no-galois"
                parts.append(digest)
        return b"".join(parts)  # b"" for linear circuits: no key material

    def _harvest(self) -> None:
        """Settle the jobs waiting on each content address, in one pass.

        While an address's primary is still queued or running, its
        followers whose deadline passed fail with the typed ``deadline
        expired`` error: a follower sits in no scheduler queue, so the
        scheduler's shed never visits it. A primary shed for its *own*
        deadline hands the execution to its first follower, which is
        queued in its place under its own deadline. Any other settled
        primary fans its result (or failure) out to its followers,
        retires the address and, when it succeeded, caches the result —
        the next identical submit then hits the cache, or re-executes
        if the primary failed or caching is off. Followers and the cache
        share the primary's result, one ``bytes`` object.
        """
        now = time.monotonic()
        for key, waiting in list(self._inflight.items()):
            primary, followers = waiting[0], waiting[1:]
            if not primary.done:
                expired = [job for job in followers
                           if job.deadline is not None and job.deadline <= now]
                for follower in expired:
                    self.scheduler.shed(
                        follower, "follower",
                        f"{DEADLINE_EXPIRED} awaiting deduped execution",
                    )
                if expired:
                    self._inflight[key] = [j for j in waiting if not j.done]
                continue
            if followers and (primary.error or "").startswith(
                DEADLINE_EXPIRED
            ):
                successor = followers[0]
                successor.metrics.backend = ""
                for follower in followers:
                    follower.metrics.dedupe_of = successor.job_id
                successor.metrics.dedupe_of = ""
                self.scheduler.submit(successor)
                # Already counted once, as a dedupe follower.
                self.scheduler.stats.jobs_submitted -= 1
                self._inflight[key] = followers
                continue
            del self._inflight[key]
            for follower in followers:
                # The primary's execution window is the follower's
                # latency too: adopt those spans (clipped at the
                # follower's own queue time) so the profiler stops
                # attributing follower wall time to queue_wait.
                adopt_follower_spans(follower.trace, primary.trace)
                if primary.status is JobStatus.DONE:
                    follower.finish(primary.result)
                else:
                    follower.fail(primary.error or "primary job failed")
                self.scheduler.settle(follower)
            if self._cache_capacity > 0 and primary.status is JobStatus.DONE:
                self._results[key] = primary.result
                while len(self._results) > self._cache_capacity:
                    self._results.popitem(last=False)

    # ------------------------------------------------------------------
    # Progress and results
    # ------------------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def poll(self, job_id: str) -> JobStatus:
        """Report a job's status, advancing the scheduler one tick."""
        job = self._job(job_id)
        if not job.done:
            self.tick()
        return job.status

    def status(self, job_id: str) -> JobStatus:
        """Report a job's status without advancing the scheduler.

        The read-only sibling of :meth:`poll`, for callers (the async
        transport) that drive execution elsewhere.
        """
        return self._job(job_id).status

    def job_error(self, job_id: str) -> str | None:
        """The failure message of a failed job (``None`` otherwise)."""
        return self._job(job_id).error

    def tick(self) -> bool:
        """Advance the scheduler by one tick; ``True`` while work remains.

        A tick picks and settles one job on a synchronous backend (or
        dispatches queued fleet jobs and harvests the first reply), so
        queued jobs complete one tick apart. Completion bookkeeping
        (result-cache harvest, dedupe fan-out) runs even on an idle
        tick, and may queue a follower in its shed primary's place, so
        a caller looping ``tick()`` until it returns ``False`` observes
        every job settled.
        """
        settled = self.scheduler.step()
        self._harvest()
        return settled is not None or self.scheduler.pending > 0

    def result(self, job_id: str) -> bytes:
        """Block (drive the scheduler) until the job finishes.

        Returns as soon as this job is settled; jobs queued behind it
        may not have run yet.

        The result is the job's wire bytes, exactly what crosses a
        transport: a framed ciphertext for raw ops, a framed
        named-output map for circuits. The job was framed when it
        settled, so this encodes nothing.

        Raises:
            RuntimeError: if the job failed (message carries the cause).
        """
        job = self._job(job_id)
        while not job.done and self.tick():
            pass
        if job.status is JobStatus.FAILED:
            raise RuntimeError(f"job {job_id} failed: {job.error}")
        if not job.done:
            raise RuntimeError(f"job {job_id} is still {job.status.value}")
        return job.result

    def job_metrics(self, job_id: str):
        return self._job(job_id).metrics

    def run(self) -> ServiceStats:
        """Drain every queued job."""
        while self.tick():
            pass
        return self.scheduler.stats

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def pool_report(self) -> dict:
        """Tower-sharding view of the chip pool: makespan and fidelity.

        ``wall_cycles`` (max cumulative per-worker busy cycles, the
        makespan) against ``total_cycles`` of work;
        ``per_worker_cycles`` shows the spread,
        ``reprograms`` the tower units for which each worker's driver
        found its chip on another ``(q, n)`` (or none yet) and paid a
        twiddle download — one per modulus homed on a chip, unless a
        chip homes several tables and alternates between them —
        ``tower_cycles`` the per-tower totals over every chip-executed
        job, ``fidelity`` counts jobs per execution path (``chip`` /
        ``model``, plus ``relin_engine`` / ``relin_model`` for jobs that
        relinearize), and ``result_cache`` reports the content-addressed
        machinery: cache hits complete at submit time and cost the pool
        nothing, and ``dedupe_hits`` counts in-queue dedupe followers —
        identical jobs submitted before the first completed, attached to
        its one execution with the result fanned out.
        """
        pool = self.chip_pool
        stats = self.scheduler.stats
        return {
            "pool": len(pool.workers),
            "wall_cycles": pool.wall_cycles,
            "total_cycles": pool.total_cycles,
            "per_worker_cycles": [w.busy_cycles for w in pool.workers],
            "reprograms": [w.driver.reprograms for w in pool.workers],
            "tower_cycles": list(stats.tower_cycles),
            "fidelity": dict(stats.fidelity),
            "per_tenant_completed": dict(stats.per_tenant_completed),
            "per_tenant_failed": dict(stats.per_tenant_failed),
            "result_cache": {
                "hits": stats.cache_hits,
                "misses": stats.cache_misses,
                "dedupe_hits": stats.dedupe_hits,
                "entries": len(self._results),
                "capacity": self._cache_capacity,
            },
        }

    def fleet_report(self) -> dict:
        """Worker-fleet liveness/requeue view (raises without a fleet)."""
        if self.fleet is None:
            raise RuntimeError("this server runs no fleet (fleet_size=0)")
        return self.fleet.fleet_report()

    # ------------------------------------------------------------------
    # Telemetry exposition
    # ------------------------------------------------------------------

    def stats_text(self) -> str:
        """Prometheus-style text rendering of every metric (STATS reply)."""
        return self.metrics.render()

    def stats_snapshot(self) -> dict:
        """Structured metrics snapshot (counters, gauges, percentiles)."""
        return self.metrics.snapshot()

    def job_trace(self, job_id: str):
        """The :class:`~repro.service.telemetry.JobTrace` of a known job.

        Raises ``KeyError`` for unknown job ids (the transport turns
        that into a wire ``ERROR`` frame, mirroring ``status``).
        """
        return self._job(job_id).trace

    def phase_report(self, backend: str = "", until_done: bool = True):
        """Aggregate phase attribution over every settled job's trace.

        Args:
            backend: restrict to jobs whose :class:`JobMetrics` name this
                backend (``""`` aggregates everything, including cache
                and dedupe settlements).
            until_done: stop each job's attribution at completion,
                excluding post-completion reply time from both
                numerator and denominator.

        Returns the :func:`~repro.service.telemetry.aggregate_phases`
        rows — per-phase seconds and percent of summed job wall time,
        with a trailing ``"(total)"`` coverage row.
        """
        if backend in self.backends:
            # Accept the registry key ("chip_pool") as well as the
            # backend's display name ("chip_pool_x4").
            backend = self.backends[backend].name
        traces = [
            job.trace for job in self._jobs.values()
            if job.done and (not backend or job.metrics.backend == backend)
        ]
        return aggregate_phases(traces, until_done=until_done)
