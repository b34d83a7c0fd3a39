"""The service front door: a synchronous in-process ``submit/poll/result`` API.

:class:`FheServer` is what a transport wraps — in this repo, the asyncio
TCP listener in :mod:`repro.service.transport` runs one of these on a
dedicated worker thread. Everything crossing this boundary is wire
bytes: parameter sets, evaluation keys, ciphertext operands, circuit
descriptions, and results all travel in the
:mod:`repro.service.serialization` format, so the server genuinely works
across a process boundary even when a test drives it in-process.

The execution model is cooperative: ``poll`` advances the scheduler by at
most one job per call (an event-loop tick) — on a synchronous backend a
formed batch runs one job per tick, each settled at its own end — and
``result`` drives it until the requested job is done, not its batch.
``run`` drains everything; the transport's pump task drives ``tick``
instead, delivering each completion between ticks.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.bfv.params import BfvParameters
from repro.bfv.scheme import Ciphertext
from repro.service.backends import (
    Backend,
    BackendError,
    ChipPoolBackend,
    FastNttBackend,
    SoftwareBackend,
    _galois_exponent,
    default_app_params,
)
from repro.service.circuits import Circuit, CircuitError, rotation_exponents
from repro.service.errors import QuotaExceededError
from repro.service.optimizer import DEFAULT_LEVEL, LEVELS, optimize_circuit
from repro.service.fleet import FleetBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import Session, SessionRegistry
from repro.service.scheduler import BatchingScheduler, ServiceStats
from repro.service.serialization import (
    deserialize_circuit,
    deserialize_galois_key,
    deserialize_params,
    deserialize_public_key,
    deserialize_relin_key,
    serialize_ciphertext,
    serialize_circuit,
    serialize_circuit_outputs,
    serialize_galois_key,
    serialize_relin_key,
)
from repro.service.telemetry import (
    MetricsRegistry,
    adopt_batch_spans,
    aggregate_phases,
    new_trace,
)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits (``0`` disables each mechanism).

    ``max_inflight`` caps accepted-but-unsettled jobs for the tenant;
    ``rate``/``burst`` form a token bucket over submits: a submit costs
    one token, the bucket holds at most ``burst`` and refills at
    ``rate`` tokens per second. A ``burst`` with ``rate == 0`` never
    refills — the deterministic configuration the quota tests use.
    """

    max_inflight: int = 0
    rate: float = 0.0
    burst: int = 0


class FheServer:
    """Multi-tenant FHE serving endpoint.

    Args:
        pool_size: chips in the cycle-accurate pool backend.
        max_batch: scheduler batch size.
        default_backend: backend used when a request names none
            (``chip_pool``, ``software``, or ``fastntt``).
        strict_fidelity: fail EvalMult jobs whose tensor cannot execute
            on-chip instead of silently pricing them from the model.
        pool_engine: host-side functional engine for the chip pool
            (``"exact"`` or ``"fast"``; results are bit-identical).
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
            (``0``, the default, registers no fleet). With a fleet the
            server **must** be closed (:meth:`close`, or use it as a
            context manager) to reap the worker processes.
        fleet_mode: ``"process"`` (spawned interpreters) or ``"thread"``
            (the identical worker loop in threads, for fast tests).
        fault_spec: deterministic fault-injection spec for the fleet
            (see :class:`~repro.service.fleet.FaultPlan`); defaults to
            the ``REPRO_FAULT`` environment variable.
        fleet_options: extra :class:`~repro.service.fleet.FleetBackend`
            keyword arguments (``chips``, ``heartbeat_interval``,
            ``heartbeat_timeout``, ``worker_window``, ``max_attempts``,
            ``restart``, ``spill_threshold``).
        quotas: per-tenant :class:`TenantQuota` admission limits keyed
            by tenant name (``None``/missing tenant = unlimited). An
            over-quota submit raises the retryable
            :class:`~repro.service.errors.QuotaExceededError` before
            any decode or math.
        optimizer_level: default circuit optimization level applied at
            submit — ``"none"``, ``"exact"`` (byte-exact passes only;
            the default), or ``"lazy"`` (adds deferred relinearization,
            plaintext-equal but not byte-identical to the unoptimized
            program). A per-submit ``optimizer=`` argument overrides it.
    """

    def __init__(self, pool_size: int = 4, max_batch: int = 8,
                 default_backend: str = "chip_pool",
                 strict_fidelity: bool = False, pool_engine: str = "exact",
                 result_cache_size: int = 256, fleet_size: int = 0,
                 fleet_mode: str = "process", fault_spec: str | None = None,
                 fleet_options: dict | None = None,
                 quotas: dict[str, TenantQuota] | None = None,
                 optimizer_level: str = DEFAULT_LEVEL):
        if optimizer_level not in LEVELS:
            raise ValueError(
                f"optimizer_level must be one of {sorted(LEVELS)}, "
                f"got {optimizer_level!r}"
            )
        self.optimizer_level = optimizer_level
        self.registry = SessionRegistry()
        self.chip_pool = ChipPoolBackend(
            pool_size=pool_size, strict_fidelity=strict_fidelity,
            engine=pool_engine,
        )
        self.backends: dict[str, Backend] = {
            "chip_pool": self.chip_pool,
            "software": SoftwareBackend(),
            "fastntt": FastNttBackend(),
        }
        self.fleet: FleetBackend | None = None
        if fleet_size > 0:
            self.fleet = FleetBackend(
                fleet_size, mode=fleet_mode, pool_engine=pool_engine,
                strict_fidelity=strict_fidelity, fault_spec=fault_spec,
                **(fleet_options or {}),
            )
            self.backends["fleet"] = self.fleet
        elif fleet_options:
            raise ValueError("fleet_options given but fleet_size is 0")
        self._closed = False
        self.scheduler = BatchingScheduler(
            self.registry, self.backends, default=default_backend,
            max_batch=max_batch,
        )
        # One metrics registry per server, shared down the stack: the
        # scheduler (queue depth, batch occupancy), every backend
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
        self._result_cache: OrderedDict[tuple, Ciphertext] = OrderedDict()
        self._pending_cache: dict[str, tuple] = {}
        # In-queue dedupe (cache-aware scheduling): content address ->
        # the queued/running "primary" job id, and primary -> followers
        # awaiting its result. Works even with the result cache disabled.
        self._dedupe: dict[tuple, str] = {}
        self._followers: dict[str, list[str]] = {}
        # Evaluation-key digests, memoized by key-object identity (the
        # held reference keeps ids stable while the entry lives);
        # re-uploading a key yields a new object and therefore a new
        # digest. LRU-bounded so session churn cannot grow it forever.
        self._key_digests: OrderedDict[int, tuple[object, bytes]] = OrderedDict()
        self._key_digest_capacity = 128
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
        """Open a tenant session from serialized parameters and keys."""
        if isinstance(params, (bytes, bytearray)):
            params = deserialize_params(bytes(params))
        public = (
            deserialize_public_key(public_key, params)
            if public_key is not None else None
        )
        relin = (
            deserialize_relin_key(relin_key, params)
            if relin_key is not None else None
        )
        galois = tuple(deserialize_galois_key(g, params) for g in galois_keys)
        session = self.registry.open_session(
            tenant, params, public=public, relin=relin, galois=galois
        )
        return session.session_id

    def open_app_session(self, tenant: str, kind: JobKind) -> str:
        """Open a session on the canonical parameter set of a mini app."""
        session = self.registry.open_session(tenant, default_app_params(kind))
        return session.session_id

    def session(self, session_id: str) -> Session:
        return self.registry.get(session_id)

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
        optimizer: str | None = None,
    ) -> str:
        """Queue one job; operands may be wire bytes or Ciphertext objects.

        A circuit job's ``payload`` may be a built
        :class:`~repro.service.circuits.Circuit` or its wire bytes (the
        transport passes the blob straight through); its operands bind
        positionally to the circuit's named inputs.

        A cacheable job (raw op or circuit) whose content address is
        already cached completes immediately (a cache hit never enters
        the scheduler). One whose address matches a job still queued or
        running attaches to that execution as a dedupe follower — the
        cache hit wins when both apply, since a cached result needs no
        waiting at all. Everything else is queued. Returns the job id to
        ``poll``/``result`` against.

        ``deadline`` (seconds from now, ``0`` = none) bounds the job's
        life: expired before dispatch it is shed at batch-plan time,
        expired in flight the fleet reaps it — either way it fails with
        the typed ``deadline expired`` message.

        ``optimizer`` overrides the server's configured circuit
        optimization level for this submit (``"none"``, ``"exact"``, or
        ``"lazy"`` — see :mod:`repro.service.optimizer`); circuits are
        rewritten server-side before queueing, and the per-pass rewrite
        report lands in the job's metrics.

        Raises :class:`~repro.service.errors.QuotaExceededError`
        (retryable) when the tenant is over its admission quota — before
        any operand decode, so a rejected submit leaves no server state.
        """
        tenant = None
        if self._quotas:
            tenant = self.registry.get(session_id).tenant
            self._admit_tenant(tenant)
        trace = new_trace()
        started = time.perf_counter()
        with trace.span("submit"):
            job_id = self._submit_traced(
                trace, session_id, kind, operands,
                steps=steps, payload=payload, backend=backend,
                deadline=deadline, optimizer=optimizer,
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
        deadline=0.0, optimizer=None,
    ) -> str:
        opt_level = optimizer if optimizer is not None else self.optimizer_level
        if opt_level not in LEVELS:
            raise ValueError(
                f"optimizer must be one of {sorted(LEVELS)}, "
                f"got {opt_level!r}"
            )
        rewrite = None
        with trace.span("decode"):
            if isinstance(kind, str):
                kind = JobKind(kind)
            circuit_digest = b""
            if kind is JobKind.CIRCUIT:
                if isinstance(payload, (bytes, bytearray)):
                    # The received frame is the content address — no
                    # re-encode on the serving hot path. (A non-canonical
                    # encoding of the same program would address
                    # separately; that only forgoes sharing, never
                    # aliases it.)
                    raw = bytes(payload)
                    circuit_digest = hashlib.sha256(raw).digest()
                    payload = deserialize_circuit(raw)
                elif isinstance(payload, Circuit):
                    circuit_digest = hashlib.sha256(
                        serialize_circuit(payload)
                    ).digest()
                if isinstance(payload, Circuit):
                    # Server-side optimization: the content address stays
                    # the *submitted* program (so identical submits share
                    # cache entries regardless of what the passes did),
                    # while the queued job carries the rewritten circuit.
                    with trace.span("optimize"):
                        payload, rewrite = optimize_circuit(
                            payload, level=opt_level
                        )
                    for pass_name in (
                        "constant_fold", "cse", "dce", "relin_lazy"
                    ):
                        eliminated = rewrite.get(pass_name, 0)
                        if eliminated:
                            self.metrics.counter(
                                "repro_circuit_steps_eliminated_total",
                                "circuit steps eliminated by optimizer "
                                "passes, by pass",
                                **{"pass": pass_name},
                            ).inc(eliminated)
            session = self.registry.get(session_id)
            decoded = [
                self.registry.ingest_ciphertext(session, op)
                if isinstance(op, (bytes, bytearray)) else op
                for op in operands
            ]
            # When every operand arrived as wire bytes, keep the frames:
            # the fleet forwards them to workers without re-serializing.
            wire_ops = tuple(
                bytes(op) for op in operands
                if isinstance(op, (bytes, bytearray))
            )
            if len(wire_ops) != len(operands):
                wire_ops = ()
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
            trace=trace,
        )
        if deadline > 0:
            job.deadline = time.monotonic() + deadline
        if rewrite is not None:
            job.metrics.rewrite = rewrite
        self.metrics.counter(
            "repro_jobs_submitted_total", "jobs submitted",
            tenant=session.tenant,
        ).inc()
        stats = self.scheduler.stats
        with trace.span("cache_check"):
            key = self._cache_key(
                session, job, operands, circuit_digest, opt_level
            )
            cached = key is not None and key in self._result_cache
            primary_id = self._dedupe.get(key) if key is not None else None
        if cached:
            self._result_cache.move_to_end(key)
            job.finish(self._result_cache[key])
            job.metrics.backend = "cache"
            job.metrics.batch_id = 0
            stats.jobs_submitted += 1
            stats.cache_hits += 1
            stats.settle(job)
            self.metrics.counter(
                "repro_cache_hits_total", "result-cache hits at submit"
            ).inc()
            self._jobs[job.job_id] = job
            return job.job_id
        if primary_id is not None and not self._jobs[primary_id].done:
            # Submit-before-complete miss: attach to the in-flight
            # execution; the result fans out at harvest time.
            job.metrics.backend = "dedupe"
            job.metrics.dedupe_of = primary_id
            self._jobs[job.job_id] = job
            self._followers.setdefault(primary_id, []).append(job.job_id)
            stats.jobs_submitted += 1
            stats.dedupe_hits += 1
            self.metrics.counter(
                "repro_dedupe_hits_total", "in-queue dedupe followers"
            ).inc()
            return job.job_id
        # Queue first: a rejected submission must leave no server state.
        self.scheduler.submit(job)
        self._jobs[job.job_id] = job
        if key is not None:
            self._dedupe[key] = job.job_id
            if self._cache_capacity > 0:
                stats.cache_misses += 1
                self.metrics.counter(
                    "repro_cache_misses_total",
                    "cacheable jobs that had to execute",
                ).inc()
                self._pending_cache[job.job_id] = key
        return job.job_id

    # ------------------------------------------------------------------
    # Result cache (content-addressed, ROADMAP "result caching")
    # ------------------------------------------------------------------

    def _cache_key(self, session: Session, job: Job, raw_operands: tuple,
                   circuit_digest: bytes = b"",
                   opt_level: str = "") -> tuple | None:
        """Content address of a raw-op or circuit job (``None`` otherwise).

        Legacy in-process app jobs are excluded (their payloads are
        verified against a plaintext reference on every run). The
        evaluation-key digest keeps tenants with identical parameters but
        different relin/Galois keys from ever sharing an entry, and the
        backend name keeps a request for a specific execution path honest
        (all backends return the same bytes, but a tenant asking for chip
        fidelity gets it). Circuit jobs additionally fold in
        ``circuit_digest`` — the SHA-256 of the circuit's wire encoding,
        computed by :meth:`submit` straight from the received frame — so
        two tenants submitting the same program on the same inputs share
        one execution, and two different programs never can.

        The same address drives both the result cache and in-queue
        dedupe, so dedupe stays on when caching is disabled.
        """
        if job.kind.is_app:
            return None
        operands = hashlib.sha256()
        for raw, ct in zip(raw_operands, job.operands):
            data = (
                bytes(raw) if isinstance(raw, (bytes, bytearray))
                else serialize_ciphertext(ct)
            )
            operands.update(hashlib.sha256(data).digest())
        return (
            session.digest,
            job.kind.value,
            job.steps,
            circuit_digest,
            # The effective optimization level is part of a circuit's
            # address: "lazy" serves different (plaintext-equal) bytes
            # than "exact"/"none", so the levels must never share an
            # entry. Raw ops are untouched by the optimizer.
            opt_level if job.kind is JobKind.CIRCUIT else "",
            job.backend or self.scheduler.default,
            self._eval_key_digest(session, job),
            operands.digest(),
        )

    def _eval_key_digest(self, session: Session, job: Job) -> bytes:
        """Digest of the evaluation key material the job would use."""
        if job.kind is JobKind.CIRCUIT:
            parts = []
            if job.payload.uses_relin:
                key = session.relin
                if key is None:
                    return b"no-relin"  # the job will fail; never cached
                parts.append(self._key_digest(
                    key, lambda: serialize_relin_key(key, session.params)
                ))
            if job.payload.uses_rotations:
                try:
                    exponents = rotation_exponents(
                        job.payload, session.params
                    )
                except CircuitError:
                    return b"invalid-rotation"
                for exponent in exponents:
                    gkey = session.galois.get(exponent)
                    if gkey is None:
                        return b"no-galois"
                    parts.append(self._key_digest(
                        gkey,
                        lambda k=gkey: serialize_galois_key(k, session.params),
                    ))
            return b"".join(parts)  # b"" for linear circuits: no key material
        if job.kind in (JobKind.MULTIPLY, JobKind.SQUARE,
                        JobKind.RELINEARIZE):
            key = session.relin
            if key is None:
                return b"no-relin"  # a relin circuit will fail; never cached
            return self._key_digest(
                key, lambda: serialize_relin_key(key, session.params)
            )
        if job.kind is JobKind.ROTATE:
            try:
                exponent = _galois_exponent(session, job.steps)
            except BackendError:
                return b"invalid-rotation"  # the job will fail; never cached
            key = session.galois.get(exponent)
            if key is None:
                return b"no-galois"
            return self._key_digest(
                key, lambda: serialize_galois_key(key, session.params)
            )
        return b""  # add/sub use no key material

    def _key_digest(self, key: object, make_bytes) -> bytes:
        """Memoized SHA-256 of a serialized evaluation key (LRU-bounded).

        Memoization is by object identity; each live entry holds a
        reference to its key so a recycled ``id`` can never alias a
        replaced upload, and eviction only drops the memo — a re-digest
        of an evicted key is merely recomputed.
        """
        entry = self._key_digests.get(id(key))
        if entry is None or entry[0] is not key:
            entry = (key, hashlib.sha256(make_bytes()).digest())
            self._key_digests[id(key)] = entry
        self._key_digests.move_to_end(id(key))
        while len(self._key_digests) > self._key_digest_capacity:
            self._key_digests.popitem(last=False)
        return entry[1]

    def _harvest_cache(self) -> None:
        """Settle completion bookkeeping after scheduler progress.

        Moves freshly completed cacheable results into the cache (LRU),
        sheds dedupe followers whose deadline expired while their primary
        is still in flight, fans a completed primary's result (or
        failure) out to its surviving followers, and retires content
        addresses whose primary finished — the next identical submit then
        hits the result cache, or re-executes if the primary failed or
        caching is off.
        """
        if self._followers:
            self._shed_expired_followers()
        if self._pending_cache:
            finished = [
                jid for jid in self._pending_cache if self._jobs[jid].done
            ]
            for jid in finished:
                key = self._pending_cache.pop(jid)
                job = self._jobs[jid]
                # Raw ops cache a Ciphertext; circuits their output map.
                if job.status is JobStatus.DONE and job.result is not None:
                    self._result_cache[key] = job.result
                    self._result_cache.move_to_end(key)
                    while len(self._result_cache) > self._cache_capacity:
                        self._result_cache.popitem(last=False)
        if self._followers:
            stats = self.scheduler.stats
            done_primaries = [
                jid for jid in self._followers if self._jobs[jid].done
            ]
            for jid in done_primaries:
                primary = self._jobs[jid]
                for fid in self._followers.pop(jid):
                    follower = self._jobs[fid]
                    # The primary's batch window is the follower's
                    # latency too: adopt those spans (clipped at the
                    # follower's own queue time) so the profiler stops
                    # attributing follower wall time to queue_wait.
                    adopt_batch_spans(follower.trace, primary.trace)
                    if primary.status is JobStatus.DONE:
                        follower.finish(primary.result)
                    else:
                        follower.fail(primary.error or "primary job failed")
                    follower.metrics.batch_id = primary.metrics.batch_id
                    stats.settle(follower)
        if self._dedupe:
            for key in [
                k for k, jid in self._dedupe.items() if self._jobs[jid].done
            ]:
                del self._dedupe[key]

    def _shed_expired_followers(self) -> None:
        """Fail dedupe followers whose deadline passed mid-flight.

        A follower attached to an in-flight primary sits in no scheduler
        queue, so the scheduler's batch-plan shed never visits it;
        without this sweep an expired follower would settle late with the
        primary's eventual result instead of failing with the typed
        ``deadline expired`` error. Followers of a primary that has
        already completed are left to the fan-out in the same harvest —
        their result is ready, not late.
        """
        now = time.monotonic()
        stats = self.scheduler.stats
        for pid in list(self._followers):
            if self._jobs[pid].done:
                continue
            keep: list[str] = []
            for fid in self._followers[pid]:
                follower = self._jobs[fid]
                if follower.deadline is None or follower.deadline > now:
                    keep.append(fid)
                    continue
                follower.fail("deadline expired awaiting deduped execution")
                stats.settle(follower)
                self.metrics.counter(
                    "repro_deadline_shed_total",
                    "jobs failed past their deadline",
                    stage="follower", tenant=follower.tenant,
                ).inc()
                self.metrics.counter(
                    "repro_jobs_settled_total", "jobs settled by outcome",
                    tenant=follower.tenant, outcome="failed",
                ).inc()
            if keep:
                self._followers[pid] = keep
            else:
                del self._followers[pid]

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
        """Advance the scheduler by one tick; ``True`` if work was done.

        A tick settles one job of a synchronous backend's batch (or
        harvests/dispatches fleet batches), so the jobs of a batch
        complete one tick apart rather than all at its end. Completion
        bookkeeping (result-cache harvest, dedupe fan-out)
        runs even on an idle tick, so a caller looping ``tick()`` until
        it returns ``False`` observes every job settled.
        """
        report = self.scheduler.step()
        self._harvest_cache()
        return report is not None

    def result(self, job_id: str, wire: bool = True) -> object:
        """Block (drive the scheduler) until the job finishes.

        Returns as soon as this job is settled; the jobs behind it in
        its batch may not have run yet.

        Raw-op and circuit results return as wire bytes by default — the
        server hands back exactly what would cross a transport: a framed
        ciphertext for raw ops, a framed named-output map for circuits.
        ``wire=False`` returns the in-memory object; legacy app-level
        results are always objects.

        Raises:
            RuntimeError: if the job failed (message carries the cause).
        """
        job = self._job(job_id)
        while not job.done:
            if self.scheduler.step() is None:
                break
        self._harvest_cache()
        if job.status is JobStatus.FAILED:
            raise RuntimeError(f"job {job_id} failed: {job.error}")
        if not job.done:
            raise RuntimeError(f"job {job_id} is still {job.status.value}")
        if isinstance(job.result, (bytes, bytearray)):
            # Fleet results already travel as framed wire bytes; hand
            # them back verbatim (wire=False has no object to return).
            return bytes(job.result)
        if wire and isinstance(job.result, Ciphertext):
            with job.trace.span("serialize"):
                return serialize_ciphertext(job.result)
        if wire and job.kind is JobKind.CIRCUIT:
            with job.trace.span("serialize"):
                return serialize_circuit_outputs(job.result)
        return job.result

    def job_metrics(self, job_id: str):
        return self._job(job_id).metrics

    def run(self) -> ServiceStats:
        """Drain every queued job."""
        stats = self.scheduler.run_all()
        self._harvest_cache()
        return stats

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def throughput_rows(self) -> list[dict]:
        """Per-backend throughput summary (jobs/sec over attributed time)."""
        rows = []
        for name, backend in sorted(self.backends.items()):
            if backend.jobs_done == 0:
                continue
            wall = backend.wall_seconds()
            row = {
                "backend": backend.name,
                "jobs": backend.jobs_done,
                "wall_s": wall,
                "jobs_per_s": backend.jobs_done / wall if wall > 0 else float("inf"),
            }
            if isinstance(backend, ChipPoolBackend):
                row["pool"] = len(backend.workers)
                row["wall_cycles"] = backend.wall_cycles
                row["total_cycles"] = backend.total_cycles
            rows.append(row)
        return rows

    def pool_report(self) -> dict:
        """Tower-sharding view of the chip pool: makespan and fidelity.

        Two wall-time views against ``total_cycles`` of work:
        ``wall_cycles`` (max cumulative per-worker busy cycles — the
        utilization view, assuming work from different batches overlaps
        freely) and ``batch_makespan_cycles`` (sum of per-batch makespans
        — the conservative view under the per-batch gather barrier;
        always >= ``wall_cycles``). ``per_worker_cycles`` shows the
        spread, ``tower_cycles`` the per-tower totals over every
        chip-executed batch, ``fidelity`` counts jobs per execution
        path (``chip`` / ``model`` / ``relin_model``), and
        ``result_cache`` reports the content-addressed machinery: cache
        hits complete at submit time and cost the pool nothing, and
        ``dedupe_hits`` counts in-queue dedupe followers — identical
        jobs submitted before the first completed, attached to its one
        execution with the result fanned out.
        """
        pool = self.chip_pool
        stats = self.scheduler.stats
        tower_totals: dict[int, int] = {}
        for report in stats.batches:
            for t, c in enumerate(report.tower_cycles):
                tower_totals[t] = tower_totals.get(t, 0) + c
        return {
            "pool": len(pool.workers),
            "wall_cycles": pool.wall_cycles,
            "batch_makespan_cycles": stats.makespan_cycles,
            "total_cycles": pool.total_cycles,
            "per_worker_cycles": [w.busy_cycles for w in pool.workers],
            "tower_cycles": [
                tower_totals[t] for t in sorted(tower_totals)
            ],
            "fidelity": stats.fidelity,
            "per_tenant_completed": dict(stats.per_tenant_completed),
            "per_tenant_failed": dict(stats.per_tenant_failed),
            "result_cache": {
                "hits": stats.cache_hits,
                "misses": stats.cache_misses,
                "dedupe_hits": stats.dedupe_hits,
                "entries": len(self._result_cache),
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
                excluding post-completion serialize/reply time from both
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
            if job.done and job.trace.enabled
            and (not backend or job.metrics.backend == backend)
        ]
        return aggregate_phases(traces, until_done=until_done)
