"""Multi-process worker fleet: scale the chip pool past one interpreter.

A worker is a plain :class:`~repro.service.server.FheServer` behind a
:class:`~repro.service.transport.FheTransportServer`, served over a
socketpair in a spawned interpreter (``mode="thread"``: in a thread, for
fast tests). :class:`FleetBackend` reaches each worker as any client
reaches a server — the tf-encrypted shape of an orchestrator driving
partially-trusted servers — through one
:class:`~repro.service.client.AsyncFheClient` per worker: a session's
keys go as OPEN_SESSION with its first job on a worker, a job is a
subscribed SUBMIT or SUBMIT_CIRCUIT, its pushed EVENT settles it, and a
STATS ping every ``heartbeat_interval`` checks liveness.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import queue
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.service.backends import Backend
from repro.service.errors import DEADLINE_EXPIRED
from repro.service.client import AsyncFheClient, TransportError
# The fleet's fault-injection API, defined with its grammar:
from repro.service.faults import FaultPlan, FaultRule, FaultSpecError  # noqa: F401
from repro.service.jobs import Job, JobKind
from repro.service.registry import Session, SessionRegistry
from repro.service.serialization import (
    EventMsg,
    WireFormatError,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
    verify_frame,
)
from repro.service.server import FheServer
from repro.service.transport import FheTransportServer

#: Jobs in flight per worker; the rest wait in its backlog.
WORKER_WINDOW = 1
#: Placements per job (the first one plus requeues) before it fails.
MAX_ATTEMPTS = 4


def route_index(digest: bytes, size: int) -> int:
    """A params digest's home worker: its first 8 bytes mod the fleet
    size, so every component (and every test) can predict the route.

    >>> route_index(bytes(range(32)), 4)
    3
    """
    if size < 1:
        raise ValueError("fleet size must be >= 1")
    return int.from_bytes(digest[:8], "big") % size


def serve_worker(sock: socket.socket, index: int, mode: str,
                 fault_spec: str) -> None:
    """Run one fleet worker over ``sock`` until its router closes it: a
    one-chip ``FheServer`` with no result cache (the front door caches).
    Top-level, so ``spawn`` can pickle it."""
    asyncio.run(_serve_worker(sock, index, mode, fault_spec))


async def _serve_worker(sock, index, mode, fault_spec):
    server = FheTransportServer(FheServer(pool_size=1, result_cache_size=0))
    faults = FaultPlan.parse(fault_spec).for_worker(index)
    try:
        await server.serve_socket(sock, faults.shim(sock, mode))
    finally:
        await server.aclose(drain=False)


@dataclass
class _Assignment:
    """One placed job, with what its worker is sent: a settled job drops
    its operands, and a requeue sends them again."""

    job: Job
    operands: tuple[bytes, ...]  # framed ciphertexts
    circuit: bytes | None  # the framed circuit of a circuit job
    attempts: int = 0
    sent_at: float = 0.0  # 0.0 while it waits in the worker's backlog
    last_worker: int = -1  # requeues avoid the worker that just failed


@dataclass
class WorkerHandle:
    """Router-side view of one worker slot."""

    index: int
    proc: object  # multiprocessing.Process or threading.Thread
    client: AsyncFheClient | None = None
    watcher: asyncio.Task | None = None
    live: bool = True  # admitted: pings answered
    attached: bool = True  # link open
    #: Last reply and replies to pings (the loop thread writes both).
    last_seen: float = field(default_factory=time.monotonic)
    heartbeats: int = 0
    jobs_done: int = 0
    #: The jobs this worker owns, sent ones first, then its backlog.
    jobs: dict[str, _Assignment] = field(default_factory=dict)
    #: Session id -> (its keys' upload digests, OPEN_SESSION future ->
    #: the worker's session id).
    sessions: dict[str, tuple] = field(default_factory=dict)

    @property
    def sent(self) -> int:
        return sum(1 for a in self.jobs.values() if a.sent_at)


class FleetBackend(Backend):
    """A fleet of worker processes behind the scheduler's dispatch/poll pair.

    ``mode="process"`` spawns interpreters (always the ``spawn`` start
    method); ``mode="thread"`` runs the same worker in threads.
    ``fault_spec`` (default: none) arms a
    :class:`~repro.service.faults.FaultPlan` in every worker.
    ``spill_threshold > 0`` routes a job off its digest's home worker
    once the home owns that many jobs (``0``, the default: pinned).

    The links run on an event loop thread the router owns. It stamps
    ping replies on the handle and posts all else to an inbox that
    :meth:`poll` drains, so routing state belongs to the scheduler's
    thread. Each job is owned by one worker; a result from any other is
    stale, so a job settles once.
    """

    def __init__(self, size: int = 2, *, mode: str = "process",
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 restart: bool = True, fault_spec: str = "",
                 spill_threshold: int = 0):
        super().__init__()
        if size < 1:
            raise ValueError("fleet needs at least one worker")
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread', got {mode!r}")
        if spill_threshold < 0:
            raise ValueError("spill_threshold must be >= 0 (0 disables)")
        self.name = f"fleet_x{size}"
        self.size = size
        self.mode = mode
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.restart = restart
        self.spill_threshold = spill_threshold
        self.fault_plan = FaultPlan.parse(fault_spec)
        self._registry: SessionRegistry | None = None
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._closing = False
        self.requeues = self.evictions = self.readmissions = 0
        self.deaths = self.respawns = self.stale_results = 0
        self.corrupt_replies = self.deadline_reaps = 0
        self.route_home = self.route_spill = 0
        self.resize_grows = self.resize_shrinks = 0
        #: Modeled cycles per worker index (the busiest is the makespan).
        self.worker_cycles: dict[int, int] = {}
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-fleet-router", daemon=True)
        self._thread.start()
        self._workers = [self._spawn(i) for i in range(size)]

    def _count(self, name: str, help_text: str, amount: int = 1,
               **labels) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help_text, **labels).inc(amount)

    def _on_loop(self, coro) -> concurrent.futures.Future:
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, index: int, fault_spec: str | None = None) -> WorkerHandle:
        ours, theirs = socket.socketpair()
        spec = self.fault_plan.render() if fault_spec is None else fault_spec
        process = self.mode == "process"
        start = (multiprocessing.get_context("spawn").Process
                 if process else threading.Thread)
        proc = start(
            target=serve_worker, name=f"repro-fleet-{index}", daemon=True,
            args=(theirs, index, self.mode, spec),
        )
        proc.start()
        if process:
            theirs.close()  # the worker holds its own copy
        handle = WorkerHandle(index=index, proc=proc)
        self._on_loop(self._attach(handle, ours)).result()
        return handle

    async def _attach(self, handle: WorkerHandle, sock: socket.socket) -> None:
        handle.client = AsyncFheClient(*await asyncio.open_connection(sock=sock))
        handle.watcher = asyncio.ensure_future(self._watch(handle))

    def _retire(self, handle: WorkerHandle, join: float) -> list[_Assignment]:
        """Close a worker's link (it exits on EOF) and reap it; returns
        the jobs it owned."""
        if not handle.attached:
            return []
        handle.live = handle.attached = False
        self._on_loop(handle.client.aclose(drain=False)).result()
        handle.proc.join(timeout=join)
        if hasattr(handle.proc, "terminate") and handle.proc.is_alive():
            handle.proc.terminate()
            handle.proc.join(timeout=1.0)
        orphans, handle.jobs = list(handle.jobs.values()), {}
        return orphans

    def close(self) -> None:
        """Shut the fleet down; idempotent. Pending jobs fail cleanly."""
        if self._closing:
            return
        self._closing = True
        for handle in self._workers:
            for assignment in self._retire(handle, 2.0):
                self._fail(assignment, "fleet shut down")
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()
        self._set_gauges()

    def dispatch(self, job: Job, registry: SessionRegistry) -> None:
        """Route one job to the fleet without blocking: its worker is sent
        the job's own frames, ``wire_operands`` and ``wire_circuit``."""
        self._registry = registry
        circuit = job.wire_circuit if job.kind is JobKind.CIRCUIT else None
        self._place(_Assignment(job, job.wire_operands, circuit))
        self._set_gauges()

    def poll(self, timeout: float = 0.0) -> list[Job]:
        """Settle the jobs whose events are back (waiting up to ``timeout``
        for the first), reap deadlines, and evict a worker silent past
        ``heartbeat_timeout`` until it answers again."""
        while True:
            try:
                handler, *args = self._inbox.get(timeout > 0, timeout)
            except queue.Empty:
                break
            handler(*args)
            timeout = 0.0
        now = time.monotonic()
        for handle in self._workers:
            self._reap(handle, now)
            silent = now - handle.last_seen > self.heartbeat_timeout
            if handle.attached and handle.live and silent:
                handle.live = False
                self.evictions += 1
                orphans, handle.jobs = list(handle.jobs.values()), {}
                for assignment in orphans:
                    self._requeue(assignment)
            elif handle.attached and not handle.live and not silent:
                handle.live = True
                self.readmissions += 1
                self._kick(handle)
        self._set_gauges()
        return super().poll()

    @property
    def in_flight(self) -> int:
        return sum(len(handle.jobs) for handle in self._workers)

    def _pick_worker(self, assignment: _Assignment) -> WorkerHandle | None:
        """Route by digest, preferring any live worker over the one the
        job just failed on. Past its home's ``spill_threshold`` a job
        spills to a live worker under it, preferring one holding the
        session's keys, else to the live worker owning the fewest jobs."""
        session_id = assignment.job.session_id
        start = route_index(self._registry.get(session_id).digest, self.size)
        order = [self._workers[(start + k) % self.size]
                 for k in range(self.size)]
        live = [h for h in order if h.live and h.attached]
        others = [h for h in live if h.index != assignment.last_worker]
        if self.spill_threshold <= 0 or not others:
            return (others or live or [None])[0]
        open_ = [h for h in others if len(h.jobs) < self.spill_threshold]
        target = open_[0] if open_ and open_[0] is order[0] else next(
            (h for h in open_ if session_id in h.sessions),
            open_[0] if open_ else min(others, key=lambda h: len(h.jobs)),
        )
        if target is order[0]:
            self.route_home += 1
        else:
            self.route_spill += 1
            self._count("repro_fleet_spillovers_total",
                        "Jobs routed off their digest's home worker")
        return target

    def _place(self, assignment: _Assignment) -> None:
        assignment.attempts += 1
        assignment.sent_at = 0.0
        if assignment.attempts > MAX_ATTEMPTS:
            self._fail(assignment, "job requeued past the attempt cap "
                       f"({MAX_ATTEMPTS} placements)")
            return
        handle = self._pick_worker(assignment)
        if handle is None:
            self._fail(assignment, "no live fleet workers")
            return
        handle.jobs[assignment.job.job_id] = assignment
        self._kick(handle)

    def _kick(self, handle: WorkerHandle) -> None:
        """Send a worker backlogged jobs up to its in-flight window."""
        if not (handle.live and handle.attached):
            return
        waiting = [a for a in handle.jobs.values() if not a.sent_at]
        for assignment in waiting[:WORKER_WINDOW - handle.sent]:
            assignment.sent_at = time.perf_counter()
            assignment.last_worker = handle.index
            session = self._registry.get(assignment.job.session_id)
            opened = self._open(handle, session)
            self._on_loop(self._ship(handle, assignment, opened))

    def _open(self, handle: WorkerHandle,
              session: Session) -> concurrent.futures.Future:
        """The worker's OPEN_SESSION for the session's current keys (sent
        first if it lacks them), resolving to its own session id.

        Keyed by the keys' upload digests, so the keys are sent again
        exactly when one of them changed content.
        """
        keys = (session.relin_digest,
                tuple(sorted(session.galois_digests.items())))
        held = handle.sessions.get(session.session_id)
        if held is None or held[0] != keys:
            self._count("repro_fleet_key_replications_total",
                        "Evaluation-key replications to fleet workers")
            params, relin = session.params, session.relin
            opening = handle.client.open_session(
                session.tenant, serialize_params(params),
                relin_key=relin and serialize_relin_key(relin, params),
                galois_keys=tuple(serialize_galois_key(key, params)
                                  for _, key in sorted(session.galois.items())),
            )
            held = (keys, self._on_loop(opening))
            handle.sessions[session.session_id] = held
        return held[1]

    # -- the links (router loop thread) ---------------------------------

    async def _ship(self, handle: WorkerHandle, assignment: _Assignment,
                    opened: concurrent.futures.Future) -> None:
        """Submit a job, subscribed, once its session is open; a refusal
        (an ERROR reply) settles it as a failed event."""
        client, job = handle.client, assignment.job

        def on_done(event: EventMsg) -> None:  # the client keeps no record
            client.forget(event.job_id)
            self._inbox.put((self._on_event, handle, job.job_id, event))

        try:
            session_id = await asyncio.wrap_future(opened)
            if assignment.circuit is None:
                await client.submit(
                    session_id, job.kind, assignment.operands,
                    steps=job.steps, on_done=on_done,
                )
            else:
                await client.submit_circuit(
                    session_id, assignment.circuit, assignment.operands,
                    on_done=on_done,
                )
        except (ConnectionError, OSError, EOFError, WireFormatError):
            return  # the link is gone: its death requeues the job
        except Exception as exc:  # noqa: BLE001 — the worker refused it
            self._inbox.put((self._on_event, handle, job.job_id, EventMsg(
                job.job_id, "failed", error=f"fleet worker {handle.index} "
                f"refused the job: {str(exc) or repr(exc)}",
            )))

    async def _watch(self, handle: WorkerHandle) -> None:
        """Ping the worker every interval until its link drops."""
        lost = asyncio.ensure_future(handle.client.disconnected())
        pings: set[asyncio.Task] = set()  # strong references
        while not lost.done():
            ping = asyncio.ensure_future(self._ping(handle))
            pings.add(ping)
            ping.add_done_callback(pings.discard)
            await asyncio.wait((lost,), timeout=self.heartbeat_interval)
        self._inbox.put((self._on_death, handle))

    async def _ping(self, handle: WorkerHandle) -> None:
        try:
            await asyncio.wait_for(handle.client.stats(), self.heartbeat_timeout)
        except (TimeoutError, ConnectionError, TransportError, WireFormatError):
            return  # unanswered: poll() decides
        handle.heartbeats += 1
        handle.last_seen = time.monotonic()

    def _on_death(self, handle: WorkerHandle) -> None:
        """The link closed: replace the worker, requeue its jobs."""
        if not handle.attached:
            return  # retired on purpose
        orphans = self._retire(handle, 0.5)
        self.deaths += 1
        if self.restart and not self._closing:
            # The replacement starts with a clean fault plan: an armed
            # kill must not loop the slot through death forever.
            self._workers[handle.index] = self._spawn(handle.index, "")
            self.respawns += 1
        for assignment in orphans:
            self._requeue(assignment)

    def _requeue(self, assignment: _Assignment) -> None:
        self.requeues += 1
        self._count("repro_fleet_requeues_total",
                    "Fleet jobs requeued after a worker fault")
        self._place(assignment)

    def _reap(self, handle: WorkerHandle, now: float) -> None:
        """Fail a worker's jobs past their deadline, never to requeue:
        the worker no longer owns them, so a late reply is stale."""
        late = [a for a in handle.jobs.values()
                if a.job.deadline is not None and a.job.deadline <= now]
        for assignment in late:
            del handle.jobs[assignment.job.job_id]
            self.deadline_reaps += 1
            self._count("repro_deadline_shed_total",
                        "jobs failed past their deadline",
                        stage="in_flight", tenant=assignment.job.tenant)
            where = "in flight" if assignment.sent_at else "before execution"
            self._fail(assignment, f"{DEADLINE_EXPIRED} {where}")
        if late:
            self._kick(handle)

    def grow(self, count: int = 1) -> int:
        """Admit ``count`` fresh workers; returns the new fleet size."""
        if count < 1:
            raise ValueError("grow() wants a positive worker count")
        return self.resize(self.size + count)

    def shrink(self, count: int = 1) -> int:
        """Retire the ``count`` highest-indexed workers; returns the size."""
        if not 1 <= count < self.size:
            raise ValueError(
                f"cannot shrink a fleet of {self.size} by {count}; "
                "at least one worker must remain"
            )
        return self.resize(self.size - count)

    def resize(self, target: int) -> int:
        """Grow or shrink to exactly ``target`` workers; returns the size.
        New workers inherit the fault spec; a retired worker's jobs
        requeue within the remaining indices (retiring is not a death)."""
        if target < 1:
            raise ValueError("fleet size must be >= 1")
        if target > self.size and self._closing:
            raise RuntimeError("cannot grow a fleet that is shut down")
        while self.size < target:
            self._workers.append(self._spawn(self.size))
            self.size += 1
            self.resize_grows += 1
            self._count("repro_fleet_resize_events_total",
                        "Fleet resize operations", direction="grow")
        while self.size > target:
            retired = self._workers.pop()
            self.size -= 1
            self.resize_shrinks += 1
            self._count("repro_fleet_resize_events_total",
                        "Fleet resize operations", direction="shrink")
            if self.metrics is not None:
                self.metrics.gauge(
                    "repro_fleet_worker_inflight",
                    "Jobs assigned or backlogged per fleet worker",
                    worker=str(retired.index),
                ).set(0)
            for assignment in self._retire(retired, 2.0):
                self._requeue(assignment)
        self._set_gauges()
        return self.size

    def _on_event(self, handle: WorkerHandle, job_id: str,
                  event: EventMsg) -> None:
        handle.last_seen = time.monotonic()  # a reply is proof of life
        assignment = handle.jobs.pop(job_id, None)
        self._kick(handle)
        if assignment is None:
            # A worker we gave up on raced a requeue or a reap: its late
            # result must not settle the job a second time.
            self.stale_results += 1
            self._count("repro_fleet_stale_results_total",
                        "Late duplicate results discarded after a requeue")
            return
        if event.status == "done":
            try:
                verify_frame(event.payload)
            except WireFormatError:
                self.corrupt_replies += 1
                self._count("repro_fleet_corrupt_replies_total",
                            "Worker replies failing the CRC integrity check")
                self._place(assignment)  # run it again elsewhere
                return
        self._settle(assignment, handle, event)

    def _fail(self, assignment: _Assignment, message: str) -> None:
        self._settle(assignment, None, EventMsg(
            assignment.job.job_id, "failed", error=message,
        ))

    def _settle(self, assignment: _Assignment, handle: WorkerHandle | None,
                event: EventMsg) -> None:
        """Settle a job from its worker's EVENT (no ``handle``: the router
        failed it) and queue it for :meth:`poll`."""
        job, now = assignment.job, time.perf_counter()
        job.metrics.backend = self.name
        job.metrics.cycles = job.metrics.makespan_cycles = event.cycles
        if event.status == "done":
            job.trace.mark("execute", assignment.sent_at, now)
            job.finish(event.payload)  # framed wire bytes
            job.metrics.model_seconds = event.model_seconds
            job.metrics.fidelity = event.fidelity
            self.jobs_done += 1
            handle.jobs_done += 1
        else:
            job.fail(event.error or "fleet worker failed the job")
        if handle is not None:
            worker = job.metrics.worker = handle.index
            self.worker_cycles[worker] = (self.worker_cycles.get(worker, 0)
                                          + event.cycles)
            self._count("repro_fleet_worker_cycles_total",
                        "Modeled cycles executed per fleet worker",
                        event.cycles, worker=str(worker))
        self._settled.append(job)

    def _set_gauges(self) -> None:
        if self.metrics is None:
            return
        gauge = self.metrics.gauge
        gauge("repro_fleet_workers_live", "Fleet workers currently admitted"
              ).set(sum(1 for h in self._workers if h.live and h.attached))
        gauge("repro_fleet_in_flight", "Fleet jobs dispatched but unsettled"
              ).set(self.in_flight)
        for handle in self._workers:
            gauge("repro_fleet_worker_inflight",
                  "Jobs assigned or backlogged per fleet worker",
                  worker=str(handle.index)).set(len(handle.jobs))

    def fleet_report(self) -> dict:
        """Structured fleet state for tests, stats, and operators; the
        busiest worker's cycles are the fleet's modeled makespan."""
        counters = (
            "requeues", "evictions", "readmissions", "deaths", "respawns",
            "stale_results", "corrupt_replies", "deadline_reaps",
        )
        return {
            "size": self.size,
            "mode": self.mode,
            "workers": [{
                "index": h.index, "live": h.live and h.attached,
                "heartbeats": h.heartbeats, "jobs_done": h.jobs_done,
                "assigned": h.sent, "backlog": len(h.jobs) - h.sent,
            } for h in self._workers],
            "in_flight": self.in_flight,
            "total_cycles": sum(self.worker_cycles.values()),
            "makespan_cycles": max(self.worker_cycles.values(), default=0),
            **{name: getattr(self, name) for name in counters},
            "routing": {
                "spill_threshold": self.spill_threshold,
                "home": self.route_home, "spill": self.route_spill,
            },
            "resizes": {
                "grow": self.resize_grows, "shrink": self.resize_shrinks,
            },
        }
