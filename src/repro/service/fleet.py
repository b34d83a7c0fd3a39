"""Multi-process worker fleet: scale the chip pool past one interpreter.

The GIL caps the single-process serving stack regardless of kernel
speed, and one crash kills the whole service. This module promotes the
chip pool to a fleet of worker **processes** (the tf-encrypted
secure-runtime shape: an orchestrator configures long-lived workers and
routes work to them):

* **Workers** — each worker process owns a chip subset (its own
  :class:`~repro.service.backends.ChipPoolBackend`) and its own engine
  caches, and speaks the repo's one wire format over a
  ``multiprocessing`` pipe: WORKER_KEYS / WORKER_JOB down,
  WORKER_RESULT / WORKER_HEARTBEAT up (tags 0x20+). ``mode="thread"``
  runs the *identical* worker loop in a thread — same protocol, same
  fault hooks — for fast deterministic tests.
* **Routing** — the front door routes each job by its session's params
  digest: :func:`route_index` picks ``digest % fleet_size``, scanning
  forward to the first live worker. Every job of one digest lands on the
  same worker, so that worker's engine/twiddle caches stay hot for the
  parameter sets hashed to it.
* **Key replication** — evaluation keys replicate to a worker on first
  use via the existing key-registry wire encoding (a framed params
  message plus framed relin/Galois key messages inside WORKER_KEYS),
  re-sent only when the front door observes new key material. Secret
  keys never existed server-side, so nothing secret crosses the pipe.
* **Liveness** — workers heartbeat on an interval; the orchestrator
  evicts a worker whose beacon goes quiet (re-admitting it on the next
  beat) and detects death outright (EOF / dead process), requeueing
  every in-flight job onto surviving workers — capped at
  ``max_attempts`` placements, after which the job fails cleanly.
  Corrupted replies (the CRC catches them) requeue the same way. A
  ``job -> worker`` ownership map discards stale duplicate results, so
  a job settles exactly once no matter how many workers raced on it.
* **Fault injection** — ``REPRO_FAULT`` (or an injected spec) arms a
  deterministic :class:`FaultPlan` inside chosen workers: kill the
  worker before its Nth result, skip N heartbeats, bit-flip the Nth
  reply, or stall (swallow the Nth result while staying live — the
  deadline-reaping scenario). Counts, not timers — the chaos battery
  replays recovery paths exactly.

Overload hardening rides the same machinery: ``spill_threshold`` turns
digest-pinned routing into spill-over routing (a saturated home worker
sheds to the next live worker that already holds the session's keys),
:meth:`FleetBackend.grow`/:meth:`FleetBackend.shrink` resize the fleet
at runtime by reusing the spawn/retire paths, and jobs carrying a
deadline are reaped from assignments and backlogs past it — their late
results discarded by the same ownership map that drops stale requeue
duplicates.

The scheduler drives all of this through the call pair every backend
shares (:meth:`FleetBackend.dispatch` / :meth:`FleetBackend.poll`):
dispatch never blocks, so jobs for different digests overlap across
workers, which is where the multi-process speedup comes from, and each
job's report comes back on its own.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path

from repro.bfv.scheme import Ciphertext
from repro.service.backends import Backend, BatchReport, ChipPoolBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.serialization import (
    WireFormatError,
    WorkerFaultsMsg,
    WorkerHeartbeatMsg,
    WorkerJobMsg,
    WorkerKeysMsg,
    WorkerResultMsg,
    decode_message,
    deserialize_circuit,
    deserialize_galois_key,
    deserialize_params,
    deserialize_relin_key,
    encode_message,
    peek_tag,
    serialize_ciphertext,
    serialize_circuit,
    serialize_circuit_outputs,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
    verify_frame,
)
from repro.service.telemetry import NULL_TRACE


class FaultSpecError(ValueError):
    """Malformed ``REPRO_FAULT`` / :meth:`FaultPlan.parse` spec."""


def route_index(digest: bytes, size: int) -> int:
    """The routing rule: a params digest's preferred worker index.

    Deterministic and stateless — the first 8 digest bytes mod the fleet
    size — so every component (and every test) can predict where a
    session's work lands:

    >>> route_index(bytes(range(32)), 4)
    3
    >>> route_index(bytes(range(32)), 1)
    0
    """
    if size < 1:
        raise ValueError("fleet size must be >= 1")
    return int.from_bytes(digest[:8], "big") % size


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------

_FAULT_ACTIONS = ("kill", "corrupt", "delay_heartbeat", "stall")


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: *action* on *worker* at a counted point.

    ``job`` is the 1-based index of the worker's result send the fault
    fires on (``kill`` dies instead of sending it, ``corrupt`` bit-flips
    its payload, ``stall`` swallows it — the worker keeps heartbeating
    and serves later jobs, but this one's reply never leaves); ``beats``
    is how many heartbeats ``delay_heartbeat`` suppresses, starting from
    the worker's hello.
    """

    action: str
    worker: int
    job: int = 1
    beats: int = 1

    def render(self) -> str:
        text = f"{self.action}:worker={self.worker}"
        if self.action == "delay_heartbeat":
            return f"{text}:beats={self.beats}"
        return f"{text}:job={self.job}"


class FaultPlan:
    """A parsed, deterministic fault schedule for the whole fleet.

    Grammar (see ``docs/fleet.md``): clauses joined by ``;``, each
    ``action:key=value:...`` with actions ``kill`` / ``corrupt`` /
    ``delay_heartbeat`` / ``stall`` and keys ``worker`` (required),
    ``job`` (1-based result count), ``beats`` (heartbeats to skip):

    >>> plan = FaultPlan.parse("kill:worker=1:job=3; corrupt:worker=0")
    >>> [rule.render() for rule in plan.rules]
    ['kill:worker=1:job=3', 'corrupt:worker=0:job=1']
    >>> FaultPlan.parse("").rules
    ()
    """

    def __init__(self, rules: tuple[FaultRule, ...] = ()):
        self.rules = tuple(rules)

    @classmethod
    def parse(cls, spec: str | None) -> "FaultPlan":
        rules = []
        for clause in (spec or "").split(";"):
            clause = clause.strip()
            if not clause:
                continue
            action, _, rest = clause.partition(":")
            action = action.strip()
            if action not in _FAULT_ACTIONS:
                raise FaultSpecError(
                    f"unknown fault action {action!r} "
                    f"(supported: {', '.join(_FAULT_ACTIONS)})"
                )
            fields = {"worker": None, "job": 1, "beats": 1}
            for part in filter(None, (p.strip() for p in rest.split(":"))):
                key, sep, value = part.partition("=")
                key = key.strip()
                if not sep or key not in fields:
                    raise FaultSpecError(
                        f"bad fault clause field {part!r} in {clause!r} "
                        "(expected worker=/job=/beats=)"
                    )
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise FaultSpecError(
                        f"fault field {key!r} wants an integer, got {value!r}"
                    ) from None
            if fields["worker"] is None:
                raise FaultSpecError(f"fault clause {clause!r} needs worker=")
            if fields["job"] < 1 or fields["beats"] < 1:
                raise FaultSpecError("job= and beats= are 1-based counts")
            rules.append(FaultRule(
                action=action, worker=fields["worker"],
                job=fields["job"], beats=fields["beats"],
            ))
        return cls(tuple(rules))

    def render(self) -> str:
        """Re-render the plan as a spec string (ships to workers)."""
        return "; ".join(rule.render() for rule in self.rules)

    def for_worker(self, index: int) -> "WorkerFaults":
        """Mutable countdown state for one worker's share of the plan."""
        return WorkerFaults(
            tuple(rule for rule in self.rules if rule.worker == index)
        )


class WorkerFaults:
    """One worker's armed fault counters (lives inside the worker).

    >>> faults = FaultPlan.parse("corrupt:worker=0:job=2").for_worker(0)
    >>> [faults.on_result() for _ in range(3)]
    ['', 'corrupt', '']
    >>> faults.skip_heartbeat()
    False
    """

    def __init__(self, rules: tuple[FaultRule, ...] = ()):
        self._kill_at = {r.job for r in rules if r.action == "kill"}
        self._corrupt_at = {r.job for r in rules if r.action == "corrupt"}
        self._stall_at = {r.job for r in rules if r.action == "stall"}
        self._skip_beats = sum(
            r.beats for r in rules if r.action == "delay_heartbeat"
        )
        self.results_sent = 0

    def on_result(self) -> str:
        """Account one result send; returns the armed action ("" = none)."""
        self.results_sent += 1
        if self.results_sent in self._kill_at:
            return "kill"
        if self.results_sent in self._corrupt_at:
            return "corrupt"
        if self.results_sent in self._stall_at:
            return "stall"
        return ""

    def skip_heartbeat(self) -> bool:
        """Whether the next heartbeat is suppressed (consumes one skip)."""
        if self._skip_beats > 0:
            self._skip_beats -= 1
            return True
        return False


def _corrupt_payload(payload: bytes) -> bytes:
    """Deterministically bit-flip a reply payload (CRC will catch it)."""
    if not payload:
        return payload
    flipped = bytearray(payload)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def fleet_worker_main(conn, config: dict) -> None:
    """Entry point of one fleet worker (top-level: spawn-picklable).

    ``config`` is a plain picklable dict: ``index``, ``mode``, ``chips``,
    ``strict_fidelity``, ``heartbeat_interval``, and ``fault_spec``. The
    worker builds its own session registry and chip pool, then loops:
    drain control messages, execute routed jobs, heartbeat on the
    interval.
    """
    _FleetWorker(conn, config).run()


class _FleetWorker:
    """The worker loop behind :func:`fleet_worker_main`."""

    def __init__(self, conn, config: dict):
        self.conn = conn
        self.index = config["index"]
        self.mode = config.get("mode", "process")
        self.interval = config.get("heartbeat_interval", 0.5)
        self.faults = FaultPlan.parse(
            config.get("fault_spec", "")
        ).for_worker(self.index)
        self.registry = SessionRegistry()
        self.backend = ChipPoolBackend(
            pool_size=config.get("chips", 1),
            strict_fidelity=config.get("strict_fidelity", False),
        )
        self._sessions: dict[str, object] = {}  # token -> local Session
        self._job_seq = 0
        self._beat_seq = 0
        self._jobs_done = 0
        self._last_beat = 0.0

    def run(self) -> None:
        self._heartbeat(force=True)  # hello
        while True:
            try:
                ready = self.conn.poll(self.interval)
            except (EOFError, OSError):
                return
            if ready:
                try:
                    data = bytes(self.conn.recv_bytes())
                except (EOFError, OSError):
                    return  # orchestrator went away: shut down
                if not self._handle(data):
                    return
            self._heartbeat()

    # -- control messages ----------------------------------------------

    def _handle(self, data: bytes) -> bool:
        """Run one control message; returns whether to keep serving."""
        msg = decode_message(data)
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            raise WireFormatError(
                f"unexpected worker-control tag {peek_tag(data):#x}"
            )
        return handler(self, msg)

    def _arm_faults(self, msg: WorkerFaultsMsg) -> bool:
        self.faults = FaultPlan.parse(msg.spec).for_worker(self.index)
        return True

    def _install_keys(self, msg: WorkerKeysMsg) -> bool:
        params = deserialize_params(msg.params)
        relin = (
            deserialize_relin_key(msg.relin_key, params)
            if msg.relin_key is not None else None
        )
        galois = tuple(
            deserialize_galois_key(g, params) for g in msg.galois_keys
        )
        self._sessions[msg.token] = self.registry.open_session(
            msg.tenant, params, relin=relin, galois=galois
        )
        return True

    # -- job execution -------------------------------------------------

    def _serve_job(self, msg: WorkerJobMsg) -> bool:
        reply = self._execute(msg)
        action = self.faults.on_result()
        if action == "kill":
            # Simulate a crash at the worst moment: the job ran but its
            # result never leaves the worker.
            if self.mode == "process":
                os._exit(1)
            try:
                self.conn.close()
            except OSError:
                pass
            return False
        if action == "stall":
            # The job executed but its reply never leaves: the worker
            # stays live (heartbeats continue, later jobs are served),
            # which is exactly the hang deadline reaping must cover.
            return True
        if action == "corrupt":
            reply = WorkerResultMsg(
                job_id=reply.job_id, status=reply.status,
                payload=_corrupt_payload(reply.payload), error=reply.error,
                cycles=reply.cycles, seconds=reply.seconds,
                fidelity=reply.fidelity,
            )
        try:
            self.conn.send_bytes(encode_message(reply))
        except (EOFError, OSError, ValueError):
            return False
        self._jobs_done += 1
        return True

    def _execute(self, msg: WorkerJobMsg) -> WorkerResultMsg:
        try:
            session = self._sessions[msg.token]
        except KeyError:
            return WorkerResultMsg(
                job_id=msg.job_id, status="failed",
                error=f"worker {self.index} has no replicated session "
                      f"for token {msg.token!r}",
            )
        try:
            kind = JobKind(msg.kind)
            operands = [
                self.registry.ingest_ciphertext(session, blob)
                for blob in msg.operands
            ]
            circuit = (
                deserialize_circuit(msg.circuit)
                if msg.circuit is not None else None
            )
            job = Job(
                session_id=session.session_id, tenant=session.tenant,
                kind=kind, operands=operands, steps=msg.steps,
                payload=circuit, trace=NULL_TRACE,
            )
        except Exception as exc:  # malformed routed job: fail it cleanly
            return WorkerResultMsg(
                job_id=msg.job_id, status="failed", error=str(exc)
            )
        self._job_seq += 1
        self.backend.execute_batch(self._job_seq, [job], self.registry)
        if job.status is not JobStatus.DONE:
            return WorkerResultMsg(
                job_id=msg.job_id, status="failed",
                error=job.error or "worker execution failed",
            )
        if isinstance(job.result, Ciphertext):
            payload = serialize_ciphertext(job.result)
        else:
            payload = serialize_circuit_outputs(job.result)
        return WorkerResultMsg(
            job_id=msg.job_id, status="done", payload=payload,
            cycles=job.metrics.cycles, seconds=job.metrics.seconds,
            fidelity=job.metrics.fidelity,
        )

    # -- liveness ------------------------------------------------------

    def _heartbeat(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_beat < self.interval:
            return
        self._last_beat = now
        if self.faults.skip_heartbeat():
            return
        self._beat_seq += 1
        beat = WorkerHeartbeatMsg(
            worker=self.index, seq=self._beat_seq, jobs_done=self._jobs_done
        )
        try:
            self.conn.send_bytes(encode_message(beat))
        except (EOFError, OSError, ValueError):
            pass

    #: Orchestrator message type -> handler (returns whether to keep
    #: serving); any other type is a protocol error.
    _HANDLERS = {
        WorkerKeysMsg: _install_keys,
        WorkerFaultsMsg: _arm_faults,
        WorkerJobMsg: _serve_job,
    }


# ----------------------------------------------------------------------
# Orchestrator side
# ----------------------------------------------------------------------


@dataclass
class _Assignment:
    """One job's routed placement (survives requeues intact)."""

    job: Job
    digest: bytes
    message: bytes  # pre-encoded WORKER_JOB frame, reused on requeue
    attempts: int = 0
    dispatched_at: float = field(default_factory=time.perf_counter)
    sent_at: float = 0.0
    last_worker: int = -1  # requeues avoid the worker that just failed


@dataclass
class WorkerHandle:
    """Orchestrator-side view of one worker slot."""

    index: int
    conn: object
    proc: object  # multiprocessing.Process or threading.Thread
    mode: str
    live: bool = True  # admitted (heartbeat current)
    attached: bool = True  # pipe usable
    last_seen: float = 0.0
    heartbeats: int = 0
    jobs_done: int = 0
    assigned: dict[str, _Assignment] = field(default_factory=dict)
    backlog: deque = field(default_factory=deque)
    replicated: dict[str, tuple] = field(default_factory=dict)


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawn children via PYTHONPATH.

    Spawned interpreters re-import this module from scratch; when the
    parent found ``repro`` through pytest's ``pythonpath`` ini (not the
    environment), the child would not.
    """
    src = str(Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *parts])


class FleetBackend(Backend):
    """A fleet of worker processes behind the scheduler's dispatch/poll pair.

    ``size`` workers, each owning ``chips`` simulated CoFHEE chips.
    ``mode="process"`` spawns real interpreters (the deployment shape;
    always the ``spawn`` start method, so macOS and Linux behave the
    same); ``mode="thread"`` runs the identical worker loop in threads
    for fast deterministic tests. ``fault_spec`` (default: the
    ``REPRO_FAULT`` environment variable) arms the deterministic
    :class:`FaultPlan` inside every worker.

    Per-worker sends are windowed (``worker_window`` unacknowledged jobs
    per worker, default 1) so a burst of paper-scale jobs never wedges
    both pipe directions; overflow queues in the orchestrator and drains
    as results return.

    ``spill_threshold`` (``0``, the default, keeps pure digest pinning)
    enables spill-over routing: a job routes to its digest's home worker
    only while the home's in-flight depth (assigned + backlog) is below
    the threshold, then spills to the next live worker — preferring one
    that already holds the session's replicated keys — so one hot tenant
    stops pinning the whole fleet's work to a single worker.
    """

    def __init__(self, size: int = 2, *, mode: str = "process",
                 chips: int = 1, strict_fidelity: bool = False,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 max_attempts: int = 4, worker_window: int = 1,
                 restart: bool = True, fault_spec: str | None = None,
                 spill_threshold: int = 0):
        super().__init__()
        if size < 1:
            raise ValueError("fleet needs at least one worker")
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be 'process' or 'thread', got {mode!r}")
        if worker_window < 1:
            raise ValueError("worker_window must be >= 1")
        if spill_threshold < 0:
            raise ValueError("spill_threshold must be >= 0 (0 disables)")
        self.name = f"fleet_x{size}"
        self.size = size
        self.mode = mode
        self.chips = chips
        self.strict_fidelity = strict_fidelity
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_attempts = max_attempts
        self.worker_window = worker_window
        self.restart = restart
        self.spill_threshold = spill_threshold
        if fault_spec is None:
            fault_spec = os.environ.get("REPRO_FAULT", "")
        self.fault_plan = FaultPlan.parse(fault_spec)
        self._fault_spec = self.fault_plan.render()
        self._registry: SessionRegistry | None = None
        #: job_id -> index of the worker it is placed on (assigned or
        #: backlogged); a job is in flight exactly while it is here.
        self._owner: dict[str, int] = {}
        self._key_wire: dict[str, tuple[tuple, bytes]] = {}
        self._elapsed = 0.0
        self._busy_since: float | None = None
        self._closing = False
        self.requeues = 0
        self.evictions = 0
        self.readmissions = 0
        self.deaths = 0
        self.respawns = 0
        self.stale_results = 0
        self.corrupt_replies = 0
        self.route_home = 0
        self.route_spill = 0
        self.deadline_reaps = 0
        self.resize_grows = 0
        self.resize_shrinks = 0
        #: Cumulative modeled cycles per worker index, across jobs.
        #: The fleet's makespan view: with routing spreading digests,
        #: ``makespan_cycles`` (the busiest worker) drops while
        #: ``total_cycles`` (the work) stays put.
        self.worker_cycles: dict[int, int] = {}
        if mode == "process":
            _ensure_child_import_path()
        self._workers = [self._spawn(i) for i in range(size)]

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, index: int, fault_spec: str | None = None) -> WorkerHandle:
        config = {
            "index": index,
            "mode": self.mode,
            "chips": self.chips,
            "strict_fidelity": self.strict_fidelity,
            "heartbeat_interval": self.heartbeat_interval,
            "fault_spec": (
                self._fault_spec if fault_spec is None else fault_spec
            ),
        }
        if self.mode == "process":
            ctx = multiprocessing.get_context("spawn")
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=fleet_worker_main, args=(child, config),
                name=f"repro-fleet-{index}", daemon=True,
            )
            proc.start()
            child.close()  # our copy; the worker holds the live end
        else:
            parent, child = multiprocessing.Pipe()
            proc = threading.Thread(
                target=fleet_worker_main, args=(child, config),
                name=f"repro-fleet-{index}", daemon=True,
            )
            proc.start()
        handle = WorkerHandle(
            index=index, conn=parent, proc=proc, mode=self.mode,
            last_seen=time.monotonic(),
        )
        return handle

    def close(self) -> None:
        """Shut the fleet down; idempotent. Pending jobs fail cleanly."""
        if self._closing:
            return
        self._closing = True
        for handle in self._workers:
            for assignment in (
                list(handle.assigned.values()) + list(handle.backlog)
            ):
                self._fail_assignment(assignment, "fleet shut down")
            handle.assigned.clear()
            handle.backlog.clear()
            handle.live = False
            handle.attached = False
            try:
                handle.conn.close()  # workers exit on EOF
            except OSError:
                pass
        for handle in self._workers:
            proc = handle.proc
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if hasattr(proc, "terminate") and proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._set_gauges()

    # -- the scheduler's call pair --------------------------------------

    def dispatch(self, job: Job, registry: SessionRegistry) -> None:
        """Route one job to the fleet without blocking.

        Liveness is as fresh as the last :meth:`poll`, which the
        scheduler runs after every dispatch.
        """
        self._registry = registry
        if self._busy_since is None:
            self._busy_since = time.perf_counter()
        digest = registry.get(job.session_id).digest
        self._place(self._encode_assignment(job, digest))
        self._set_gauges()

    def poll(self, timeout: float = 0.0) -> list[tuple[BatchReport, Job]]:
        """Collect settled jobs; processes heartbeats and faults."""
        self._pump(timeout)
        self._check_health()
        self._set_gauges()
        return super().poll()

    @property
    def in_flight(self) -> int:
        """Jobs placed on a worker (sent or backlogged) and not settled."""
        return len(self._owner)

    def wall_seconds(self) -> float:
        busy = self._elapsed
        if self._busy_since is not None:
            busy += time.perf_counter() - self._busy_since
        return busy

    # -- routing and placement -----------------------------------------

    def _encode_assignment(self, job: Job, digest: bytes) -> _Assignment:
        if len(job.wire_operands) == len(job.operands):
            operands = tuple(job.wire_operands)
        else:
            operands = tuple(
                serialize_ciphertext(ct) for ct in job.operands
            )
        circuit = (
            serialize_circuit(job.payload)
            if job.kind is JobKind.CIRCUIT else None
        )
        message = encode_message(WorkerJobMsg(
            job_id=job.job_id, token=job.session_id, kind=job.kind.value,
            steps=job.steps, operands=operands, circuit=circuit,
        ))
        return _Assignment(job=job, digest=digest, message=message)

    def _pick_worker(self, digest: bytes, exclude: int = -1,
                     session_id: str = "") -> WorkerHandle | None:
        """Route by digest, preferring any live worker over ``exclude``.

        ``exclude`` is the index a requeued job just failed on; with two
        or more live workers the replacement placement lands elsewhere,
        which breaks kill-fault livelock (a faulty slot would otherwise
        keep eating the same job until the attempt cap).

        With ``spill_threshold > 0`` the home worker is used only while
        its in-flight depth is below the threshold; past it the job
        spills forward to a live worker with spare depth, preferring one
        that already replicated the session's keys (lazy replication
        makes a cold spill a one-time key shipment, not a per-job cost).
        A fleet that is saturated everywhere routes to the live worker
        with the least in-flight depth (digest order on ties), so a
        burst keeps spreading and spill mode never strands a job.
        """
        start = route_index(digest, self.size)
        order = [
            self._workers[(start + k) % self.size] for k in range(self.size)
        ]
        if self.spill_threshold > 0:
            live = [
                h for h in order
                if h.live and h.attached and h.index != exclude
            ]

            def depth(handle: WorkerHandle) -> int:
                return len(handle.assigned) + len(handle.backlog)

            open_ = [h for h in live if depth(h) < self.spill_threshold]
            if open_ and open_[0] is order[0]:
                self.route_home += 1
                return open_[0]
            if live:
                target = next(
                    (h for h in open_
                     if session_id and session_id in h.replicated),
                    open_[0] if open_ else min(live, key=depth),
                )
                if target is order[0]:
                    self.route_home += 1
                    return target
                self.route_spill += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "repro_fleet_spillovers_total",
                        "Jobs routed off their digest's home worker",
                    ).inc()
                return target
            # Only the excluded worker (or none) is live: digest order.
        fallback = None
        for handle in order:
            if not (handle.live and handle.attached):
                continue
            if handle.index != exclude:
                return handle
            fallback = handle
        return fallback

    def _place(self, assignment: _Assignment) -> None:
        assignment.attempts += 1
        if assignment.attempts > self.max_attempts:
            self._fail_assignment(
                assignment,
                f"job requeued past the attempt cap "
                f"({self.max_attempts} placements)",
            )
            return
        handle = self._pick_worker(
            assignment.digest, exclude=assignment.last_worker,
            session_id=assignment.job.session_id)
        if handle is None:
            self._fail_assignment(assignment, "no live fleet workers")
            return
        handle.backlog.append(assignment)
        self._owner[assignment.job.job_id] = handle.index
        self._kick(handle)

    def _kick(self, handle: WorkerHandle) -> None:
        """Drain a worker's backlog up to its in-flight window."""
        while (handle.attached and handle.live and handle.backlog
               and len(handle.assigned) < self.worker_window):
            assignment = handle.backlog.popleft()
            try:
                self._replicate(handle, assignment.job)
                handle.conn.send_bytes(assignment.message)
            except (EOFError, OSError, ValueError):
                # Leave it with the dead worker's orphans: _on_death
                # requeues everything onto the survivors exactly once.
                handle.backlog.appendleft(assignment)
                self._on_death(handle, "worker pipe broke")
                return
            assignment.sent_at = time.perf_counter()
            assignment.last_worker = handle.index
            handle.assigned[assignment.job.job_id] = assignment

    def _replicate(self, handle: WorkerHandle, job: Job) -> None:
        """Ship a session's params + evaluation keys on first use."""
        registry = self._registry
        session = registry.get(job.session_id)
        fingerprint = (
            id(session.relin), tuple(sorted(session.galois)),
        )
        if handle.replicated.get(session.session_id) == fingerprint:
            return
        cached = self._key_wire.get(session.session_id)
        if cached is None or cached[0] != fingerprint:
            relin = (
                serialize_relin_key(session.relin, session.params)
                if session.relin is not None else None
            )
            galois = tuple(
                serialize_galois_key(key, session.params)
                for _, key in sorted(session.galois.items())
            )
            message = encode_message(WorkerKeysMsg(
                token=session.session_id, tenant=session.tenant,
                params=serialize_params(session.params),
                relin_key=relin, galois_keys=galois,
            ))
            self._key_wire[session.session_id] = (fingerprint, message)
        else:
            message = cached[1]
        handle.conn.send_bytes(message)
        handle.replicated[session.session_id] = fingerprint
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_key_replications_total",
                "Evaluation-key replications to fleet workers",
            ).inc()

    # -- pipe pump and liveness ----------------------------------------

    def _pump(self, timeout: float) -> None:
        handles = {
            handle.conn: handle
            for handle in self._workers if handle.attached
        }
        if not handles:
            if timeout > 0:
                time.sleep(timeout)
            return
        try:
            ready = mp_connection.wait(list(handles), timeout)
        except OSError:
            ready = []
        for conn in ready:
            handle = handles[conn]
            while handle.attached:
                try:
                    if not conn.poll(0):
                        break
                    data = bytes(conn.recv_bytes())
                except (EOFError, OSError):
                    self._on_death(handle, "worker connection closed")
                    break
                self._on_message(handle, data)

    def _on_message(self, handle: WorkerHandle, data: bytes) -> None:
        handle.last_seen = time.monotonic()
        if not handle.live:
            # An evicted worker that speaks again is re-admitted.
            handle.live = True
            self.readmissions += 1
            self._kick(handle)
        msg = decode_message(data)
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            raise WireFormatError(
                f"unexpected worker reply tag {peek_tag(data):#x}"
            )
        handler(self, handle, msg)

    def _on_heartbeat(self, handle: WorkerHandle,
                      beat: WorkerHeartbeatMsg) -> None:
        handle.heartbeats += 1
        handle.jobs_done = max(handle.jobs_done, beat.jobs_done)

    def _check_health(self) -> None:
        now = time.monotonic()
        self._reap_expired(now)
        for handle in list(self._workers):
            if not handle.attached:
                continue
            if handle.proc is not None and not handle.proc.is_alive():
                # Drain any result the worker sent before dying.
                self._drain_remnants(handle)
                if handle.attached:
                    self._on_death(handle, "worker died")
                continue
            if handle.live and now - handle.last_seen > self.heartbeat_timeout:
                self._evict(handle)

    def _reap_expired(self, now: float) -> None:
        """Fail in-flight and backlogged jobs past their deadline.

        Reaping pops the job from the ownership map, so a reply that
        eventually arrives from a stalled worker is discarded as stale —
        the job settles exactly once, with the typed deadline failure,
        and is never requeued.
        """
        for handle in self._workers:
            expired = [
                a for a in handle.assigned.values()
                if a.job.deadline is not None and a.job.deadline <= now
            ]
            for assignment in expired:
                del handle.assigned[assignment.job.job_id]
                self._reap_one(assignment, "deadline expired in flight")
            if handle.backlog and any(
                a.job.deadline is not None and a.job.deadline <= now
                for a in handle.backlog
            ):
                keep: deque = deque()
                for assignment in handle.backlog:
                    if (assignment.job.deadline is not None
                            and assignment.job.deadline <= now):
                        self._reap_one(
                            assignment, "deadline expired before execution"
                        )
                    else:
                        keep.append(assignment)
                handle.backlog = keep
            if expired:
                self._kick(handle)

    def _reap_one(self, assignment: _Assignment, message: str) -> None:
        self.deadline_reaps += 1
        if self.metrics is not None:
            self.metrics.counter(
                "repro_deadline_shed_total",
                "jobs failed past their deadline",
                stage="in_flight", tenant=assignment.job.tenant,
            ).inc()
        self._fail_assignment(assignment, message)

    def _drain_remnants(self, handle: WorkerHandle) -> None:
        while handle.attached:
            try:
                if not handle.conn.poll(0):
                    return
                data = bytes(handle.conn.recv_bytes())
            except (EOFError, OSError):
                self._on_death(handle, "worker died")
                return
            self._on_message(handle, data)

    def _evict(self, handle: WorkerHandle) -> None:
        """Heartbeat went quiet: stop routing, requeue its jobs."""
        handle.live = False
        self.evictions += 1
        orphans = list(handle.assigned.values()) + list(handle.backlog)
        handle.assigned.clear()
        handle.backlog.clear()
        for assignment in orphans:
            self._requeue(assignment, "worker evicted on heartbeat timeout")

    def _on_death(self, handle: WorkerHandle, reason: str) -> None:
        """EOF or dead process: replace the worker, requeue its jobs."""
        if not handle.attached:
            return
        handle.attached = False
        handle.live = False
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.proc is not None:
            handle.proc.join(timeout=0.5)
        orphans = list(handle.assigned.values()) + list(handle.backlog)
        handle.assigned.clear()
        handle.backlog.clear()
        self.deaths += 1
        if self.restart and not self._closing:
            # The replacement starts with a clean fault plan: an armed
            # kill must not loop the slot through death forever.
            self._workers[handle.index] = self._spawn(handle.index, "")
            self.respawns += 1
        for assignment in orphans:
            self._requeue(assignment, reason)

    # -- elastic resize -------------------------------------------------

    def grow(self, count: int = 1) -> int:
        """Admit ``count`` fresh workers; returns the new fleet size.

        New workers append at the end of the index range and inherit the
        fleet's fault spec, so plan rules targeting future indices arm
        the moment their worker exists. Routing immediately includes the
        new indices (``route_index`` is ``digest % size``); in-flight
        work is untouched — the ownership map is keyed by job id, not by
        the routing function.
        """
        if count < 1:
            raise ValueError("grow() wants a positive worker count")
        if self._closing:
            raise RuntimeError("cannot grow a fleet that is shut down")
        for _ in range(count):
            self._workers.append(self._spawn(len(self._workers)))
            self.size += 1
            self.resize_grows += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_fleet_resize_events_total",
                    "Fleet resize operations", direction="grow",
                ).inc()
        self._set_gauges()
        return self.size

    def shrink(self, count: int = 1) -> int:
        """Retire the ``count`` highest-indexed workers; returns the size.

        Reuses the death machinery minus the respawn: the retired
        worker's pipe closes (it exits on EOF), and its in-flight and
        backlogged jobs requeue onto the survivors — the size shrinks
        *before* the requeue so replacement placements route within the
        remaining index range. At least one worker always remains.
        """
        if count < 1:
            raise ValueError("shrink() wants a positive worker count")
        if count >= self.size:
            raise ValueError(
                f"cannot shrink a fleet of {self.size} by {count}; "
                "at least one worker must remain"
            )
        for _ in range(count):
            handle = self._workers.pop()
            self.size -= 1
            self.resize_shrinks += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_fleet_resize_events_total",
                    "Fleet resize operations", direction="shrink",
                ).inc()
                self.metrics.gauge(
                    "repro_fleet_worker_inflight",
                    "Jobs assigned or backlogged per fleet worker",
                    worker=str(handle.index),
                ).set(0)
            orphans = list(handle.assigned.values()) + list(handle.backlog)
            handle.assigned.clear()
            handle.backlog.clear()
            handle.live = False
            handle.attached = False
            try:
                handle.conn.close()  # the worker exits on EOF
            except OSError:
                pass
            if handle.proc is not None:
                handle.proc.join(timeout=2.0)
                if hasattr(handle.proc, "terminate") and handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=1.0)
            for assignment in orphans:
                self._requeue(assignment, "worker retired by shrink")
        self._set_gauges()
        return self.size

    def resize(self, target: int) -> int:
        """Grow or shrink to exactly ``target`` workers; returns the size."""
        if target < 1:
            raise ValueError("fleet size must be >= 1")
        if target > self.size:
            return self.grow(target - self.size)
        if target < self.size:
            return self.shrink(self.size - target)
        return self.size

    def _requeue(self, assignment: _Assignment, reason: str) -> None:
        self.requeues += 1
        self._owner.pop(assignment.job.job_id, None)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_fleet_requeues_total",
                "Fleet jobs requeued after a worker fault",
            ).inc()
        self._place(assignment)

    # -- results and settlement ----------------------------------------

    def _on_result(self, handle: WorkerHandle, msg: WorkerResultMsg) -> None:
        assignment = handle.assigned.pop(msg.job_id, None)
        if assignment is None or self._owner.get(msg.job_id) != handle.index:
            # A worker we already gave up on raced a requeue; its late
            # result must not settle the job a second time.
            self.stale_results += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_fleet_stale_results_total",
                    "Late duplicate results discarded after a requeue",
                ).inc()
            self._kick(handle)
            return
        del self._owner[msg.job_id]
        job = assignment.job
        now = time.perf_counter()
        fidelity: dict[str, int] = {}
        if msg.status == "done":
            try:
                verify_frame(msg.payload)
            except WireFormatError:
                self.corrupt_replies += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "repro_fleet_corrupt_replies_total",
                        "Worker replies failing the CRC integrity check",
                    ).inc()
                self._kick(handle)
                self._place(assignment)  # run it again elsewhere
                return
            if job.trace.enabled and assignment.sent_at:
                job.trace.mark("execute", assignment.sent_at, now)
            job.finish(msg.payload)  # framed wire bytes, decoded client-side
            job.metrics.cycles = msg.cycles
            job.metrics.seconds = msg.seconds
            job.metrics.fidelity = msg.fidelity
            if msg.fidelity:
                fidelity[msg.fidelity] = 1
            self.jobs_done += 1
            handle.jobs_done += 1
        else:
            job.fail(msg.error or "fleet worker failed the job")
        job.metrics.backend = self.name
        job.metrics.worker = handle.index
        self.worker_cycles[handle.index] = (
            self.worker_cycles.get(handle.index, 0) + msg.cycles
        )
        if self.metrics is not None and msg.cycles:
            self.metrics.counter(
                "repro_fleet_worker_cycles_total",
                "Modeled cycles executed per fleet worker",
                worker=str(handle.index),
            ).inc(msg.cycles)
        self._settle(job, BatchReport(
            batch_id=job.metrics.dispatched_seq, backend=self.name,
            worker=handle.index, jobs=1, cycles=msg.cycles,
            seconds=now - assignment.dispatched_at,
            workers=(handle.index,), makespan_cycles=msg.cycles,
            fidelity=fidelity,
        ))
        self._kick(handle)

    #: Worker message type -> handler; any other type is a protocol error.
    _HANDLERS = {
        WorkerHeartbeatMsg: _on_heartbeat,
        WorkerResultMsg: _on_result,
    }

    def _fail_assignment(self, assignment: _Assignment, message: str) -> None:
        job = assignment.job
        self._owner.pop(job.job_id, None)
        job.fail(message)
        job.metrics.backend = self.name
        self._settle(job, BatchReport(
            batch_id=job.metrics.dispatched_seq, backend=self.name,
            worker=-1, jobs=1, cycles=0,
            seconds=time.perf_counter() - assignment.dispatched_at,
        ))

    def _settle(self, job: Job, report: BatchReport) -> None:
        """Queue one settled job's report for :meth:`poll`."""
        self._reports.append((report, job))
        if not self._owner and self._busy_since is not None:
            self._elapsed += time.perf_counter() - self._busy_since
            self._busy_since = None

    # -- reporting ------------------------------------------------------

    def _set_gauges(self) -> None:
        if self.metrics is None:
            return
        live = sum(1 for h in self._workers if h.live and h.attached)
        self.metrics.gauge(
            "repro_fleet_workers_live", "Fleet workers currently admitted"
        ).set(live)
        self.metrics.gauge(
            "repro_fleet_in_flight", "Fleet jobs dispatched but unsettled"
        ).set(self.in_flight)
        for handle in self._workers:
            self.metrics.gauge(
                "repro_fleet_worker_inflight",
                "Jobs assigned or backlogged per fleet worker",
                worker=str(handle.index),
            ).set(len(handle.assigned) + len(handle.backlog))

    @property
    def total_cycles(self) -> int:
        """Modeled cycles executed fleet-wide (the work)."""
        return sum(self.worker_cycles.values())

    @property
    def makespan_cycles(self) -> int:
        """Modeled cycles on the busiest worker (the wall time).

        Workers execute concurrently — separate interpreters — so the
        fleet's modeled wall time is the busiest worker's share, not
        the sum. Spreading parameter digests across a bigger fleet
        shrinks this while :attr:`total_cycles` stays put.
        """
        return max(self.worker_cycles.values(), default=0)

    def fleet_report(self) -> dict:
        """Structured fleet state for tests, stats, and operators."""
        return {
            "size": self.size,
            "mode": self.mode,
            "workers": [
                {
                    "index": h.index,
                    "live": h.live and h.attached,
                    "heartbeats": h.heartbeats,
                    "jobs_done": h.jobs_done,
                    "assigned": len(h.assigned),
                    "backlog": len(h.backlog),
                }
                for h in self._workers
            ],
            "in_flight": self.in_flight,
            "total_cycles": self.total_cycles,
            "makespan_cycles": self.makespan_cycles,
            "requeues": self.requeues,
            "evictions": self.evictions,
            "readmissions": self.readmissions,
            "deaths": self.deaths,
            "respawns": self.respawns,
            "stale_results": self.stale_results,
            "corrupt_replies": self.corrupt_replies,
            "deadline_reaps": self.deadline_reaps,
            "routing": {
                "spill_threshold": self.spill_threshold,
                "home": self.route_home,
                "spill": self.route_spill,
            },
            "resizes": {
                "grow": self.resize_grows,
                "shrink": self.resize_shrinks,
            },
        }
