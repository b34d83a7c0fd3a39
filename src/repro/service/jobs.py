"""Encrypted-job model: what tenants submit and what comes back.

A :class:`Job` is one unit of queued work, and every job has one shape:
a :class:`~repro.service.circuits.Circuit` over uploaded ciphertexts.
An app circuit (a compiled multi-step encrypted program) arrives as one;
a raw homomorphic op (add/sub/multiply/square/rotate) is lowered to its
one-step circuit when the job is built, so every backend executes
circuits only. Every job carries its own metrics and its own
:class:`~repro.service.telemetry.JobTrace`, so the serving layer can
report per-job latency, and where it went, for any job id.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.bfv.scheme import Ciphertext
from repro.service.circuits import (
    OP_ADD,
    OP_MUL_RELIN,
    OP_ROTATE_ROWS,
    OP_SQUARE_RELIN,
    OP_SUB,
    Circuit,
    CircuitStep,
)
from repro.service.telemetry import JobTrace


class JobKind(Enum):
    """The operation a job requests.

    Every kind but ``CIRCUIT`` is a raw op: request vocabulary (the API,
    the wire ``kind`` string, the cache key) for a one-step circuit.
    """

    ADD = "add"
    SUB = "sub"
    MULTIPLY = "multiply"  # Eq. 4 tensor + relinearization
    SQUARE = "square"
    ROTATE = "rotate"
    CIRCUIT = "circuit"  # app circuit: multi-step program over the wire


#: Raw-op kind -> (the circuit op it lowers to, operand count).
_RAW_OPS = {
    JobKind.ADD: (OP_ADD, 2),
    JobKind.SUB: (OP_SUB, 2),
    JobKind.MULTIPLY: (OP_MUL_RELIN, 2),
    JobKind.SQUARE: (OP_SQUARE_RELIN, 1),
    JobKind.ROTATE: (OP_ROTATE_ROWS, 1),
}

#: The one named output of a lowered raw op.
RAW_OUTPUT = "out"

#: A circuit rotation immediate is signed 16-bit. Row rotations act mod
#: ``n/2``, which divides 2**15 for every supported degree (n <= 2**16),
#: so a raw op's 64-bit step count reduces mod 2**15 to the same
#: rotation; a count that is 0 mod 2**15 keeps a nonzero immediate
#: (-2**15) that is a no-op at every degree and fails at execution, as
#: any no-op rotation does.
_STEP_MOD = 2**15


@functools.lru_cache(maxsize=256)
def raw_op_circuit(kind: JobKind, steps: int = 0) -> Circuit:
    """The one-step circuit a raw op lowers to (memoised per kind/steps).

    Inputs are ``a`` (and ``b``), the output is :data:`RAW_OUTPUT`;
    ``steps`` matters for ``ROTATE`` only.
    """
    op, arity = _RAW_OPS[kind]
    args = tuple(range(arity))
    if kind is JobKind.ROTATE:
        if steps == 0 or not -_STEP_MOD <= steps < _STEP_MOD:
            steps = steps % _STEP_MOD or -_STEP_MOD
        args += (steps,)
    return Circuit(
        name=kind.value,
        inputs=("a", "b")[:arity],
        consts=(),
        steps=(CircuitStep(op=op, args=args),),
        outputs=((RAW_OUTPUT, arity),),
    )


class JobStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class JobMetrics:
    """Per-job accounting filled in by the backend that executed it.

    ``cycles`` is chip-pool cycle accounting (0 for CPU-side backends):
    every busy cycle the job added across the pool, a failed job's
    included. ``makespan_cycles`` is its largest single-worker share; a
    fleet job ran on one worker, so there the two are equal.
    Two seconds fields, one meaning each on every backend:
    ``model_seconds`` is the backend's paper model of this job alone
    (chip pool: ``cycles`` ÷ clock; software: the SEAL-anchored CPU
    model; fleet: copied from the worker's EVENT), and ``host_seconds``
    is measured — the scheduler's dispatch-to-settlement wall time, the
    value its ``repro_job_execute_seconds`` histogram observes (0 for
    jobs that never dispatch). ``submitted_seq``/``dispatched_seq`` are
    global sequence numbers: the fairness tests use them to prove no
    tenant starves, and ``dispatched_seq`` identifies the job's dispatch
    (its :class:`~repro.service.scheduler.BatchReport`'s ``batch_id``).

    Tower-sharded chip execution additionally reports, per job:
    ``tower_cycles`` (Algorithm 3 cycles per RNS tower, index-aligned with
    the session's CoFHEE basis, summed over every chip-executed tensor),
    ``tower_workers`` (the distinct pool workers that executed those
    towers), and ``relin_cycles`` (the model-priced key-switch tails —
    one per relinearization, one per rotation plus its automorphism
    copies), so ``cycles == sum(tower_cycles) + relin_cycles`` plus any
    linear-step passes on the chip path. ``fidelity`` is ``"chip"`` when
    every tower of every Eq. 4 tensor ran through a worker's driver with
    a mod-q cross-check, ``"model"`` when the job has no tensor or its
    moduli are not chip-native, so its cycles came from the chip's
    :class:`~repro.core.timing.TimingModel` alone. ``relin_fidelity`` (jobs that relinearize) is ``"engine"``
    when the key switch ran through the batched engine fold and
    ``"model"`` when the parameters force the scalar path (the chip pool
    then prices the tail only).

    Jobs completed without executing record how: ``backend == "cache"``
    for content-addressed result-cache hits, ``backend == "dedupe"`` for
    in-queue dedupe followers — ``dedupe_of`` then names the primary job
    whose single execution produced this job's result.
    """

    backend: str = ""
    worker: int = -1
    cycles: int = 0
    makespan_cycles: int = 0
    model_seconds: float = 0.0
    host_seconds: float = 0.0
    submitted_seq: int = -1
    dispatched_seq: int = -1
    tower_cycles: tuple[int, ...] = ()
    tower_workers: tuple[int, ...] = ()
    relin_cycles: int = 0
    fidelity: str = ""
    relin_fidelity: str = ""
    dedupe_of: str = ""


_job_ids = itertools.count(1)


@dataclass
class Job:
    """One queued unit of encrypted work."""

    session_id: str
    tenant: str
    kind: JobKind
    operands: list[Ciphertext] = field(default_factory=list)
    steps: int = 0  # rotation amount (ROTATE only)
    #: The circuit the job executes: an app circuit (``CIRCUIT``), or
    #: the raw op's one-step circuit, filled in at construction.
    payload: Circuit | None = None
    backend: str = ""  # requested backend name ("" = service default)
    #: Each operand's framed wire bytes, index-aligned with ``operands``
    #: on every job :class:`~repro.service.server.FheServer` builds (it
    #: frames a ``Ciphertext`` operand once, at submit), and a circuit
    #: job's framed circuit as submitted. The content address hashes
    #: these, and the fleet forwards them verbatim. All are dropped when
    #: the job settles.
    wire_operands: tuple[bytes, ...] = ()
    wire_circuit: bytes = b""
    #: Absolute monotonic-clock instant past which the job must not be
    #: dispatched (and is reaped if already in flight). ``None`` = no
    #: deadline. Stamped by the server from the wire's relative budget.
    deadline: float | None = None
    job_id: str = field(default_factory=lambda: f"j{next(_job_ids):05d}")
    status: JobStatus = JobStatus.QUEUED
    #: Wire bytes, set when the job settles as done: a framed ciphertext
    #: (raw op) or a framed named-output map (circuit), whichever
    #: backend ran it; a cache hit or dedupe follower shares the
    #: primary's bytes object.
    result: bytes | None = None
    error: str | None = None
    metrics: JobMetrics = field(default_factory=JobMetrics)
    #: Monotonic-clock phase spans, recorded for every job; see
    #: :mod:`repro.service.telemetry`.
    trace: JobTrace = field(default_factory=JobTrace, repr=False)

    def __post_init__(self):
        if self.kind is not JobKind.CIRCUIT:
            self.payload = raw_op_circuit(
                self.kind, self.steps if self.kind is JobKind.ROTATE else 0
            )
        elif not isinstance(self.payload, Circuit):
            raise ValueError(
                "circuit jobs carry a Circuit payload, got "
                f"{type(self.payload).__name__}"
            )
        if len(self.operands) != len(self.payload.inputs):
            raise ValueError(
                f"{self.kind.value} {self.payload.name!r} takes "
                f"{len(self.payload.inputs)} input ciphertext(s) "
                f"({', '.join(self.payload.inputs)}), "
                f"got {len(self.operands)}"
            )

    @property
    def done(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.FAILED)

    def fail(self, message: str) -> None:
        self.status = JobStatus.FAILED
        self.error = message
        self._settle()

    def finish(self, result: bytes) -> None:
        self.result = result
        self.status = JobStatus.DONE
        self._settle()

    def _settle(self) -> None:
        # Nothing reads the inputs of a settled job: its content address
        # was taken at submit, and the fleet requeues from its own record.
        self.operands = []
        self.wire_operands = ()
        self.wire_circuit = b""
        self.trace.stamp_done()
