"""Encrypted-job model: what tenants submit and what comes back.

A :class:`Job` is one unit of queued work: a raw homomorphic operation
on uploaded ciphertexts (add/sub/multiply/square/relinearize/rotate), an
**app circuit** (a compiled multi-step encrypted program — see
:mod:`repro.service.circuits` — expanded by the backends into the same
per-op/per-tower work units), or a legacy in-process application payload
(a CryptoNets inference or a logistic-regression batch verified against
its plaintext reference). Jobs carry their own metrics so the serving
layer can report per-job latency alongside the aggregate throughput
tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.bfv.scheme import Ciphertext
from repro.service.circuits import Circuit
from repro.service.telemetry import new_trace


class JobKind(Enum):
    """The operation a job requests."""

    ADD = "add"
    SUB = "sub"
    MULTIPLY = "multiply"  # Eq. 4 tensor + relinearization (if key present)
    SQUARE = "square"
    RELINEARIZE = "relinearize"
    ROTATE = "rotate"
    CIRCUIT = "circuit"  # app circuit: multi-step program over the wire
    LOGREG = "logreg"  # app-level: MiniLogisticRegression batch
    CRYPTONETS = "cryptonets"  # app-level: MiniCryptoNets inference

    @property
    def is_app(self) -> bool:
        """In-process application kinds (payload never crosses the wire)."""
        return self in (JobKind.LOGREG, JobKind.CRYPTONETS)


#: Operand count per raw-op kind (app jobs take a payload instead).
OPERAND_ARITY = {
    JobKind.ADD: 2,
    JobKind.SUB: 2,
    JobKind.MULTIPLY: 2,
    JobKind.SQUARE: 1,
    JobKind.RELINEARIZE: 1,
    JobKind.ROTATE: 1,
}


class JobStatus(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class JobMetrics:
    """Per-job accounting filled in by the backend that executed it.

    ``cycles`` is chip-pool cycle accounting (0 for CPU-side backends);
    ``seconds`` is the backend's latency estimate or measurement for this
    job alone. ``submitted_seq``/``dispatched_seq`` are global sequence
    numbers: the fairness tests use them to prove no tenant starves, and
    ``dispatched_seq`` identifies the job's dispatch (its report's
    ``batch_id``).

    Tower-sharded chip execution additionally reports, per job:
    ``tower_cycles`` (Algorithm 3 cycles per RNS tower, index-aligned with
    the session's CoFHEE basis), ``tower_workers`` (which pool worker ran
    each tower), ``relin_cycles`` (the model-priced relinearization tail,
    so ``cycles == sum(tower_cycles) + relin_cycles`` on the chip path),
    and ``fidelity`` — ``"chip"`` when every tower of the Eq. 4 tensor ran
    through a worker's driver with a mod-q cross-check, ``"model"`` when
    cycles came from the compiled DAG estimate. ``relin_fidelity`` is
    ``"model"`` when a relinearization was priced (never chip-executed)
    rather than silently folded in.

    Circuit jobs aggregate across their tensor steps: ``tower_cycles``
    sums each tower's cycles over every chip-executed tensor,
    ``tower_workers`` lists the *distinct* workers that executed them
    (a 12-tensor circuit typically touches the whole pool), and
    ``relin_cycles`` totals one model-priced key-switch tail per tensor
    step.

    Jobs completed without executing record how: ``backend == "cache"``
    for content-addressed result-cache hits, ``backend == "dedupe"`` for
    in-queue dedupe followers — ``dedupe_of`` then names the primary job
    whose single execution produced this job's result.
    """

    backend: str = ""
    worker: int = -1
    cycles: int = 0
    seconds: float = 0.0
    submitted_seq: int = -1
    dispatched_seq: int = -1
    tower_cycles: tuple[int, ...] = ()
    tower_workers: tuple[int, ...] = ()
    relin_cycles: int = 0
    fidelity: str = ""
    relin_fidelity: str = ""
    dedupe_of: str = ""
    #: Circuit jobs only: the optimizer's per-pass rewrite report
    #: (pass name -> steps eliminated, plus steps_before/steps_after and
    #: the optimized unit counts). ``None`` for non-circuit jobs.
    rewrite: dict | None = None


_job_ids = itertools.count(1)


@dataclass
class Job:
    """One queued unit of encrypted work."""

    session_id: str
    tenant: str
    kind: JobKind
    operands: list[Ciphertext] = field(default_factory=list)
    steps: int = 0  # rotation amount (ROTATE only)
    payload: object = None  # Circuit (CIRCUIT) or app inputs (samples/images)
    backend: str = ""  # requested backend name ("" = service default)
    #: The operands' original framed wire bytes when the job arrived over
    #: the transport (index-aligned with ``operands``, empty otherwise).
    #: The fleet forwards these verbatim instead of re-serializing.
    wire_operands: tuple[bytes, ...] = ()
    #: Absolute monotonic-clock instant past which the job must not be
    #: dispatched (and is reaped if already in flight). ``None`` = no
    #: deadline. Stamped by the server from the wire's relative budget.
    deadline: float | None = None
    job_id: str = field(default_factory=lambda: f"j{next(_job_ids):05d}")
    status: JobStatus = JobStatus.QUEUED
    result: object = None  # Ciphertext (raw op), {name: Ciphertext}
    # (circuit), or the app output dict
    error: str | None = None
    metrics: JobMetrics = field(default_factory=JobMetrics)
    #: Monotonic-clock phase spans (the shared NULL_TRACE when
    #: ``REPRO_TRACE=off``); see :mod:`repro.service.telemetry`.
    trace: object = field(default_factory=new_trace, repr=False)

    def __post_init__(self):
        if self.kind is JobKind.CIRCUIT:
            if not isinstance(self.payload, Circuit):
                raise ValueError(
                    "circuit jobs carry a Circuit payload, got "
                    f"{type(self.payload).__name__}"
                )
            if len(self.operands) != len(self.payload.inputs):
                raise ValueError(
                    f"circuit {self.payload.name!r} takes "
                    f"{len(self.payload.inputs)} input ciphertext(s) "
                    f"({', '.join(self.payload.inputs)}), "
                    f"got {len(self.operands)}"
                )
        elif self.kind.is_app:
            if self.operands:
                raise ValueError(f"{self.kind.value} jobs take a payload, not operands")
            if self.payload is None:
                raise ValueError(f"{self.kind.value} jobs need a payload")
        else:
            arity = OPERAND_ARITY[self.kind]
            if len(self.operands) != arity:
                raise ValueError(
                    f"{self.kind.value} takes {arity} operand(s), "
                    f"got {len(self.operands)}"
                )

    @property
    def done(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.FAILED)

    def fail(self, message: str) -> None:
        self.status = JobStatus.FAILED
        self.error = message
        self.trace.stamp_done()

    def finish(self, result: object) -> None:
        self.result = result
        self.status = JobStatus.DONE
        self.trace.stamp_done()
