"""Pluggable compute backends behind the serving layer.

One workload, three ways to run it (the TF-Encrypted "pluggable protocol"
idea mapped onto CoFHEE's evaluation platforms):

* :class:`ChipPoolBackend` — a pool of N simulated CoFHEE chips. Results
  are computed exactly (host-side scheme arithmetic, as the paper's host
  does the ``t/q`` rounding); cycle/IO accounting comes from the
  cycle-calibrated model, and — where the session's modulus fits a single
  native tower — the Algorithm 3 command stream is actually executed on
  the worker's :class:`~repro.core.driver.CofheeDriver`, with the chip's
  mod-q tensor cross-checked against the software reference.
* :class:`SoftwareBackend` — the SEAL-style CPU baseline: same exact
  results, priced by :class:`~repro.baselines.software.CpuCostModel`.
* :class:`FastNttBackend` — the vectorized numpy path: the evaluation
  engine's exact multiplier is swapped for
  :class:`~repro.polymath.fastntt.RnsExactMultiplier` and the reported
  latency is *measured* wall time, where moduli permit (enough sub-31-bit
  NTT-friendly primes for the degree — true for every supported set).

All three produce bit-identical ciphertexts, so a tenant can ask for
correctness (chip fidelity) or speed (numpy) per request and decrypt the
same answer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.apps.costmodel import CofheeAppCost, CpuAppCost, Workload
from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.baselines.software import CpuCostModel, SoftwareBfv
from repro.bfv.params import BfvParameters
from repro.bfv.rotation import apply_galois_with_key
from repro.bfv.scheme import Bfv, Ciphertext
from repro.core.chip import ChipConfig, CoFHEE
from repro.core.driver import CofheeDriver
from repro.core.scheduler import Scheduler, ciphertext_multiply_program
from repro.polymath.primes import ntt_friendly_prime
from repro.polymath.rns import RnsBasis
from repro.service.circuits import (
    Circuit,
    OP_ADD,
    OP_ADD_CONST,
    OP_MAC_CONST,
    OP_MUL_CONST,
    OP_ROTATE_ROWS,
    OP_SPECS,
    OP_SUB,
    ROTATION_OPS,
    TENSOR_OPS,
    evaluate_circuit,
    rotation_exponent,
)
from repro.service.jobs import Job, JobKind
from repro.service.registry import Session, SessionRegistry
from repro.service.towers import (
    KeySwitchWorkItem,
    TowerGather,
    plan_keyswitch_dispatch,
    plan_tower_dispatch,
    tower_items_for,
)


class BackendError(RuntimeError):
    """A backend could not execute a job."""


@dataclass
class BatchReport:
    """What one dispatched batch cost.

    ``worker`` is the lead worker (model-path jobs and relinearization
    tails run there); ``workers`` lists every worker the batch touched —
    under tower sharding one batch fans out across the pool. ``cycles``
    is the total work added across all workers, ``makespan_cycles`` the
    largest single-worker share (what pool scaling shrinks), and
    ``tower_cycles`` the per-tower totals (index-aligned with the batch's
    CoFHEE basis) summed over the batch's chip-executed jobs.

    ``fidelity`` counts jobs per execution path: ``"chip"`` jobs ran every
    tower of their Eq. 4 tensor through a worker driver with a mod-q
    cross-check; ``"model"`` jobs were priced from the compiled DAG or the
    app cost model; ``"relin_engine"`` counts jobs whose relinearization
    tail executed as chip-side key-switch work units through the batched
    engine fold; ``"relin_model"`` remains for params the engine cannot
    carry (wide digits or an engine-incapable basis), where the tail is
    still model-priced only.

    Cross-batch pipelining accounting: ``overlap_cycles`` is how many of
    this batch's level-0 tower cycles started inside the previous batch's
    gather window (per-worker idle headroom below the pool barrier), and
    ``pipelined_makespan_cycles`` the batch's wall-clock extent beyond
    that barrier — at most ``makespan_cycles``, which stays the
    un-pipelined per-batch share.
    """

    batch_id: int
    backend: str
    worker: int
    jobs: int
    cycles: int
    seconds: float
    io_seconds: float = 0.0
    workers: tuple[int, ...] = ()
    makespan_cycles: int = 0
    tower_cycles: tuple[int, ...] = ()
    fidelity: dict[str, int] = field(default_factory=dict)
    overlap_cycles: int = 0
    pipelined_makespan_cycles: int = 0
    #: List-scheduling simulation: how far the simulated per-worker
    #: clocks advanced beyond the pool barrier under true producer-edge
    #: ready times. ≤ ``makespan_cycles`` when dependency slack lets
    #: consumers start before unrelated chains finish.
    schedule_makespan_cycles: int = 0


def default_app_params(kind: JobKind) -> BfvParameters:
    """The canonical toy parameter set each mini application defaults to.

    Kept in sync with the app constructors so an app session's digest
    matches the model the worker instantiates.
    """
    if kind is JobKind.LOGREG:
        return BfvParameters.toy(n=16, log_q=140, t=ntt_friendly_prime(16, 21))
    if kind is JobKind.CRYPTONETS:
        return BfvParameters.toy(n=16, log_q=120, t=ntt_friendly_prime(16, 20))
    raise ValueError(f"{kind.value} is not an application job kind")


# ----------------------------------------------------------------------
# Shared functional execution (all backends produce identical results)
# ----------------------------------------------------------------------


def _galois_exponent(session: Session, steps: int) -> int:
    half = session.params.n // 2
    steps %= half
    if steps == 0:
        raise BackendError("rotation by 0 steps is a no-op; do not submit it")
    return pow(3, steps, 2 * session.params.n)


def execute_functional(engine: Bfv, session: Session, job: Job) -> Ciphertext:
    """Run a raw-op job's homomorphic arithmetic exactly."""
    ops = job.operands
    if job.kind is JobKind.ADD:
        return engine.add(ops[0], ops[1])
    if job.kind is JobKind.SUB:
        return engine.sub(ops[0], ops[1])
    if job.kind is JobKind.MULTIPLY:
        tensor = engine.multiply(ops[0], ops[1])
        if session.relin is not None:
            return engine.relinearize(tensor, session.relin)
        return tensor
    if job.kind is JobKind.SQUARE:
        return engine.relinearize(engine.square(ops[0]), session.require_relin())
    if job.kind is JobKind.RELINEARIZE:
        return engine.relinearize(ops[0], session.require_relin())
    if job.kind is JobKind.ROTATE:
        key = session.require_galois(_galois_exponent(session, job.steps))
        return apply_galois_with_key(engine, ops[0], key)
    raise BackendError(f"unsupported raw-op kind {job.kind.value}")


class _AppRunner:
    """Caches mini-application models per (tenant, config) and runs jobs.

    Every run is verified against the app's own plaintext reference before
    the result is returned — the serving layer never hands back an
    unchecked app answer.
    """

    def __init__(self):
        self._models: dict[tuple, object] = {}

    def run(self, job: Job) -> tuple[object, Workload]:
        payload = job.payload
        if not isinstance(payload, dict):
            raise BackendError(f"{job.kind.value} payload must be a dict")
        if job.kind is JobKind.LOGREG:
            return self._run_logreg(job, payload)
        return self._run_cryptonets(job, payload)

    def _model(self, key: tuple, build) -> object:
        if key not in self._models:
            self._models[key] = build()
        return self._models[key]

    def _run_logreg(self, job: Job, payload: dict) -> tuple[object, Workload]:
        samples = payload["samples"]
        seed = payload.get("seed", 11)
        model: MiniLogisticRegression = self._model(
            (job.tenant, job.kind, len(samples[0]), seed),
            lambda: MiniLogisticRegression(num_features=len(samples[0]), seed=seed),
        )
        before = dict(model.op_log)
        predictions = model.predict(samples)
        if predictions != model.predict_plain(samples):
            raise BackendError("logreg encrypted path diverged from plaintext")
        workload = _op_delta_workload(
            "LogisticRegression", before, model.op_log, relin_digit_bits=16
        )
        return {"predictions": predictions, "verified": True}, workload

    def _run_cryptonets(self, job: Job, payload: dict) -> tuple[object, Workload]:
        images = payload["images"]
        seed = payload.get("seed", 7)
        model: MiniCryptoNets = self._model(
            (job.tenant, job.kind, seed), lambda: MiniCryptoNets(seed=seed)
        )
        before = dict(model.op_log)
        scores = model.infer(images)
        if scores != model.infer_plain(images):
            raise BackendError("cryptonets encrypted path diverged from plaintext")
        workload = _op_delta_workload(
            "CryptoNets", before, model.op_log, relin_digit_bits=8
        )
        result = {
            "scores": scores,
            "classes": model.classify(scores),
            "verified": True,
        }
        return result, workload


def _op_delta_workload(
    name: str, before: dict, after: dict, relin_digit_bits: int
) -> Workload:
    """Turn an op-log delta into a priceable Workload."""
    return Workload(
        name=name,
        ct_ct_adds=after["ct_ct_adds"] - before["ct_ct_adds"],
        ct_pt_mults=after["ct_pt_mults"] - before["ct_pt_mults"],
        ct_ct_mults=after["ct_ct_mults"] - before["ct_ct_mults"],
        relin_digit_bits=relin_digit_bits,
        paper_cpu_seconds=0.0,
        paper_cofhee_seconds=0.0,
    )


# ----------------------------------------------------------------------
# Backend base
# ----------------------------------------------------------------------


class Backend:
    """Shared functional execution and accounting for every backend.

    Subclasses implement :meth:`execute_batch` (how a formed batch runs
    and is priced) and :meth:`wall_seconds`; the base class provides the
    exact per-job arithmetic every backend shares — raw ops through
    :func:`execute_functional`, circuits through
    :func:`~repro.service.circuits.evaluate_circuit`, legacy app
    payloads through the plaintext-verified :class:`_AppRunner` — which
    is why all backends return bit-identical ciphertexts.
    """

    name = "abstract"

    #: Asynchronous backends (the worker fleet) dispatch batches to
    #: external workers and report completions later through
    #: :meth:`poll`; the scheduler keeps forming batches while they are
    #: in flight instead of blocking in :meth:`execute_batch`.
    supports_async = False

    def __init__(self):
        self._apps = _AppRunner()
        self.jobs_done = 0
        #: Metrics sink (set by :class:`~repro.service.server.FheServer`;
        #: ``None`` leaves a standalone backend un-instrumented).
        self.metrics = None

    # subclasses override -------------------------------------------------

    def wall_seconds(self) -> float:
        """Aggregate wall-clock attributed to this backend so far."""
        raise NotImplementedError

    def execute_batch(
        self, batch_id: int, jobs: list[Job], registry: SessionRegistry
    ) -> BatchReport:
        raise NotImplementedError

    # async dispatch interface (supports_async backends only) -------------

    def dispatch_batch(
        self, batch_id: int, jobs: list[Job], registry: SessionRegistry
    ) -> None:
        """Hand a formed batch to external workers without blocking."""
        raise NotImplementedError(f"{self.name} does not dispatch asynchronously")

    def poll(self, timeout: float = 0.0):
        """Collect completed batches: a list of ``(report, jobs)`` pairs."""
        raise NotImplementedError(f"{self.name} does not dispatch asynchronously")

    @property
    def in_flight(self) -> int:
        """Jobs dispatched to workers but not yet settled."""
        return 0

    def close(self) -> None:
        """Release external resources (worker processes); idempotent."""

    # shared helpers ------------------------------------------------------

    def _engine(self, registry: SessionRegistry, session: Session) -> Bfv:
        return registry.engine(session)

    def _run_job(
        self, registry: SessionRegistry, job: Job
    ) -> tuple[Session, object, Workload | None]:
        """Functional execution; returns (session, result, app workload)."""
        session = registry.get(job.session_id)
        if job.kind.is_app:
            result, workload = self._apps.run(job)
            return session, result, workload
        if job.kind is JobKind.CIRCUIT:
            return session, self._run_circuit(registry, session, job), None
        for ct in job.operands:
            registry.check_compatible(session, ct)
        engine = self._engine(registry, session)
        return session, execute_functional(engine, session, job), None

    def _run_circuit(
        self, registry: SessionRegistry, session: Session, job: Job,
        on_tensor=None,
    ) -> dict[str, Ciphertext]:
        """Evaluate a circuit job exactly; returns its named outputs.

        ``on_tensor`` (chip pool only) observes each Eq. 4 tensor's
        operands so the tensor can be replayed tower-by-tower on chip.
        """
        circuit: Circuit = job.payload
        for ct in job.operands:
            registry.check_compatible(session, ct)
        engine = self._engine(registry, session)
        relin = session.require_relin() if circuit.uses_relin else None
        galois = session.require_galois if circuit.uses_rotations else None
        return evaluate_circuit(
            engine, relin, circuit, job.operands, on_tensor=on_tensor,
            galois=galois,
        )

    @staticmethod
    def _fail_job(job: Job, batch_id: int, name: str, exc: Exception) -> None:
        """Fault isolation: one bad job fails alone, the batch continues."""
        job.fail(str(exc))
        job.metrics.backend = name
        job.metrics.batch_id = batch_id

    def _defer_candidate(
        self, registry: SessionRegistry, job: Job
    ) -> tuple[Job, Session, Bfv] | None:
        """Whether a keyed MULTIPLY/SQUARE can join the batched tensor path.

        Batch-aware relinearization: instead of each job folding its own
        digit decomposition through the eval key, the backend runs only
        the Eq. 4 tensor (batched across the candidates, see
        :meth:`_tensor_deferred`) and joins the job to the batch's shared
        key-switch pass (one :meth:`~repro.bfv.scheme.Bfv.relinearize_many`
        call per eval-key digest). Returns ``None`` when the job must take
        the ordinary per-job path — unkeyed, non-tensor, or an engine that
        cannot carry the batched fold.
        """
        if job.kind not in (JobKind.MULTIPLY, JobKind.SQUARE):
            return None
        session = registry.get(job.session_id)
        if session.relin is None:
            return None
        for ct in job.operands:
            registry.check_compatible(session, ct)
        engine = self._engine(registry, session)
        if not engine.can_batch_relinearize(session.relin):
            return None
        return job, session, engine

    @staticmethod
    def _tensor_deferred(
        candidates, trace_execute: bool = True,
        wait_from: float | None = None,
    ):
        """Run the deferred candidates' Eq. 4 tensors, batched per engine.

        One :meth:`~repro.bfv.scheme.Bfv.multiply_many` call per engine
        covers every candidate's tensor (the operand transforms ride one
        forward pass, one inverse covers all components). If the batched
        call raises, the group re-runs job by job so a bad operand fails
        alone. Returns ``(entries, failures)``: entries are
        ``(job, session, engine, tensor, seconds)`` with the measured
        tensor window split evenly across the group; failures are
        ``(job, exc)``.

        When ``trace_execute`` is on, ``wait_from`` (the batch start)
        closes each deferred job's attribution gap: a candidate skips
        the per-job loop, so its wait on batch siblings runs until its
        tensor actually starts — marked here as ``batch_wait``.
        """
        groups: dict[int, list] = {}
        for cand in candidates:
            groups.setdefault(id(cand[2]), []).append(cand)
        entries: list[tuple] = []
        failures: list[tuple[Job, Exception]] = []
        for group in groups.values():
            engine = group[0][2]
            pairs = [
                (
                    job.operands[0],
                    job.operands[1] if job.kind is JobKind.MULTIPLY else None,
                )
                for job, _session, _engine in group
            ]
            t0 = time.perf_counter()
            try:
                tensors = engine.multiply_many(pairs)
            except Exception:  # noqa: BLE001 — re-run alone to attribute
                tensors = None
            t1 = time.perf_counter()
            if tensors is not None:
                share = (t1 - t0) / len(group)
                for (job, session, eng), tensor in zip(group, tensors):
                    if trace_execute and job.trace.enabled:
                        if wait_from is not None:
                            job.trace.mark("batch_wait", wait_from, t0)
                        job.trace.mark("execute", t0, t1)
                    entries.append((job, session, eng, tensor, share))
                continue
            for job, session, eng in group:
                s0 = time.perf_counter()
                try:
                    tensor = (
                        eng.multiply(job.operands[0], job.operands[1])
                        if job.kind is JobKind.MULTIPLY
                        else eng.square(job.operands[0])
                    )
                except Exception as exc:  # noqa: BLE001 — fail alone
                    failures.append((job, exc))
                    continue
                s1 = time.perf_counter()
                if trace_execute and job.trace.enabled:
                    if wait_from is not None:
                        job.trace.mark("batch_wait", wait_from, s0)
                    job.trace.mark("execute", s0, s1)
                entries.append((job, session, eng, tensor, s1 - s0))
        return entries, failures

    @staticmethod
    def _keyswitch_groups(deferred):
        """Group deferred entries by (engine, eval key) for one shared fold."""
        groups: dict[tuple[int, int], list] = {}
        for entry in deferred:
            key = (id(entry[2]), id(entry[1].relin))
            groups.setdefault(key, []).append(entry)
        return list(groups.values())


# ----------------------------------------------------------------------
# Chip pool
# ----------------------------------------------------------------------


@dataclass
class ChipWorker:
    """One simulated CoFHEE chip plus its host driver and accounting."""

    index: int
    chip: CoFHEE
    driver: CofheeDriver
    busy_cycles: int = 0
    io_seconds: float = 0.0

    @property
    def programmed(self) -> tuple[int, int] | None:
        """The driver's currently programmed ``(q, n)`` (batch amortization)."""
        return self.driver.programmed

    def run_tower(
        self,
        ct_a: tuple[list[int], list[int]],
        ct_b: tuple[list[int], list[int]],
        q: int,
    ) -> tuple[list[list[int]], int]:
        """Execute one tower's Algorithm 3 on this chip; returns (outs, cycles).

        Reprogramming is amortized by the driver (a worker sweeping many
        same-modulus work units pays the twiddle download once); compute
        cycles land on ``busy_cycles`` and host-link time on ``io_seconds``.
        """
        outs, report = self.driver.ciphertext_multiply_tower(ct_a, ct_b, q)
        self.io_seconds += report.io_seconds
        self.busy_cycles += report.cycles
        return outs, report.cycles

    @property
    def wall_seconds(self) -> float:
        return (
            self.busy_cycles / self.chip.clock.frequency_hz + self.io_seconds
        )


@dataclass(frozen=True)
class _TensorUnit:
    """One Eq. 4 tensor to replay tower-by-tower on the chip pool.

    A raw EvalMult/SQUARE job is a single level-0 unit; a circuit job
    contributes one unit per tensor step, with ``level`` its dependency
    depth (see :meth:`~repro.service.circuits.Circuit.tensor_levels`).
    The dispatcher list-schedules on true producer edges
    (:meth:`ChipPoolBackend._unit_dependencies`), so a unit is never
    planned before the units whose outputs it consumes have cleared the
    gather barrier — ``level`` remains the depth summary the planner's
    wave ordering reduces to for a pure tensor chain.
    """

    unit: int  # gather key, unique within the batch
    job_seq: int  # owning job's position within the batch
    level: int
    a: Ciphertext
    b: Ciphertext


class ChipPoolBackend(Backend):
    """Batches dispatched across a pool of N simulated CoFHEE chips.

    Two levels of parallelism:

    * **Job level** — model-priced jobs (add/sub/rotate/relinearize/apps,
      and tensors whose moduli are not chip-native) run on the batch's
      least-loaded *lead* worker.
    * **Tower level** — a chip-native EvalMult (or squaring: the same
      Eq. 4 tensor with ``a == b``) is split into one work unit
      per RNS tower and fanned out across *different* workers
      (least-loaded, with per-tower ``program(q_i, n)`` reprogramming
      amortized across the batch), so a 3-tower multiply on a pool of 4
      finishes in ~one tower's time. Every tower runs the real Algorithm 3
      command stream on its worker's driver and is cross-checked mod
      ``q_i`` against the software reference; the gather barrier releases
      a job only once its full tower set has arrived.

    App circuits expand at the same tower level: each
    ``mul_relin``/``square_relin`` step becomes its own
    :class:`_TensorUnit`, list-scheduled on true producer edges so a
    tensor that consumes another tensor's output is never planned before
    its producer clears the gather barrier (and an independent tensor is
    never held back by an unrelated chain); linear steps (adds,
    plaintext multiply-accumulates) are pointwise-priced on the lead
    worker.

    The pool's aggregate wall time is the makespan (max per-worker busy
    time), which is what shrinks as the pool grows. Cycles for non-native
    work come from compiling the Algorithm 3 DAG with
    :class:`~repro.core.scheduler.Scheduler`. With ``strict_fidelity`` a
    MULTIPLY that cannot run its tensor on-chip fails instead of silently
    degrading to the model path.
    """

    def __init__(self, pool_size: int = 1, chip_config: ChipConfig | None = None,
                 data_fidelity: bool = True, strict_fidelity: bool = False,
                 engine: str = "exact"):
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool needs at least one chip")
        if engine not in ("exact", "fast"):
            raise ValueError(f"engine must be 'exact' or 'fast', got {engine!r}")
        if strict_fidelity and not data_fidelity:
            raise ValueError(
                "strict_fidelity requires data_fidelity: with the chip path "
                "disabled, every EvalMult would fail"
            )
        self.name = f"chip_pool_x{pool_size}"
        self.data_fidelity = data_fidelity
        self.strict_fidelity = strict_fidelity
        self.engine_mode = engine
        self.workers = []
        for i in range(pool_size):
            chip = CoFHEE(chip_config)
            self.workers.append(
                ChipWorker(index=i, chip=chip, driver=CofheeDriver(chip))
            )
        self._mod_q_reference: dict[bytes, SoftwareBfv] = {}
        self._tensor_estimate: dict[int, int] = {}  # n -> per-tower cycles
        self._no_fast_engine: set[bytes] = set()  # digests that can't go fast
        self._overlap_cycles = 0  # cumulative cross-batch pipeline overlap
        self._schedule_makespan = 0  # cumulative list-schedule makespans

    # -- accounting --------------------------------------------------------

    @property
    def wall_cycles(self) -> int:
        """Pool makespan in cycles (what pool scaling reduces)."""
        return max(w.busy_cycles for w in self.workers)

    @property
    def total_cycles(self) -> int:
        return sum(w.busy_cycles for w in self.workers)

    def wall_seconds(self) -> float:
        return max(w.wall_seconds for w in self.workers)

    # -- engines ------------------------------------------------------------

    def _engine(self, registry: SessionRegistry, session: Session) -> Bfv:
        """Functional engine for host-side exact arithmetic.

        ``engine="fast"`` opts into the registry's vectorized numpy engine
        where the moduli permit (bit-identical results — the differential
        suite proves it); the cycle accounting is unaffected either way.
        """
        if self.engine_mode == "fast" and session.digest not in self._no_fast_engine:
            try:
                return registry.fast_engine(session)
            except ValueError:
                # Moduli unsuitable: remember it (construction is the
                # expensive part) and fall back to the exact engine.
                self._no_fast_engine.add(session.digest)
        return registry.engine(session)

    # -- execution ----------------------------------------------------------

    def execute_batch(
        self, batch_id: int, jobs: list[Job], registry: SessionRegistry
    ) -> BatchReport:
        lead = min(self.workers, key=lambda w: (w.busy_cycles, w.index))
        freq = lead.chip.clock.frequency_hz
        busy_before = {w.index: w.busy_cycles for w in self.workers}
        io_before = {w.index: w.io_seconds for w in self.workers}
        fidelity: dict[str, int] = {}
        # Wall-clock sections of this batch, attributed to *every* job in
        # it at the end (each job's clock ticks through all of them; a
        # job's own Phase 1 execution becomes a child span). Multiple
        # windows per phase are fine — attribution sums them.
        sections: list[tuple[str, float, float]] = []
        own_exec: dict[int, tuple[float, float]] = {}
        p1_start = time.perf_counter()

        # Phase 1 — functional execution (exact host-side arithmetic).
        # Strict-fidelity rejection comes first: the chip-native check
        # needs only the session, so a doomed EvalMult (or a circuit with
        # tensor steps) never pays for the (expensive) host-side math.
        # Circuit jobs evaluate with a tensor hook that records every
        # Eq. 4 tensor's operands for the tower-sharded chip replay.
        live: list[tuple[int, Job, Session, object, Workload | None]] = []
        traces: dict[int, list[tuple[int, Ciphertext, Ciphertext]]] = {}
        #: seq -> (engine, size-3 tensor) for jobs whose relinearization is
        #: deferred to the batched chip-side key-switch in Phase 5.
        deferred: dict[int, tuple[Bfv, Ciphertext]] = {}
        # Pre-pass: every chip-bound keyed tensor rides one batched
        # engine call (the key-switches execute in Phase 5 as chip-side
        # work units). A job whose candidacy or tensor fails here simply
        # stays out of ``pre`` and takes the per-job path below, which
        # re-raises with per-job fault attribution.
        pre: dict[int, tuple[Session, Bfv, Ciphertext]] = {}
        if self.data_fidelity:
            cands: list[tuple[int, tuple[Job, Session, Bfv]]] = []
            for seq, job in enumerate(jobs):
                if job.kind not in (JobKind.MULTIPLY, JobKind.SQUARE):
                    continue
                try:
                    if self._chip_native_basis(
                            registry.get(job.session_id)) is None:
                        continue
                    cand = self._defer_candidate(registry, job)
                except Exception:  # noqa: BLE001 — per-job path attributes
                    continue
                if cand is not None:
                    cands.append((seq, cand))
            entries, _failures = self._tensor_deferred(
                [c for _, c in cands], trace_execute=False
            )
            by_job = {id(e[0]): e for e in entries}
            for seq, (job, _session, _engine) in cands:
                entry = by_job.get(id(job))
                if entry is not None:
                    pre[seq] = (entry[1], entry[2], entry[3])
        for seq, job in enumerate(jobs):
            own_start = time.perf_counter()
            try:
                needs_tensor = (
                    job.kind in (JobKind.MULTIPLY, JobKind.SQUARE)
                    or (job.kind is JobKind.CIRCUIT
                        and job.payload.tensor_steps)
                )
                if self.strict_fidelity and needs_tensor:
                    session = registry.get(job.session_id)
                    if self._chip_native_basis(session) is None:
                        raise BackendError(
                            "strict fidelity: EvalMult tensor cannot execute "
                            f"on-chip for {session.params.describe()} "
                            "(moduli not chip-native)"
                        )
                if job.kind is JobKind.CIRCUIT:
                    session = registry.get(job.session_id)
                    trace: list[tuple[int, Ciphertext, Ciphertext]] = []
                    result = self._run_circuit(
                        registry, session, job,
                        on_tensor=lambda i, a, b: trace.append((i, a, b)),
                    )
                    traces[seq] = trace
                    workload = None
                else:
                    entry = pre.get(seq)
                    if entry is not None:
                        session, d_engine, tensor = entry
                        result, workload = tensor, None
                        deferred[seq] = (d_engine, tensor)
                    else:
                        session, result, workload = self._run_job(registry, job)
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                self._fail_job(job, batch_id, self.name, exc)
                continue
            own_exec[seq] = (own_start, time.perf_counter())
            live.append((seq, job, session, result, workload))
        sections.append(("execute", p1_start, time.perf_counter()))

        # Phase 2 — split chip-path (tower-sharded) from model-path jobs.
        # Chip-path work is a list of _TensorUnits: one per raw EvalMult/
        # SQUARE, one per tensor step of a circuit (leveled by dependency
        # depth).
        split_start = time.perf_counter()
        chip_jobs: dict[int, tuple[Job, Session, object, RnsBasis]] = {}
        units: list[_TensorUnit] = []
        job_units: dict[int, list[_TensorUnit]] = {}
        unit_ids = itertools.count()
        model_path = []
        for seq, job, session, result, workload in live:
            wants_chip = (
                self.data_fidelity
                and workload is None
                and (job.kind in (JobKind.MULTIPLY, JobKind.SQUARE)
                     or (job.kind is JobKind.CIRCUIT and traces.get(seq)))
            )
            basis = self._chip_native_basis(session) if wants_chip else None
            if basis is not None:
                if job.kind is JobKind.CIRCUIT:
                    levels = job.payload.tensor_levels()
                    new = [
                        _TensorUnit(next(unit_ids), seq, levels[step], a, b)
                        for step, a, b in traces[seq]
                    ]
                else:
                    a = job.operands[0]
                    b = job.operands[1] if job.kind is JobKind.MULTIPLY else a
                    new = [_TensorUnit(next(unit_ids), seq, 0, a, b)]
                units.extend(new)
                job_units[seq] = new
                chip_jobs[seq] = (job, session, result, basis)
            else:
                model_path.append((seq, job, session, result, workload))
        sections.append(("tower_dispatch", split_start, time.perf_counter()))

        # Phase 3 — model-path jobs run serially on the lead worker.
        p3_start = time.perf_counter()
        for seq, job, session, result, workload in model_path:
            try:
                cycles = self._job_cycles(lead, session, job, workload)
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                self._fail_job(job, batch_id, self.name, exc)
                continue
            lead.busy_cycles += cycles
            job.metrics.fidelity = "model"
            fidelity["model"] = fidelity.get("model", 0) + 1
            if (workload is None and session.relin is not None
                    and (job.kind in (JobKind.MULTIPLY, JobKind.SQUARE)
                         or (job.kind is JobKind.CIRCUIT
                             and job.payload.uses_relin))):
                # Engine-capable params ran their key-switch through the
                # batched fold inside the functional execution; only the
                # tail *pricing* is modeled. Params the engine cannot
                # carry keep the model flag.
                label = (
                    "engine"
                    if self._engine(registry, session).can_batch_relinearize(
                        session.relin
                    )
                    else "model"
                )
                job.metrics.relin_fidelity = label
                fidelity[f"relin_{label}"] = fidelity.get(f"relin_{label}", 0) + 1
            self._finish_job(job, batch_id, lead.index, cycles, freq, result)
        if model_path:
            sections.append(("execute", p3_start, time.perf_counter()))

        # Phase 4 — tower fan-out by list scheduling. True producer edges
        # (register dataflow through the circuit, see _unit_dependencies)
        # replace the old level-by-level pool barrier: a unit becomes
        # plannable the moment its own producers have finished, and its
        # start time is simulated against per-worker clocks — so a
        # consumer of an early-finishing tensor no longer waits for an
        # unrelated deep chain to clear a level. Work is still planned in
        # ready waves through plan_tower_dispatch (same-modulus grouping
        # and twiddle-reprogramming amortization are unchanged, and the
        # affinity hint only counts a worker's programmed modulus when
        # its programmed degree matches this batch), but start/finish
        # bookkeeping is per unit: busy-cycle totals stay additive while
        # the simulated clocks expose the true schedule makespan.
        batch_n = (
            next(iter(chip_jobs.values()))[1].params.n if chip_jobs else None
        )
        gather = TowerGather({
            u.unit: tuple(range(len(chip_jobs[u.job_seq][3].moduli)))
            for u in units
        })
        failed: set[int] = set()  # job seqs with a failed unit
        unit_cycles: dict[int, dict[int, int]] = {}
        unit_workers: dict[int, dict[int, int]] = {}
        unit_deps = self._unit_dependencies(chip_jobs, job_units, traces)
        unit_by_id = {u.unit: u for u in units}
        # Simulated per-worker clocks (absolute cycles, origin shared
        # with busy_cycles) drive ready-time bookkeeping; ``finish``
        # records when each unit's last tower completes in the schedule.
        clock: dict[int, int] = {w.index: w.busy_cycles for w in self.workers}
        finish: dict[int, int] = {}
        remaining: dict[int, _TensorUnit] = {u.unit: u for u in units}
        # Cross-batch pipelining: per-worker cycles this batch's
        # *dependency-free* units added (the level-0 analog). A worker
        # below the pool barrier (the previous batch's makespan point)
        # has idle headroom there, so its share of those units starts
        # inside the previous batch's gather window.
        dep_free = {u.unit for u in units if not unit_deps.get(u.unit)}
        level0_added: dict[int, int] = {}
        while remaining:
            t_plan = time.perf_counter()
            # Units of failed jobs leave the schedule wholesale (their
            # gather slots were discarded at failure time). Dependencies
            # never cross jobs, so dropping them cannot starve the rest.
            for uid in [
                uid for uid, u in remaining.items() if u.job_seq in failed
            ]:
                del remaining[uid]
            ready = [
                u for uid, u in sorted(remaining.items())
                if all(d in finish for d in unit_deps.get(uid, ()))
            ]
            if not ready:
                break
            ready_at = {
                u.unit: max(
                    (finish[d] for d in unit_deps.get(u.unit, ())),
                    default=0,
                )
                for u in ready
            }
            items = []
            for u in ready:
                _job, session, _result, basis = chip_jobs[u.job_seq]
                est = self._tensor_estimate_for(session.params.n)
                items.extend(tower_items_for(u.unit, basis.moduli, est))
            plan = plan_tower_dispatch(
                items,
                [w.busy_cycles for w in self.workers],
                [
                    w.programmed[0]
                    if w.programmed and w.programmed[1] == batch_n else None
                    for w in self.workers
                ],
                metrics=self.metrics,
            )
            t_run = time.perf_counter()
            sections.append(("tower_dispatch", t_plan, t_run))
            for widx in sorted(plan):
                worker = self.workers[widx]
                for item in plan[widx]:
                    u = unit_by_id[item.job_seq]  # item keys are unit ids
                    if u.job_seq in failed:
                        continue
                    job, session, _result, _basis = chip_jobs[u.job_seq]
                    try:
                        outs, cycles = self._run_tower_checked(
                            worker, session, u.a, u.b, item
                        )
                    except Exception as exc:  # noqa: BLE001 — fail alone
                        self._fail_job(job, batch_id, self.name, exc)
                        failed.add(u.job_seq)
                        for ju in job_units[u.job_seq]:
                            gather.discard(ju.unit)
                        continue
                    gather.put(item.job_seq, item.tower, outs)
                    unit_cycles.setdefault(u.unit, {})[item.tower] = cycles
                    unit_workers.setdefault(u.unit, {})[item.tower] = widx
                    # List-schedule clock: the item starts when both its
                    # worker is free and the unit's producers are done.
                    start = max(clock[widx], ready_at[u.unit])
                    clock[widx] = start + cycles
                    finish[u.unit] = max(
                        finish.get(u.unit, 0), clock[widx]
                    )
                    if u.unit in dep_free:
                        level0_added[widx] = level0_added.get(widx, 0) + cycles
            t_gather = time.perf_counter()
            sections.append(("worker_execute", t_run, t_gather))
            # Per-unit gather: every surviving ready unit must have its
            # full tower set before its consumers are planned — the
            # barrier is per producer edge now, not per pool level.
            for u in ready:
                if u.job_seq not in failed:
                    gather.towers(u.unit)
                remaining.pop(u.unit, None)
            sections.append(("gather_barrier", t_gather, time.perf_counter()))
        schedule_end = max(clock.values(), default=0)

        # Phase 5 — barrier settled. Sweep A (CRT recombination view):
        # aggregate per-tower cycles and worker sets across each job's
        # units — pure reads of the gather results. Sweep B (same job
        # order, so the then-least-loaded relin worker selection is
        # unchanged): price each tensor's relinearization tail (and a
        # circuit's linear steps on the lead), and finish the job.
        crt_start = time.perf_counter()
        batch_tower_cycles: dict[int, int] = {}
        recombined: dict[int, tuple[list[int], set[int]]] = {}
        for seq, (job, session, result, basis) in chip_jobs.items():
            if seq in failed:
                continue
            towers_n = len(basis.moduli)
            per_tower = [0] * towers_n
            workers_used: set[int] = set()
            for u in job_units[seq]:
                for t in range(towers_n):
                    per_tower[t] += unit_cycles[u.unit][t]
                workers_used.update(unit_workers[u.unit].values())
            recombined[seq] = (per_tower, workers_used)
            for t, c in enumerate(per_tower):
                batch_tower_cycles[t] = batch_tower_cycles.get(t, 0) + c
        if recombined:
            sections.append(("crt_recombine", crt_start, time.perf_counter()))

        # Chip-side key-switch: every deferred tensor's relinearization
        # executes here as one batched engine fold per eval-key digest —
        # the digit decomposition, forward NTT, and key-row accumulation
        # are shared across the group's jobs instead of re-run per job.
        ks_results: dict[int, Ciphertext] = {}
        ks_live = [s for s in chip_jobs if s not in failed and s in deferred]
        if ks_live:
            ks_start = time.perf_counter()
            ks_groups: dict[tuple[int, int], list[int]] = {}
            for s in ks_live:
                key = (id(deferred[s][0]), id(chip_jobs[s][1].relin))
                ks_groups.setdefault(key, []).append(s)
            for seqs in ks_groups.values():
                eng = deferred[seqs[0]][0]
                relin = chip_jobs[seqs[0]][1].relin
                try:
                    outs = eng.relinearize_many(
                        [deferred[s][1] for s in seqs], relin
                    )
                except Exception as exc:  # noqa: BLE001 — jobs fail alone
                    for s in seqs:
                        self._fail_job(chip_jobs[s][0], batch_id, self.name, exc)
                        failed.add(s)
                    continue
                ks_results.update(zip(seqs, outs))
            sections.append(("keyswitch", ks_start, time.perf_counter()))

        relin_start = time.perf_counter()
        for seq, (job, session, result, basis) in chip_jobs.items():
            if seq in failed:
                continue
            towers_n = len(basis.moduli)
            per_tower, workers_used = recombined[seq]
            relin_cycles = 0
            finish_worker = lead
            timing = self.workers[0].chip.timing
            # Key-switch tails run after each unit's gather and are not
            # tower-bound: each becomes a KeySwitchWorkItem charged to
            # the then-least-loaded worker so it does not serialize on
            # the lead. Raw jobs carry one relinearization; circuits one
            # per relin *step* (a lazily optimized circuit relinearizes
            # fewer times than it tensors) plus one per rotation step
            # (the Galois key-switch, after the lead's automorphism
            # copies).
            n_relins = (
                job.payload.op_counts()["relins"]
                if job.kind is JobKind.CIRCUIT else 1
            )
            items = []
            if session.relin is not None and n_relins:
                est = timing.relinearization_cycles(
                    session.params.n, session.relin.num_digits, towers_n
                )
                items.extend(
                    KeySwitchWorkItem(job_seq=seq, est_cycles=est)
                    for _ in range(n_relins)
                )
            if job.kind is JobKind.CIRCUIT and job.payload.uses_rotations:
                for step in job.payload.steps:
                    if step.op not in ROTATION_OPS:
                        continue
                    exponent = rotation_exponent(
                        session.params, step.op,
                        step.args[1] if step.op == OP_ROTATE_ROWS else 0,
                    )
                    key = session.require_galois(exponent)
                    items.append(KeySwitchWorkItem(
                        job_seq=seq,
                        est_cycles=timing.relinearization_cycles(
                            session.params.n, key.num_digits, towers_n
                        ),
                    ))
                    # Automorphism = one copy pass per component, on the
                    # lead before the key-switch fans out.
                    copies = 2 * timing.memcpy_cycles(session.params.n)
                    lead.busy_cycles += copies
                    relin_cycles += copies
            if items:
                widxs = plan_keyswitch_dispatch(
                    items, [w.busy_cycles for w in self.workers]
                )
                for item, widx in zip(items, widxs):
                    self.workers[widx].busy_cycles += item.est_cycles
                    relin_cycles += item.est_cycles
                finish_worker = self.workers[widxs[-1]]
            if session.relin is not None and n_relins:
                capable = seq in ks_results or self._engine(
                    registry, session
                ).can_batch_relinearize(session.relin)
                label = "engine" if capable else "model"
                job.metrics.relin_fidelity = label
                fidelity[f"relin_{label}"] = fidelity.get(f"relin_{label}", 0) + 1
            linear_cycles = 0
            if job.kind is JobKind.CIRCUIT:
                linear_cycles = self._circuit_linear_cycles(
                    session, job.payload
                )
                lead.busy_cycles += linear_cycles
            job.metrics.fidelity = "chip"
            job.metrics.tower_cycles = tuple(per_tower)
            if job.kind is JobKind.CIRCUIT:
                # Many tensors may touch one tower: report the distinct
                # workers that executed this job's towers.
                job.metrics.tower_workers = tuple(sorted(workers_used))
            else:
                only = job_units[seq][0]
                job.metrics.tower_workers = tuple(
                    unit_workers[only.unit][t] for t in range(towers_n)
                )
            job.metrics.relin_cycles = relin_cycles
            fidelity["chip"] = fidelity.get("chip", 0) + 1
            self._finish_job(
                job, batch_id, finish_worker.index,
                sum(per_tower) + relin_cycles + linear_cycles, freq,
                ks_results.get(seq, result),
            )
        if recombined:
            sections.append(("relin_tail", relin_start, time.perf_counter()))

        # Attribute every batch section to every job's trace: the job's
        # clock ticked through all of them. Windows are clipped at the
        # job's completion (a model-path job finishes in Phase 3; later
        # sections are not its latency), and the job's own Phase 1
        # functional execution nests as a child of the execute window.
        for seq, job in enumerate(jobs):
            trace = job.trace
            if not trace.enabled:
                continue
            done = trace.done_at
            first_execute = True
            for phase, start, end in sections:
                if done is not None:
                    if start >= done:
                        continue
                    end = min(end, done)
                index = trace.mark(phase, start, end)
                if phase == "execute" and first_execute:
                    first_execute = False
                    if seq in own_exec:
                        o_start, o_end = own_exec[seq]
                        if start <= o_start < end:
                            trace.mark(
                                "execute", o_start, min(o_end, end),
                                parent=index,
                            )

        added = {
            w.index: w.busy_cycles - busy_before[w.index] for w in self.workers
        }
        batch_cycles = sum(added.values())
        used = tuple(sorted(i for i, c in added.items() if c > 0))
        # Cross-batch pipelining: a worker whose busy clock sat below the
        # pool barrier (the previous batch's makespan point) starts its
        # first-level tower units inside the previous batch's gather
        # window. ``overlap`` counts those early-start cycles; the batch's
        # pipelined extent is how far it pushes the pool frontier beyond
        # the barrier — at most the un-pipelined makespan.
        barrier_start = max(busy_before.values())
        overlap = sum(
            min(level0_added.get(w.index, 0),
                max(0, barrier_start - busy_before[w.index]))
            for w in self.workers
        )
        pipelined = max(w.busy_cycles for w in self.workers) - barrier_start
        # List-schedule view of the same batch: how far the simulated
        # clocks (which honor producer edges, not pool levels) ran past
        # the barrier. Dependency slack makes this ≤ the additive share.
        schedule_makespan = max(0, schedule_end - barrier_start)
        self._overlap_cycles += overlap
        self._schedule_makespan += schedule_makespan
        if self.metrics is not None:
            self.metrics.gauge(
                "repro_pipeline_overlap_cycles",
                "cumulative tower cycles started inside a previous "
                "batch's gather window",
            ).set(self._overlap_cycles)
            self.metrics.gauge(
                "repro_schedule_makespan_cycles",
                "cumulative list-scheduling makespan (per-unit ready "
                "times against simulated per-worker clocks)",
            ).set(self._schedule_makespan)
            total = self.total_cycles
            for w in self.workers:
                self.metrics.gauge(
                    "repro_worker_busy_cycles",
                    "cumulative busy cycles per pool worker",
                    worker=w.index,
                ).set(w.busy_cycles)
                self.metrics.gauge(
                    "repro_worker_busy_fraction",
                    "worker share of the pool's total busy cycles",
                    worker=w.index,
                ).set(w.busy_cycles / total if total else 0.0)
        return BatchReport(
            batch_id=batch_id,
            backend=self.name,
            worker=lead.index,
            jobs=len(jobs),
            cycles=batch_cycles,
            seconds=batch_cycles / freq,
            io_seconds=sum(
                w.io_seconds - io_before[w.index] for w in self.workers
            ),
            workers=used or (lead.index,),
            makespan_cycles=max(added.values(), default=0),
            tower_cycles=tuple(
                batch_tower_cycles.get(t, 0)
                for t in range(len(batch_tower_cycles))
            ),
            fidelity=fidelity,
            overlap_cycles=overlap,
            pipelined_makespan_cycles=pipelined,
            schedule_makespan_cycles=schedule_makespan,
        )

    def _finish_job(
        self, job: Job, batch_id: int, worker_index: int, cycles: int,
        freq: float, result: object,
    ) -> None:
        job.finish(result)
        job.metrics.backend = self.name
        job.metrics.worker = worker_index
        job.metrics.batch_id = batch_id
        job.metrics.cycles = cycles
        job.metrics.seconds = cycles / freq
        self.jobs_done += 1

    # -- tower-sharded chip execution ---------------------------------------

    def _chip_native_basis(self, session: Session) -> RnsBasis | None:
        """The session's CoFHEE basis, iff every tower can run on a chip.

        Chip-native means the basis covers exactly ``q``, every tower
        modulus supports the negacyclic NTT at the session's degree
        (``q_i === 1 mod 2n``), fits the chip's Q register, and one
        polynomial fits an on-chip bank. Non-native sessions take the
        model path (or fail under ``strict_fidelity``) instead of
        faulting a driver mid-batch.
        """
        params = session.params
        basis = params.cofhee_basis
        if basis is None or basis.modulus != params.q:
            return None
        if params.n > self.workers[0].chip.config.poly_words:
            return None
        q_bits = self.workers[0].chip.regs.spec("Q").bits
        if any(q.bit_length() > q_bits for q in basis.moduli):
            return None
        if any((q - 1) % (2 * params.n) != 0 for q in basis.moduli):
            return None
        return basis

    @staticmethod
    def _unit_dependencies(
        chip_jobs: dict[int, tuple],
        job_units: dict[int, list[_TensorUnit]],
        traces: dict[int, list[tuple[int, Ciphertext, Ciphertext]]],
    ) -> dict[int, set[int]]:
        """Per-unit producer edges from circuit register dataflow.

        Walks each circuit's SSA steps tracking, per register, the set of
        tensor units whose outputs flow into it (non-tensor steps pass
        their operands' producer sets through). A unit's dependencies are
        the producers feeding its own tensor step's operands — the true
        edges the list scheduler honors, replacing the conservative
        depth-level barrier. Raw EvalMult/SQUARE jobs have one unit and
        no producers; dependencies never cross jobs.
        """
        deps: dict[int, set[int]] = {}
        for seq, entry in chip_jobs.items():
            job = entry[0]
            units = job_units.get(seq, [])
            if job.kind is not JobKind.CIRCUIT:
                for u in units:
                    deps[u.unit] = set()
                continue
            circuit: Circuit = job.payload
            unit_by_step = {
                step: u.unit
                for (step, _a, _b), u in zip(traces[seq], units)
            }
            producers: list[set[int]] = [
                set() for _ in range(len(circuit.inputs))
            ]
            for idx, step in enumerate(circuit.steps):
                feeding: set[int] = set()
                for arg, role in zip(step.args, OP_SPECS[step.op][1]):
                    if role == "r":
                        feeding |= producers[arg]
                uid = unit_by_step.get(idx)
                if uid is not None:
                    deps[uid] = feeding
                    producers.append({uid})
                else:
                    producers.append(feeding)
        return deps

    def _run_tower_checked(
        self, worker: ChipWorker, session: Session, a: Ciphertext,
        b: Ciphertext, item
    ) -> tuple[list[list[int]], int]:
        """One tower's Algorithm 3 on ``worker``, cross-checked mod q_i.

        ``a``/``b`` are the tensor's 2-component operands — a raw job's
        uploaded ciphertexts, or a circuit step's (possibly intermediate)
        values. SQUARE runs the same command stream with both inputs
        bound to the one operand (the Eq. 4 tensor with ``a == b``).
        """
        ct_a = (a.polys[0].coeffs, a.polys[1].coeffs)
        ct_b = (b.polys[0].coeffs, b.polys[1].coeffs)
        outs, cycles = worker.run_tower(ct_a, ct_b, item.modulus)
        expected = self._reference_for(session).tower_multiply(
            item.modulus, ct_a, ct_b
        )
        if outs != expected:
            raise BackendError(
                f"chip {worker.index} mod-q tensor diverged from the "
                f"software reference on tower {item.tower} "
                f"(q_i = {item.modulus}) — datapath fault"
            )
        return outs, cycles

    # -- cycle accounting ---------------------------------------------------

    def _job_cycles(
        self, worker: ChipWorker, session: Session, job: Job,
        workload: Workload | None,
    ) -> int:
        params = session.params
        timing = worker.chip.timing
        if workload is not None:  # app-level job: price the op mix
            cost = CofheeAppCost(params, timing)
            seconds = cost.workload_seconds(workload)["total_s"]
            return round(seconds * worker.chip.clock.frequency_hz)
        n, towers = params.n, params.cofhee_tower_count
        if job.kind is JobKind.CIRCUIT:
            # Model path for a whole circuit: linear steps pointwise,
            # each tensor step one Eq. 4 estimate, each relin step one
            # key-switch tail (fewer than the tensors after lazy
            # optimization), each rotation an automorphism copy pass
            # plus a Galois key-switch.
            circuit: Circuit = job.payload
            counts = circuit.op_counts()
            cycles = self._circuit_linear_cycles(session, circuit)
            if counts["ct_ct_mults"]:
                cycles += (
                    counts["ct_ct_mults"] * towers * self._tensor_estimate_for(n)
                )
            if counts["relins"]:
                cycles += counts["relins"] * timing.relinearization_cycles(
                    n, session.require_relin().num_digits, towers
                )
            for step in circuit.steps:
                if step.op not in ROTATION_OPS:
                    continue
                key = session.require_galois(rotation_exponent(
                    params, step.op,
                    step.args[1] if step.op == OP_ROTATE_ROWS else 0,
                ))
                cycles += 2 * timing.memcpy_cycles(n)
                cycles += timing.relinearization_cycles(
                    n, key.num_digits, towers
                )
            return cycles
        if job.kind in (JobKind.ADD, JobKind.SUB):
            return 2 * towers * timing.pointwise_cycles(n)
        if job.kind is JobKind.RELINEARIZE:
            return timing.relinearization_cycles(
                n, session.require_relin().num_digits, towers
            )
        if job.kind is JobKind.ROTATE:
            key = session.require_galois(_galois_exponent(session, job.steps))
            # automorphism = one copy pass per component, then key-switch
            return 2 * timing.memcpy_cycles(n) + timing.relinearization_cycles(
                n, key.num_digits, towers
            )
        # MULTIPLY / SQUARE on the model path: Eq. 4 tensor estimate
        # (+ relin when the session has a key).
        cycles = params.cofhee_tower_count * self._tensor_estimate_for(n)
        if session.relin is not None:
            cycles += timing.relinearization_cycles(
                n, session.relin.num_digits, towers
            )
        return cycles

    def _circuit_linear_cycles(self, session: Session, circuit: Circuit) -> int:
        """Pointwise-op cycles for a circuit's non-tensor steps.

        Adds and plaintext scalings are slot-wise passes over the
        ciphertext components: ct+ct touches both components of both
        operands' sum (2 passes), ct+pt only ``c0`` (1), ct*pt scales
        both components (2), and a multiply-accumulate is the scale plus
        the add (4). Tensor steps are priced separately.
        """
        params = session.params
        timing = self.workers[0].chip.timing
        pointwise = params.cofhee_tower_count * timing.pointwise_cycles(params.n)
        passes = {
            OP_ADD: 2, OP_SUB: 2, OP_ADD_CONST: 1,
            OP_MUL_CONST: 2, OP_MAC_CONST: 4,
        }
        return sum(
            passes[step.op] * pointwise
            for step in circuit.steps if step.op in passes
        )

    def _tensor_estimate_for(self, n: int) -> int:
        """Per-tower Algorithm 3 cycles from compiling the DAG (cached).

        The schedule depends only on (n, timing) — identical for every
        chip in the pool — so compile once per degree.
        """
        if n not in self._tensor_estimate:
            schedule = Scheduler(n, timing=self.workers[0].chip.timing).compile(
                ciphertext_multiply_program()
            )
            self._tensor_estimate[n] = schedule.compute_cycles
        return self._tensor_estimate[n]

    def _reference_for(self, session: Session) -> SoftwareBfv:
        """Per-tower mod-q ground truth for cross-checks (cached per digest).

        Auto-selects the batched tower engine where tower moduli fit
        (single-tower views share one precomputation) — the cross-check
        stays affordable at paper-scale degrees instead of dominating
        chip-job wall time.
        """
        if session.digest not in self._mod_q_reference:
            basis = self._chip_native_basis(session)
            if basis is None:
                basis = RnsBasis([session.params.q])
            self._mod_q_reference[session.digest] = SoftwareBfv(
                basis, session.params.n
            )
        return self._mod_q_reference[session.digest]


# ----------------------------------------------------------------------
# Software (SEAL-style CPU) baseline
# ----------------------------------------------------------------------


class SoftwareBackend(Backend):
    """Exact results through the pure-Python engine, priced like SEAL.

    Per-op latency comes from the Fig. 6-calibrated
    :class:`~repro.baselines.software.CpuCostModel` (the ciphertext tensor)
    plus the SEAL microbenchmark anchors in
    :class:`~repro.apps.costmodel.CpuAppCost` for add/ct*pt. Jobs run
    serially: the aggregate wall time is the plain sum.
    """

    name = "software"

    #: SEAL's relinearization costs roughly one more tensor's worth of NTT
    #: work at these digit counts; priced as one extra tensor.
    RELIN_TENSOR_EQUIV = 1.0

    def __init__(self, threads: int = 1):
        super().__init__()
        self.threads = threads
        self.cost = CpuCostModel()
        self._elapsed = 0.0

    def wall_seconds(self) -> float:
        return self._elapsed

    def execute_batch(
        self, batch_id: int, jobs: list[Job], registry: SessionRegistry
    ) -> BatchReport:
        batch_seconds = 0.0
        batch_start = time.perf_counter()
        candidates: list[tuple[Job, Session, Bfv]] = []
        for job in jobs:
            try:
                cand = self._defer_candidate(registry, job)
                if cand is not None:
                    # Deferred jobs wait until the batched tensor starts;
                    # _tensor_deferred marks their batch_wait + execute.
                    candidates.append(cand)
                    continue
                if job.trace.enabled:
                    # Jobs run serially: everything before this job's own
                    # start is time spent waiting on batch siblings.
                    job.trace.mark(
                        "batch_wait", batch_start, time.perf_counter()
                    )
                with job.trace.span("execute"):
                    session, result, workload = self._run_job(registry, job)
                seconds = self._job_seconds(session, job, workload)
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                self._fail_job(job, batch_id, self.name, exc)
                continue
            job.finish(result)
            job.metrics.backend = self.name
            job.metrics.batch_id = batch_id
            job.metrics.seconds = seconds
            batch_seconds += seconds
            self.jobs_done += 1
        # Batch-aware tensors + key-switch: one engine pass covers every
        # deferred tensor, then one shared digit-decomposition fold per
        # eval-key digest relinearizes them. Modeled pricing is
        # unchanged — batching shifts the *measured* wall, not the model.
        deferred, tensor_failures = self._tensor_deferred(
            candidates, wait_from=batch_start
        )
        for job, exc in tensor_failures:
            self._fail_job(job, batch_id, self.name, exc)
        for group in self._keyswitch_groups(deferred):
            engine, relin = group[0][2], group[0][1].relin
            ks_start = time.perf_counter()
            try:
                results = engine.relinearize_many(
                    [e[3] for e in group], relin
                )
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                for job, *_rest in group:
                    self._fail_job(job, batch_id, self.name, exc)
                continue
            ks_end = time.perf_counter()
            for (job, session, _eng, _tensor, _secs), result in zip(
                group, results
            ):
                if job.trace.enabled:
                    job.trace.mark("keyswitch", ks_start, ks_end)
                seconds = self._job_seconds(session, job, None)
                job.finish(result)
                job.metrics.backend = self.name
                job.metrics.batch_id = batch_id
                job.metrics.seconds = seconds
                job.metrics.relin_fidelity = "engine"
                batch_seconds += seconds
                self.jobs_done += 1
        self._elapsed += batch_seconds
        return BatchReport(
            batch_id=batch_id, backend=self.name, worker=0,
            jobs=len(jobs), cycles=0, seconds=batch_seconds,
        )

    def _job_seconds(
        self, session: Session, job: Job, workload: Workload | None
    ) -> float:
        params = session.params
        if workload is not None:
            return CpuAppCost().workload_seconds(workload)["total_s"]
        # Scale the SEAL anchors (measured at n = 2^12, 2 towers) to the
        # session's degree and tower count.
        anchor_scale = (params.n / 2**12) * (params.cpu_tower_count / 2)
        if job.kind is JobKind.CIRCUIT:
            # Price the op mix from the same anchors the raw ops use:
            # adds and ct*pt from the SEAL microbenchmarks, each tensor
            # step one ciphertext multiply, each relin/rotation one
            # key-switch (identical to the fused pricing when every
            # tensor carries its relin, cheaper after lazy optimization).
            counts = job.payload.op_counts()
            tensor = self.cost.ciphertext_mult_ms(params, self.threads) * 1e-3
            return (
                counts["ct_ct_adds"] * CpuAppCost.ADD_US * 1e-6 * anchor_scale
                + counts["ct_pt_mults"] * CpuAppCost.CT_PT_US * 1e-6 * anchor_scale
                + counts["ct_ct_mults"] * tensor
                + (counts["relins"] + counts["rotations"])
                * tensor * self.RELIN_TENSOR_EQUIV
            )
        if job.kind in (JobKind.ADD, JobKind.SUB):
            return CpuAppCost.ADD_US * 1e-6 * anchor_scale
        tensor = self.cost.ciphertext_mult_ms(params, self.threads) * 1e-3
        if job.kind is JobKind.RELINEARIZE:
            return tensor * self.RELIN_TENSOR_EQUIV
        if job.kind is JobKind.ROTATE:
            return tensor * self.RELIN_TENSOR_EQUIV
        # MULTIPLY / SQUARE (+ relin when the session holds a key)
        if session.relin is not None:
            return tensor * (1.0 + self.RELIN_TENSOR_EQUIV)
        return tensor


# ----------------------------------------------------------------------
# Vectorized numpy backend
# ----------------------------------------------------------------------


class FastNttBackend(Backend):
    """The numpy fast path: measured (not modeled) wall time.

    The registry's fast engine replaces the exact multiplier with
    :class:`~repro.polymath.fastntt.RnsExactMultiplier`, so every tensor
    runs through vectorized word-sized NTTs. Results stay bit-exact with
    the other backends; the latency recorded is a real measurement.
    """

    name = "fastntt"

    def __init__(self):
        super().__init__()
        self._elapsed = 0.0

    def wall_seconds(self) -> float:
        return self._elapsed

    def _engine(self, registry: SessionRegistry, session: Session) -> Bfv:
        try:
            return registry.fast_engine(session)
        except ValueError as exc:
            raise BackendError(
                f"moduli do not permit the fastntt backend for session "
                f"{session.session_id}: {exc}"
            ) from exc

    def execute_batch(
        self, batch_id: int, jobs: list[Job], registry: SessionRegistry
    ) -> BatchReport:
        batch_seconds = 0.0
        batch_start = time.perf_counter()
        candidates: list[tuple[Job, Session, Bfv]] = []
        for job in jobs:
            start = time.perf_counter()
            try:
                cand = self._defer_candidate(registry, job)
                if cand is not None:
                    # Deferred jobs wait until the batched tensor starts;
                    # _tensor_deferred marks their batch_wait + execute.
                    candidates.append(cand)
                    continue
                if job.trace.enabled:
                    job.trace.mark("batch_wait", batch_start, start)
                with job.trace.span("execute"):
                    session, result, _workload = self._run_job(registry, job)
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                self._fail_job(job, batch_id, self.name, exc)
                continue
            seconds = time.perf_counter() - start
            job.finish(result)
            job.metrics.backend = self.name
            job.metrics.batch_id = batch_id
            job.metrics.seconds = seconds
            batch_seconds += seconds
            self.jobs_done += 1
        # Batched tensors, then one shared key-switch fold per eval-key
        # digest; each measured window is split evenly across the jobs
        # that rode it.
        deferred, tensor_failures = self._tensor_deferred(
            candidates, wait_from=batch_start
        )
        for job, exc in tensor_failures:
            self._fail_job(job, batch_id, self.name, exc)
        for group in self._keyswitch_groups(deferred):
            engine, relin = group[0][2], group[0][1].relin
            ks_start = time.perf_counter()
            try:
                results = engine.relinearize_many(
                    [e[3] for e in group], relin
                )
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                for job, *_rest in group:
                    self._fail_job(job, batch_id, self.name, exc)
                continue
            ks_end = time.perf_counter()
            share = (ks_end - ks_start) / len(group)
            for (job, _session, _eng, _tensor, tensor_secs), result in zip(
                group, results
            ):
                if job.trace.enabled:
                    job.trace.mark("keyswitch", ks_start, ks_end)
                job.finish(result)
                job.metrics.backend = self.name
                job.metrics.batch_id = batch_id
                job.metrics.seconds = tensor_secs + share
                job.metrics.relin_fidelity = "engine"
                batch_seconds += tensor_secs + share
                self.jobs_done += 1
        self._elapsed += batch_seconds
        return BatchReport(
            batch_id=batch_id, backend=self.name, worker=0,
            jobs=len(jobs), cycles=0, seconds=batch_seconds,
        )
