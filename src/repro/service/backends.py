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

import time
from dataclasses import dataclass, field

from repro.apps.costmodel import CofheeAppCost, CpuAppCost, Workload
from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.baselines.software import CpuCostModel, SoftwareBfv
from repro.bfv.keys import RelinKey
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
    evaluate_circuit,
    rotation_exponent,
)
from repro.service.jobs import Job, JobKind, JobStatus
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
    """What one ``execute_batch`` call (or fleet batch) cost.

    The scheduler hands a synchronous backend one job per call, so under
    a server each synchronous report covers exactly one job; a caller
    that passes several jobs gets one report for all of them.

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


def functional_stage(
    engine: Bfv, session: Session, job: Job
) -> tuple[Ciphertext, RelinKey | None]:
    """A raw-op job's exact arithmetic, up to its relinearization.

    Returns ``(value, relin)``. A keyed MULTIPLY, a SQUARE and a
    RELINEARIZE stop before the key switch and return the key it runs
    under, so the backend can run and time that switch as its own step;
    every other op returns its final result and ``None``.
    """
    ops = job.operands
    if job.kind is JobKind.ADD:
        return engine.add(ops[0], ops[1]), None
    if job.kind is JobKind.SUB:
        return engine.sub(ops[0], ops[1]), None
    if job.kind is JobKind.MULTIPLY:
        return engine.multiply(ops[0], ops[1]), session.relin
    if job.kind is JobKind.SQUARE:
        return engine.square(ops[0]), session.require_relin()
    if job.kind is JobKind.RELINEARIZE:
        return ops[0], session.require_relin()
    if job.kind is JobKind.ROTATE:
        key = session.require_galois(_galois_exponent(session, job.steps))
        return apply_galois_with_key(engine, ops[0], key), None
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
    :func:`functional_stage`, circuits through
    :func:`~repro.service.circuits.evaluate_circuit`, legacy app
    payloads through the plaintext-verified :class:`_AppRunner` — which
    is why all backends return bit-identical ciphertexts.

    Synchronous backends run a batch through :meth:`_each_job`: one job
    at a time, each settled the moment its own work is done. Nothing is
    shared across the jobs of a batch, so a job's result, cycles and
    spans are the same whether it ran alone or with siblings.
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

    def _stage(
        self, registry: SessionRegistry, job: Job, on_tensor=None,
    ) -> tuple[Session, object, Workload | None, RelinKey | None]:
        """A job's exact math up to its relinearization.

        Returns ``(session, value, app workload, relin)``. When ``relin``
        is set, ``value`` still has to be relinearized under it (see
        :func:`functional_stage`); otherwise ``value`` is the job's
        result. ``on_tensor`` is passed to :meth:`_run_circuit`.
        """
        session = registry.get(job.session_id)
        if job.kind.is_app:
            result, workload = self._apps.run(job)
            return session, result, workload, None
        if job.kind is JobKind.CIRCUIT:
            result = self._run_circuit(registry, session, job, on_tensor)
            return session, result, None, None
        for ct in job.operands:
            registry.check_compatible(session, ct)
        engine = self._engine(registry, session)
        value, relin = functional_stage(engine, session, job)
        return session, value, None, relin

    def _key_switch(
        self, registry: SessionRegistry, session: Session, job: Job,
        tensor: Ciphertext, relin: RelinKey,
    ) -> Ciphertext:
        """Relinearize a staged tensor, spanned as the job's ``keyswitch``."""
        engine = self._engine(registry, session)
        with job.trace.span("keyswitch"):
            result = engine.relinearize(tensor, relin)
        if job.kind is not JobKind.RELINEARIZE \
                and engine.can_batch_relinearize(relin):
            job.metrics.relin_fidelity = "engine"
        return result

    def _run_job(
        self, registry: SessionRegistry, job: Job
    ) -> tuple[Session, object, Workload | None]:
        """Functional execution; returns (session, result, app workload).

        Spans the math as ``execute`` and a relinearization as a sibling
        ``keyswitch``, so a trace shows the key switch on every backend.
        """
        with job.trace.span("execute"):
            session, value, workload, relin = self._stage(registry, job)
        if relin is not None:
            value = self._key_switch(registry, session, job, value, relin)
        return session, value, workload

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

    def _each_job(self, batch_id: int, jobs: list[Job], run) -> None:
        """The batch loop every synchronous backend shares.

        Jobs run one after another, and ``run(job)`` settles each at its
        own end. The k-th job's wait on its k-1 predecessors is marked
        ``batch_wait``. A job that raises fails alone; the batch goes on.
        """
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            if i and job.trace.enabled:
                job.trace.mark("batch_wait", start, time.perf_counter())
            try:
                run(job)
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                job.fail(str(exc))
                job.metrics.backend = self.name
                job.metrics.batch_id = batch_id

    def _finish(
        self, job: Job, batch_id: int, result: object, seconds: float
    ) -> None:
        """Settle one job as done."""
        job.finish(result)
        job.metrics.backend = self.name
        job.metrics.batch_id = batch_id
        job.metrics.seconds = seconds
        self.jobs_done += 1


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


class ChipPoolBackend(Backend):
    """Batches dispatched across a pool of N simulated CoFHEE chips.

    Jobs run one at a time (see :meth:`Backend._each_job`); each is
    settled as soon as its own work is done. Inside a job:

    * **Model path** — add/sub/rotate/relinearize, app payloads, and
      tensors whose moduli are not chip-native are priced on the
      then-least-loaded *lead* worker.
    * **Tower level** — a chip-native EvalMult (or squaring: the same
      Eq. 4 tensor with ``a == b``) is split into one work unit
      per RNS tower and fanned out across *different* workers
      (least-loaded, with per-tower ``program(q_i, n)`` reprogramming
      amortized across jobs by the drivers), so a 3-tower multiply on a
      pool of 4 finishes in ~one tower's time. Every tower runs the real
      Algorithm 3 command stream on its worker's driver and is
      cross-checked mod ``q_i`` against the software reference; the
      gather barrier releases a tensor only once its full tower set has
      arrived, and the relinearization runs after it.

    App circuits expand at the same tower level: each tensor step
    becomes its own unit, list-scheduled on true producer edges so a
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
        barrier_start = max(busy_before.values())
        # List-schedule view of the batch: per-worker cycles of the
        # jobs' dependency-free tower units, and how far the simulated
        # clocks ran.
        level0_added: dict[int, int] = {}
        schedule_end = barrier_start

        def run(job: Job) -> None:
            nonlocal schedule_end
            added, end = self._execute_job(batch_id, job, registry)
            for widx, cycles in added.items():
                level0_added[widx] = level0_added.get(widx, 0) + cycles
            schedule_end = max(schedule_end, end)

        self._each_job(batch_id, jobs, run)

        fidelity: dict[str, int] = {}
        tower_cycles: list[int] = []
        for job in jobs:
            if job.status is not JobStatus.DONE:
                continue
            paths = [job.metrics.fidelity]
            if job.metrics.relin_fidelity:
                paths.append(f"relin_{job.metrics.relin_fidelity}")
            for path in paths:
                fidelity[path] = fidelity.get(path, 0) + 1
            for t, cycles in enumerate(job.metrics.tower_cycles):
                if t == len(tower_cycles):
                    tower_cycles.append(0)
                tower_cycles[t] += cycles

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
        overlap = sum(
            min(level0_added.get(w.index, 0),
                max(0, barrier_start - busy_before[w.index]))
            for w in self.workers
        )
        pipelined = max(w.busy_cycles for w in self.workers) - barrier_start
        # List-schedule view of the same batch: how far the simulated
        # clocks (which honor producer edges, not pool levels) ran past
        # the barrier. Dependency slack makes this ≤ the additive share.
        schedule_makespan = schedule_end - barrier_start
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
            tower_cycles=tuple(tower_cycles),
            fidelity=fidelity,
            overlap_cycles=overlap,
            pipelined_makespan_cycles=pipelined,
            schedule_makespan_cycles=schedule_makespan,
        )

    def _execute_job(
        self, batch_id: int, job: Job, registry: SessionRegistry
    ) -> tuple[dict[int, int], int]:
        """Run one job end to end on the pool and settle it.

        Strict-fidelity rejection comes first: the chip-native check
        needs only the session, so a doomed EvalMult (or a circuit with
        tensor steps) never pays for the expensive host-side math.

        Returns the job's list-schedule view: the cycles its
        dependency-free tower units added per worker, and the simulated
        pool clock when its last unit finished.
        """
        session = registry.get(job.session_id)
        needs_tensor = (
            job.kind in (JobKind.MULTIPLY, JobKind.SQUARE)
            or (job.kind is JobKind.CIRCUIT and bool(job.payload.tensor_steps))
        )
        basis = self._chip_native_basis(session) if needs_tensor else None
        if self.strict_fidelity and needs_tensor and basis is None:
            raise BackendError(
                "strict fidelity: EvalMult tensor cannot execute "
                f"on-chip for {session.params.describe()} "
                "(moduli not chip-native)"
            )
        lead = min(self.workers, key=lambda w: (w.busy_cycles, w.index))
        if basis is None or not self.data_fidelity:
            self._execute_modeled(batch_id, job, registry, lead)
            return {}, self.wall_cycles
        return self._execute_on_chip(batch_id, job, registry, basis, lead)

    def _execute_modeled(
        self, batch_id: int, job: Job, registry: SessionRegistry,
        lead: ChipWorker,
    ) -> None:
        """Model path: exact host-side math, cycles priced on the lead.

        Add/sub/rotate/relinearize, app payloads, and tensors whose
        moduli are not chip-native take this path.
        """
        session, result, workload = self._run_job(registry, job)
        cycles = self._job_cycles(lead, session, job, workload)
        lead.busy_cycles += cycles
        job.metrics.fidelity = "model"
        if (workload is None and session.relin is not None
                and (job.kind in (JobKind.MULTIPLY, JobKind.SQUARE)
                     or (job.kind is JobKind.CIRCUIT
                         and job.payload.uses_relin))):
            job.metrics.relin_fidelity = self._relin_label(registry, session)
        self._settle_on(job, batch_id, lead, cycles, result)

    def _execute_on_chip(
        self, batch_id: int, job: Job, registry: SessionRegistry,
        basis: RnsBasis, lead: ChipWorker,
    ) -> tuple[dict[int, int], int]:
        """Chip path: every Eq. 4 tensor of the job replays tower-by-tower.

        The exact host math runs first (a keyed raw tensor stops before
        its relinearization); a circuit records each tensor's operands
        as it evaluates. Each tensor is one unit, fanned out per tower
        by list scheduling: a unit becomes plannable the moment its own
        producers have gathered, and its start is simulated against
        per-worker clocks, so a consumer of an early-finishing tensor
        never waits on an unrelated chain. Work is planned in ready
        waves through :func:`plan_tower_dispatch` (same-modulus
        grouping, twiddle-reprogramming amortization, affinity only for
        workers programmed at this degree); busy-cycle totals stay
        additive while the simulated clocks expose the schedule
        makespan. After the gather, the raw tensor's key switch runs and
        the key-switch tails are charged.
        """
        trace = job.trace
        tensors: list[tuple[int, Ciphertext, Ciphertext]] = []
        with trace.span("execute"):
            session, result, _workload, relin = self._stage(
                registry, job,
                on_tensor=lambda step, a, b: tensors.append((step, a, b)),
            )
        if job.kind is not JobKind.CIRCUIT:
            a = job.operands[0]
            b = job.operands[1] if job.kind is JobKind.MULTIPLY else a
            tensors = [(0, a, b)]
        deps = self._unit_dependencies(job, [step for step, _, _ in tensors])
        n = session.params.n
        towers_n = len(basis.moduli)
        est = self._tensor_estimate_for(n)
        gather = TowerGather({
            unit: tuple(range(towers_n)) for unit in range(len(tensors))
        })
        unit_cycles = [[0] * towers_n for _ in tensors]
        unit_workers: list[dict[int, int]] = [{} for _ in tensors]
        # Simulated per-worker clocks (absolute cycles, origin shared
        # with busy_cycles); ``finish`` is when each unit's last tower
        # completes in the schedule.
        clock = {w.index: w.busy_cycles for w in self.workers}
        finish: dict[int, int] = {}
        level0_added: dict[int, int] = {}
        remaining = list(range(len(tensors)))
        while remaining:
            t_plan = time.perf_counter()
            ready = [u for u in remaining if deps[u] <= finish.keys()]
            ready_at = {
                u: max((finish[d] for d in deps[u]), default=0) for u in ready
            }
            plan = plan_tower_dispatch(
                [
                    item for u in ready
                    for item in tower_items_for(u, basis.moduli, est)
                ],
                [w.busy_cycles for w in self.workers],
                [
                    w.programmed[0]
                    if w.programmed and w.programmed[1] == n else None
                    for w in self.workers
                ],
                metrics=self.metrics,
            )
            t_run = time.perf_counter()
            trace.mark("tower_dispatch", t_plan, t_run)
            for widx in sorted(plan):
                worker = self.workers[widx]
                for item in plan[widx]:
                    unit = item.job_seq  # item keys are unit ids
                    _step, a, b = tensors[unit]
                    outs, cycles = self._run_tower_checked(
                        worker, session, a, b, item
                    )
                    gather.put(unit, item.tower, outs)
                    unit_cycles[unit][item.tower] = cycles
                    unit_workers[unit][item.tower] = widx
                    # The item starts when both its worker is free and
                    # the unit's producers are done.
                    start = max(clock[widx], ready_at[unit])
                    clock[widx] = start + cycles
                    finish[unit] = max(finish.get(unit, 0), clock[widx])
                    if not deps[unit]:
                        level0_added[widx] = (
                            level0_added.get(widx, 0) + cycles
                        )
            t_gather = time.perf_counter()
            trace.mark("worker_execute", t_run, t_gather)
            # Per-unit gather: a unit's full tower set must arrive before
            # its consumers are planned.
            for unit in ready:
                gather.towers(unit)
            remaining = [u for u in remaining if u not in finish]
            trace.mark("gather_barrier", t_gather, time.perf_counter())
        schedule_end = max(clock.values())

        crt_start = time.perf_counter()
        per_tower = [sum(c[t] for c in unit_cycles) for t in range(towers_n)]
        trace.mark("crt_recombine", crt_start, time.perf_counter())
        if relin is not None:
            result = self._key_switch(registry, session, job, result, relin)

        relin_start = time.perf_counter()
        relin_cycles = 0
        finish_worker = lead
        timing = lead.chip.timing
        # Key-switch tails are not tower-bound: each becomes a
        # KeySwitchWorkItem charged to the then-least-loaded worker so it
        # does not serialize on the lead. Raw jobs carry one
        # relinearization; circuits one per relin *step* (a lazily
        # optimized circuit relinearizes fewer times than it tensors)
        # plus one per rotation step (the Galois key-switch, after the
        # lead's automorphism copies).
        n_relins = (
            job.payload.op_counts()["relins"]
            if job.kind is JobKind.CIRCUIT else 1
        )
        items = []
        if session.relin is not None and n_relins:
            est_relin = timing.relinearization_cycles(
                n, session.relin.num_digits, towers_n
            )
            items.extend(
                KeySwitchWorkItem(job_seq=0, est_cycles=est_relin)
                for _ in range(n_relins)
            )
            job.metrics.relin_fidelity = self._relin_label(registry, session)
        if job.kind is JobKind.CIRCUIT and job.payload.uses_rotations:
            for step in job.payload.steps:
                if step.op not in ROTATION_OPS:
                    continue
                key = session.require_galois(rotation_exponent(
                    session.params, step.op,
                    step.args[1] if step.op == OP_ROTATE_ROWS else 0,
                ))
                items.append(KeySwitchWorkItem(
                    job_seq=0,
                    est_cycles=timing.relinearization_cycles(
                        n, key.num_digits, towers_n
                    ),
                ))
                # Automorphism = one copy pass per component, on the
                # lead before the key-switch fans out.
                copies = 2 * timing.memcpy_cycles(n)
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
        linear_cycles = 0
        if job.kind is JobKind.CIRCUIT:
            linear_cycles = self._circuit_linear_cycles(session, job.payload)
            lead.busy_cycles += linear_cycles
        job.metrics.fidelity = "chip"
        job.metrics.tower_cycles = tuple(per_tower)
        if job.kind is JobKind.CIRCUIT:
            # Many tensors may touch one tower: report the distinct
            # workers that executed this job's towers.
            job.metrics.tower_workers = tuple(sorted(
                {w for placed in unit_workers for w in placed.values()}
            ))
        else:
            job.metrics.tower_workers = tuple(
                unit_workers[0][t] for t in range(towers_n)
            )
        job.metrics.relin_cycles = relin_cycles
        trace.mark("relin_tail", relin_start, time.perf_counter())
        self._settle_on(
            job, batch_id, finish_worker,
            sum(per_tower) + relin_cycles + linear_cycles, result,
        )
        return level0_added, schedule_end

    def _relin_label(self, registry: SessionRegistry, session: Session) -> str:
        """``"engine"`` when the key switch runs through the batched engine
        fold; ``"model"`` for params it cannot carry (tail priced only)."""
        capable = self._engine(registry, session).can_batch_relinearize(
            session.relin
        )
        return "engine" if capable else "model"

    def _settle_on(
        self, job: Job, batch_id: int, worker: ChipWorker, cycles: int,
        result: object,
    ) -> None:
        job.metrics.worker = worker.index
        job.metrics.cycles = cycles
        self._finish(
            job, batch_id, result, cycles / worker.chip.clock.frequency_hz
        )

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
    def _unit_dependencies(job: Job, steps: list[int]) -> list[set[int]]:
        """Producer edges between a job's tensor units.

        ``steps[u]`` is the circuit step that unit ``u`` replays. Walks
        the circuit's SSA steps tracking, per register, the set of
        tensor units whose outputs flow into it (non-tensor steps pass
        their operands' producer sets through). A unit depends on the
        producers feeding its own tensor step's operands — the true
        edges the list scheduler honors. A raw EvalMult/SQUARE is one
        unit with no producers.
        """
        deps: list[set[int]] = [set() for _ in steps]
        if job.kind is not JobKind.CIRCUIT:
            return deps
        circuit: Circuit = job.payload
        unit_by_step = {step: unit for unit, step in enumerate(steps)}
        producers: list[set[int]] = [set() for _ in circuit.inputs]
        for idx, step in enumerate(circuit.steps):
            feeding: set[int] = set()
            for arg, role in zip(step.args, OP_SPECS[step.op][1]):
                if role == "r":
                    feeding |= producers[arg]
            unit = unit_by_step.get(idx)
            if unit is None:
                producers.append(feeding)
            else:
                deps[unit] = feeding
                producers.append({unit})
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

        def run(job: Job) -> None:
            nonlocal batch_seconds
            start = time.perf_counter()
            session, result, workload = self._run_job(registry, job)
            seconds = self._job_seconds(
                session, job, workload, time.perf_counter() - start
            )
            self._finish(job, batch_id, result, seconds)
            batch_seconds += seconds

        self._each_job(batch_id, jobs, run)
        self._elapsed += batch_seconds
        return BatchReport(
            batch_id=batch_id, backend=self.name, worker=0,
            jobs=len(jobs), cycles=0, seconds=batch_seconds,
        )

    def _job_seconds(
        self, session: Session, job: Job, workload: Workload | None,
        measured: float,
    ) -> float:
        """The SEAL-anchored latency of one job (``measured`` unused)."""
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


class FastNttBackend(SoftwareBackend):
    """The numpy fast path: measured (not modeled) wall time.

    The registry's fast engine replaces the exact multiplier with
    :class:`~repro.polymath.fastntt.RnsExactMultiplier`, so every tensor
    runs through vectorized word-sized NTTs. Results stay bit-exact with
    the other backends; the latency recorded is a real measurement.
    Same batch loop as the software backend; only the engine and the
    per-job seconds differ.
    """

    name = "fastntt"

    def _engine(self, registry: SessionRegistry, session: Session) -> Bfv:
        try:
            return registry.fast_engine(session)
        except ValueError as exc:
            raise BackendError(
                f"moduli do not permit the fastntt backend for session "
                f"{session.session_id}: {exc}"
            ) from exc

    def _job_seconds(
        self, session: Session, job: Job, workload: Workload | None,
        measured: float,
    ) -> float:
        """The job's measured wall seconds, math and key switch together."""
        return measured
