"""Pluggable compute backends behind the serving layer.

Every job a backend runs is one :class:`~repro.service.circuits.Circuit`
(a raw op is its one-step circuit), evaluated exactly by
:func:`~repro.service.circuits.evaluate_circuit`; the two in-process
backends differ only in how they price and replay it (the TF-Encrypted
"pluggable protocol" idea mapped onto CoFHEE's evaluation platforms):

* :class:`ChipPoolBackend` — a pool of N simulated CoFHEE chips. Results
  are computed exactly (host-side scheme arithmetic, as the paper's host
  does the ``t/q`` rounding); cycle/IO accounting comes from the
  cycle-calibrated model, and — where the session's moduli are
  chip-native — every Eq. 4 tensor's Algorithm 3 command stream is
  actually executed on a worker's :class:`~repro.core.driver.CofheeDriver`,
  tower by tower, with the chip's mod-q tensor cross-checked against
  the scheme's own tensor rows on those towers.
* :class:`SoftwareBackend` — the SEAL-style CPU baseline: same exact
  results, priced by :class:`~repro.baselines.software.CpuCostModel`.

Both produce bit-identical ciphertexts. Each prices a job with its own
paper model (``JobMetrics.model_seconds``); the measured host time
(``JobMetrics.host_seconds``) is the scheduler's, the same clock for
every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.apps.costmodel import CpuAppCost
from repro.baselines.software import CpuCostModel, SoftwareBfv
from repro.bfv.scheme import Ciphertext
from repro.core.chip import ChipConfig, CoFHEE
from repro.core.driver import CofheeDriver
from repro.core.scheduler import Scheduler, ciphertext_multiply_program
from repro.polymath.rns import RnsBasis
from repro.service.circuits import (
    Circuit,
    OP_ADD,
    OP_ADD_CONST,
    OP_MAC_CONST,
    OP_MUL_CONST,
    OP_ROTATE_ROWS,
    OP_SUB,
    ROTATION_OPS,
    evaluate_circuit,
    rotation_exponent,
)
from repro.service.jobs import Job
from repro.service.registry import Session, SessionRegistry


class BackendError(RuntimeError):
    """A backend could not execute a job."""


# ----------------------------------------------------------------------
# Backend base
# ----------------------------------------------------------------------


class Backend:
    """Shared functional execution for every backend.

    The scheduler drives every backend through one call pair:
    :meth:`dispatch` starts a job and :meth:`poll` returns the jobs that
    have settled. Here the pair is synchronous — ``dispatch`` runs the
    job to completion through :meth:`execute_batch` and hands it to the
    next ``poll`` — and the worker fleet overrides both to ship jobs to
    other processes.

    Subclasses implement :meth:`_execute_job`: how one job runs and is
    priced, recorded on its :class:`~repro.service.jobs.JobMetrics`.
    The base class owns the one job loop, :meth:`execute_batch`, and the
    exact per-job arithmetic every backend shares — :meth:`_run_job`,
    one :func:`~repro.service.circuits.evaluate_circuit` call on the
    job's circuit — which is why all backends return bit-identical
    ciphertexts. A backend builds no report: the scheduler folds each
    settled job's metrics into
    :class:`~repro.service.scheduler.ServiceStats`.
    """

    name = "abstract"

    def __init__(self):
        self._settled: list[Job] = []
        self.jobs_done = 0
        #: Metrics sink (set by :class:`~repro.service.server.FheServer`;
        #: ``None`` leaves a standalone backend un-instrumented).
        self.metrics = None

    # subclasses override -------------------------------------------------

    def _execute_job(self, job: Job, registry: SessionRegistry) -> None:
        """Run one job end to end and settle it."""
        raise NotImplementedError

    # the job loop and the scheduler's call pair ----------------------------

    def execute_batch(
        self, batch_id: int, jobs: list[Job], registry: SessionRegistry
    ) -> None:
        """Run ``jobs`` one after another, each settled at its own end.

        A job that raises fails alone; the rest go on. Nothing is shared
        between them, so a job's result, cycles and spans are the same
        whether it ran alone or not. ``batch_id`` is unused.
        """
        for job in jobs:
            try:
                self._execute_job(job, registry)
            except Exception as exc:  # noqa: BLE001 — jobs must fail alone
                job.fail(str(exc))
                job.metrics.backend = self.name

    def dispatch(self, job: Job, registry: SessionRegistry) -> None:
        """Run one job to completion; it waits for :meth:`poll`."""
        self.execute_batch(job.metrics.dispatched_seq, [job], registry)
        self._settled.append(job)

    def poll(self, timeout: float = 0.0) -> list[Job]:
        """Every job settled since the last call.

        Never waits here: a synchronous job settled inside
        :meth:`dispatch`.
        """
        done, self._settled = self._settled, []
        return done

    def close(self) -> None:
        """Release external resources (worker processes); idempotent."""

    # shared helpers ------------------------------------------------------

    def _run_job(
        self, registry: SessionRegistry, job: Job, on_tensor=None,
    ) -> tuple[Session, object]:
        """Evaluate the job's circuit exactly; returns (session, result).

        The trace gets the circuit's ``execute`` and ``keyswitch`` spans.
        ``on_tensor`` (chip pool only) observes each Eq. 4 tensor's
        operands so the tensor can be replayed tower-by-tower on chip.
        """
        session = registry.get(job.session_id)
        circuit: Circuit = job.payload
        for ct in job.operands:
            registry.check_compatible(session, ct)
        engine = registry.engine(session)
        relin = session.require_relin() if circuit.uses_relin else None
        galois = session.require_galois if circuit.uses_rotations else None
        outputs = evaluate_circuit(
            engine, relin, circuit, job.operands, on_tensor=on_tensor,
            galois=galois, trace=job.trace,
        )
        if relin is not None:
            job.metrics.relin_fidelity = (
                "engine" if engine.can_batch_relinearize(relin) else "model"
            )
        return session, job.output(outputs)

    def _finish(self, job: Job, result: object, model_seconds: float) -> None:
        """Settle one job as done, priced at ``model_seconds``."""
        job.finish(result)
        job.metrics.backend = self.name
        job.metrics.model_seconds = model_seconds
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

    @property
    def programmed(self) -> tuple[int, int] | None:
        """The driver's currently programmed ``(q, n)``: the twiddle table
        a unit on another modulus must download first."""
        return self.driver.programmed

    def run_tower(
        self, ct_a: np.ndarray, ct_b: np.ndarray, q: int,
    ) -> tuple[list[np.ndarray], int]:
        """Execute one tower's Algorithm 3 on this chip; returns (outs, cycles).

        ``ct_a``/``ct_b`` are the operands' ``(2, n)`` residues mod ``q``.
        Reprogramming is amortized by the driver (a worker running
        consecutive units on one modulus pays the twiddle download once);
        compute cycles land on ``busy_cycles``.
        """
        outs, report = self.driver.ciphertext_multiply_tower_words(ct_a, ct_b, q)
        self.busy_cycles += report.cycles
        return outs, report.cycles


class ChipPoolBackend(Backend):
    """Jobs run across a pool of N simulated CoFHEE chips.

    Jobs run one at a time (see :meth:`Backend.execute_batch`); each is
    settled as soon as its own work is done. Inside a job's circuit:

    * **Tower level** — on chip-native moduli, every Eq. 4 tensor step
      (an EvalMult, or a squaring: the same tensor with ``a == b``)
      runs once per RNS tower, each tower on its modulus's *home chip*
      (:meth:`_home`). CoFHEE downloads one twiddle table per modulus
      and runs both NTT and iNTT from it (Sections III-J and VIII-B), so
      a ``(q_i, n)`` is homed the first time the pool sees it and stays
      there: a chip homing one table downloads it once, and a 3-tower
      multiply on a pool of 4 finishes in ~one tower's time. Every tower
      runs the real Algorithm 3 command stream on its home chip's driver
      and is cross-checked mod ``q_i`` against the scheme's own tensor
      row. Linear steps (adds, plaintext multiply-accumulates) are
      pointwise-priced on the lead worker, and each key switch becomes a
      model-priced tail on the then-least-loaded worker.
    * **Model path** — a circuit with no tensor step (add/sub/rotate,
      linear circuits) or whose moduli are not chip-native is priced
      whole on the then-least-loaded *lead* worker.

    The pool's makespan (max per-worker busy cycles) is what shrinks as
    the pool grows. Cycles for non-native work come from compiling the
    Algorithm 3 DAG with :class:`~repro.core.scheduler.Scheduler`.
    """

    def __init__(self, pool_size: int = 1, chip_config: ChipConfig | None = None):
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool needs at least one chip")
        self.name = f"chip_pool_x{pool_size}"
        self.workers = []
        for i in range(pool_size):
            chip = CoFHEE(chip_config)
            self.workers.append(
                ChipWorker(index=i, chip=chip, driver=CofheeDriver(chip))
            )
        self._tensor_estimate: dict[int, int] = {}  # n -> per-tower cycles
        self._homes: dict[tuple[int, int], int] = {}  # (q, n) -> worker

    # -- accounting --------------------------------------------------------

    @property
    def wall_cycles(self) -> int:
        """Pool makespan in cycles (what pool scaling reduces)."""
        return max(w.busy_cycles for w in self.workers)

    @property
    def total_cycles(self) -> int:
        return sum(w.busy_cycles for w in self.workers)

    # -- execution ----------------------------------------------------------

    def _execute_job(self, job: Job, registry: SessionRegistry) -> None:
        """Run one job end to end on the pool and settle it.

        The job's ``cycles`` are every busy cycle it added across the
        pool, even when it fails mid-replay, so the jobs' cycles add up
        to the pool's own; ``makespan_cycles`` is its largest
        single-worker share.
        """
        before = [w.busy_cycles for w in self.workers]
        try:
            session = registry.get(job.session_id)
            basis = (
                self._chip_native_basis(session)
                if job.payload.tensor_steps else None
            )
            lead = self._least_loaded()
            if basis is None:
                self._execute_modeled(job, registry, lead)
            else:
                self._execute_on_chip(job, registry, basis, lead)
        finally:
            added = [w.busy_cycles - b for w, b in zip(self.workers, before)]
            job.metrics.cycles = sum(added)
            job.metrics.makespan_cycles = max(added)
            self._set_gauges()

    def _set_gauges(self) -> None:
        if self.metrics is None:
            return
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

    def _execute_modeled(
        self, job: Job, registry: SessionRegistry, lead: ChipWorker,
    ) -> None:
        """Model path: exact host-side math, cycles priced on the lead.

        Circuits without a tensor step, and tensors whose moduli are not
        chip-native, take this path.
        """
        session, result = self._run_job(registry, job)
        cycles = self._job_cycles(session, job.payload)
        lead.busy_cycles += cycles
        job.metrics.fidelity = "model"
        self._settle_on(job, lead, cycles, result)

    def _execute_on_chip(
        self, job: Job, registry: SessionRegistry, basis: RnsBasis,
        lead: ChipWorker,
    ) -> None:
        """Chip path: every Eq. 4 tensor of the job replays tower-by-tower.

        The exact host math runs first, recording each tensor's operands
        as the circuit evaluates; the tensors then replay in that order,
        each tower on its modulus's home chip. Each key-switch tail is
        charged to the then-least-loaded worker, so the tails do not
        serialize on the lead, which runs the rotations' automorphism
        copies and the linear steps.
        """
        circuit: Circuit = job.payload
        tensors: list[tuple[int, Ciphertext, Ciphertext, tuple | None]] = []
        session, result = self._run_job(
            registry, job,
            on_tensor=lambda *tensor: tensors.append(tensor),
        )
        n = session.params.n
        homes = [self._home(q, n) for q in basis.moduli]
        per_tower = [0] * len(homes)
        run_start = time.perf_counter()
        for _, a, b, rows in tensors:
            operands, expected = self._tower_operands(basis, n, a, b, rows)
            for tower, worker in enumerate(homes):
                per_tower[tower] += self._run_tower_checked(
                    worker, operands, expected, tower, basis.moduli[tower]
                )
        relin_start = time.perf_counter()
        job.trace.mark("worker_execute", run_start, relin_start)
        tails, copies = self._key_switch_tails(session, circuit)
        lead.busy_cycles += copies
        finish_worker = lead
        for cycles in tails:
            finish_worker = self._least_loaded()
            finish_worker.busy_cycles += cycles
        linear_cycles = self._circuit_linear_cycles(session, circuit)
        lead.busy_cycles += linear_cycles
        job.metrics.fidelity = "chip"
        job.metrics.tower_cycles = tuple(per_tower)
        job.metrics.tower_workers = tuple(sorted({w.index for w in homes}))
        job.metrics.relin_cycles = copies + sum(tails)
        job.trace.mark("relin_tail", relin_start, time.perf_counter())
        self._settle_on(
            job, finish_worker,
            sum(per_tower) + job.metrics.relin_cycles + linear_cycles, result,
        )

    def _settle_on(
        self, job: Job, worker: ChipWorker, cycles: int, result: object,
    ) -> None:
        job.metrics.worker = worker.index
        self._finish(job, result, cycles / worker.chip.clock.frequency_hz)

    def _least_loaded(self) -> ChipWorker:
        return min(self.workers, key=lambda w: (w.busy_cycles, w.index))

    # -- tower-sharded chip execution ---------------------------------------

    def _home(self, q: int, n: int) -> ChipWorker:
        """The chip that holds ``(q, n)``'s twiddle table, homed on first use.

        A new table goes to the worker homing the fewest tables, then the
        one with the fewest busy cycles, then the lowest index (busy
        cycles alone would home every tower of a fresh pool's first job
        on chip 0).
        """
        if (q, n) not in self._homes:
            homed = list(self._homes.values())
            self._homes[q, n] = min(
                self.workers,
                key=lambda w: (homed.count(w.index), w.busy_cycles, w.index),
            ).index
        return self.workers[self._homes[q, n]]

    def _chip_native_basis(self, session: Session) -> RnsBasis | None:
        """The session's CoFHEE basis, iff every tower can run on a chip.

        Chip-native means the basis covers exactly ``q``, every tower
        modulus supports the negacyclic NTT at the session's degree
        (``q_i === 1 mod 2n``), fits the chip's Q register, and one
        polynomial fits an on-chip bank. Non-native sessions take the
        model path instead of faulting a driver mid-job.
        """
        params = session.params
        basis = params.q_basis
        if basis is None:
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
    def _tower_operands(
        basis: RnsBasis, n: int, a: Ciphertext, b: Ciphertext,
        rows: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A tensor unit's ``(4, L, n)`` operand residues and ``(3, L, n)``
        mod-q reference outputs on every tower, as ``uint64`` words.

        ``rows`` are the scheme's own head rows of the tensor, shared by
        :meth:`~repro.bfv.scheme.Bfv.multiply`: the auxiliary basis leads
        with the session's q towers, which are this chip basis, so row
        ``i`` is tower ``i`` and nothing is recomputed. Without them
        (towers wider than the engine's 30 bits) the pure-Python
        per-tower reference computes both from ``a`` and
        ``b``, the tensor step's 2-component operands; a square binds
        both to the one operand.
        """
        if rows is not None:
            operands, outputs = rows
            return operands.astype(np.uint64), outputs.astype(np.uint64)
        ct_a = (a.polys[0].coeffs, a.polys[1].coeffs)
        ct_b = ct_a if b is a else (b.polys[0].coeffs, b.polys[1].coeffs)
        return SoftwareBfv(basis, n).tensor_towers(ct_a, ct_b)

    def _run_tower_checked(
        self, worker: ChipWorker, operands: np.ndarray, expected: np.ndarray,
        tower: int, q: int,
    ) -> int:
        """One tower's Algorithm 3 on ``worker``, cross-checked mod ``q``.

        Row ``tower`` of :meth:`_tower_operands`' arrays is this tower's
        input and ground truth. Returns the tower's chip cycles.
        """
        rows = operands[:, tower]
        outs, cycles = worker.run_tower(rows[:2], rows[2:], q)
        if not all(
            np.array_equal(y, e) for y, e in zip(outs, expected[:, tower])
        ):
            raise BackendError(
                f"chip {worker.index} mod-q tensor diverged from the "
                f"reference on tower {tower} (q_i = {q}) — datapath fault"
            )
        return cycles

    # -- cycle accounting ---------------------------------------------------

    def _job_cycles(self, session: Session, circuit: Circuit) -> int:
        """Model-path cycles of a whole circuit.

        Linear steps are pointwise passes, each tensor step one Eq. 4
        estimate per tower, and each key switch its model-priced tail
        (see :meth:`_key_switch_tails`).
        """
        n, towers = session.params.n, session.params.cofhee_tower_count
        tensors = circuit.op_counts()["ct_ct_mults"]
        tails, copies = self._key_switch_tails(session, circuit)
        return (
            self._circuit_linear_cycles(session, circuit)
            + tensors * towers * self._tensor_estimate_for(n)
            + sum(tails) + copies
        )

    def _key_switch_tails(
        self, session: Session, circuit: Circuit
    ) -> tuple[list[int], int]:
        """The circuit's key-switch tails and automorphism copy cycles.

        One tail per relinearization step (fewer than the tensors when
        a circuit defers key switches with the split ops) and one Galois key switch per rotation step;
        each rotation also copies both components through the
        automorphism first (one pass each).
        """
        params = session.params
        n, towers = params.n, params.cofhee_tower_count
        timing = self.workers[0].chip.timing
        relins = circuit.op_counts()["relins"]
        tails = []
        if relins:
            digits = session.require_relin().num_digits
            tails = [timing.relinearization_cycles(n, digits, towers)] * relins
        copies = 0
        for step in circuit.steps:
            if step.op not in ROTATION_OPS:
                continue
            key = session.require_galois(rotation_exponent(
                params, step.op,
                step.args[1] if step.op == OP_ROTATE_ROWS else 0,
            ))
            tails.append(
                timing.relinearization_cycles(n, key.num_digits, towers)
            )
            copies += 2 * timing.memcpy_cycles(n)
        return tails, copies

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


# ----------------------------------------------------------------------
# Software (SEAL-style CPU) baseline
# ----------------------------------------------------------------------


class SoftwareBackend(Backend):
    """Exact results on the session's engine, priced like SEAL.

    Per-op latency comes from the Fig. 6-calibrated
    :class:`~repro.baselines.software.CpuCostModel` (the ciphertext tensor)
    plus the SEAL microbenchmark anchors in
    :class:`~repro.apps.costmodel.CpuAppCost` for add/ct*pt.
    """

    name = "software"

    #: SEAL's relinearization costs roughly one more tensor's worth of NTT
    #: work at these digit counts; priced as one extra tensor.
    RELIN_TENSOR_EQUIV = 1.0

    def __init__(self):
        super().__init__()
        self.cost = CpuCostModel()

    def _execute_job(self, job: Job, registry: SessionRegistry) -> None:
        session, result = self._run_job(registry, job)
        self._finish(job, result, self._job_seconds(session, job.payload))

    def _job_seconds(self, session: Session, circuit: Circuit) -> float:
        """The SEAL-anchored latency of one job, on one CPU thread.

        Prices the circuit's op mix: adds and ct*pt from the SEAL
        microbenchmarks (scaled from n = 2^12, 2 towers to the session's
        degree and tower count), each tensor step one ciphertext
        multiply, each relinearization or rotation one key switch.
        """
        params = session.params
        anchor_scale = (params.n / 2**12) * (params.cpu_tower_count / 2)
        counts = circuit.op_counts()
        tensor = self.cost.ciphertext_mult_ms(params, 1) * 1e-3
        return (
            counts["ct_ct_adds"] * CpuAppCost.ADD_US * 1e-6 * anchor_scale
            + counts["ct_pt_mults"] * CpuAppCost.CT_PT_US * 1e-6 * anchor_scale
            + counts["ct_ct_mults"] * tensor
            + (counts["relins"] + counts["rotations"])
            * tensor * self.RELIN_TENSOR_EQUIV
        )
