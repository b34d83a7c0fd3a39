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

Both produce bit-identical ciphertexts, framed as wire bytes when the
job settles. Each prices a job with its own paper model
(``JobMetrics.model_seconds``); the measured host time
(``JobMetrics.host_seconds``) is the scheduler's, the same clock for
every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.apps.costmodel import CpuAppCost
from repro.baselines.software import CpuCostModel, SoftwareBfv
from repro.bfv.scheme import Ciphertext
from repro.core.chip import ChipConfig, CoFHEE
from repro.core.driver import CofheeDriver
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
from repro.service.jobs import RAW_OUTPUT, Job, JobKind
from repro.service.registry import Session, SessionRegistry
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_circuit_outputs,
)


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
    ciphertexts, and :meth:`_finish`, which frames them: a job settles
    as wire bytes. A backend builds no report: the scheduler folds each
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
    ) -> tuple[Session, dict[str, Ciphertext]]:
        """Evaluate the job's circuit exactly; returns the session and the
        circuit's named outputs (a raw op's one is :data:`RAW_OUTPUT`).

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
        return session, outputs

    def _finish(self, job: Job, outputs: dict[str, Ciphertext],
                model_seconds: float) -> None:
        """Frame the circuit's outputs and settle the job as done, priced
        at ``model_seconds``: a raw op's one ciphertext, a circuit's
        named-output map."""
        with job.trace.span("serialize"):
            if job.kind is JobKind.CIRCUIT:
                wire = serialize_circuit_outputs(outputs)
            else:
                wire = serialize_ciphertext(outputs[RAW_OUTPUT])
        job.finish(wire)
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


class JobPrice(NamedTuple):
    """A circuit's chip cycles from :class:`~repro.core.timing.TimingModel`,
    by term (see :meth:`ChipPoolBackend._price`)."""

    tensor: int  # every Eq. 4 tensor step, all towers
    tails: list[int]  # key-switch tails: relinearizations, then rotations
    copies: int  # the rotations' automorphism copies
    linear: int  # the linear steps' pointwise passes


#: Pointwise passes per linear step over the ciphertext components:
#: ct+ct touches both components (2), ct+pt only ``c0`` (1), ct*pt scales
#: both (2), and a multiply-accumulate is the scale plus the add (4).
LINEAR_PASSES = {
    OP_ADD: 2, OP_SUB: 2, OP_ADD_CONST: 1, OP_MUL_CONST: 2, OP_MAC_CONST: 4,
}


class ChipPoolBackend(Backend):
    """Jobs run across a pool of N simulated CoFHEE chips.

    Jobs run one at a time (see :meth:`Backend.execute_batch`); each is
    evaluated exactly, priced once from the chip's
    :class:`~repro.core.timing.TimingModel` (:meth:`_price`) and charged
    to the pool one of two ways:

    * **Chip path** — on chip-native moduli, every Eq. 4 tensor step
      (an EvalMult, or a squaring: the same tensor with ``a == b``)
      runs once per RNS tower, each tower on its modulus's *home chip*
      (:meth:`_home`). CoFHEE downloads one twiddle table per modulus
      and runs both NTT and iNTT from it (Sections III-J and VIII-B), so
      a ``(q_i, n)`` is homed the first time the pool sees it and stays
      there: a chip homing one table downloads it once, and a 3-tower
      multiply on a pool of 4 finishes in ~one tower's time. Every tower
      runs the real Algorithm 3 command stream on its home chip's driver
      and is cross-checked mod ``q_i`` against the scheme's own tensor
      row; its measured cycles stand in for the modeled tensor term.
      The lead worker then takes the rotations' automorphism copies,
      each key switch becomes a tail on the then-least-loaded worker,
      and the linear steps' passes go on the lead last.
    * **Model path** — a circuit with no tensor step (add/sub/rotate,
      linear circuits) or whose moduli are not chip-native is charged
      whole to the then-least-loaded *lead* worker.

    The pool's makespan (max per-worker busy cycles) is what shrinks as
    the pool grows.
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

        The exact host math runs first; on the chip path it records each
        tensor's operands as the circuit evaluates, and the tensors then
        replay in that order, each tower on its modulus's home chip.

        The job's ``cycles`` are every busy cycle it added across the
        pool, even when it fails mid-replay, so the jobs' cycles add up
        to the pool's own; ``makespan_cycles`` is its largest
        single-worker share.
        """
        before = [w.busy_cycles for w in self.workers]
        try:
            circuit: Circuit = job.payload
            basis = (
                self._chip_native_basis(registry.get(job.session_id))
                if circuit.tensor_steps else None
            )
            tensors: list[tuple] = []  # on_tensor's (step, a, b, rows)
            session, outputs = self._run_job(
                registry, job,
                on_tensor=None if basis is None else (
                    lambda *tensor: tensors.append(tensor)
                ),
            )
            price = self._price(session, circuit)
            lead = finish = self._least_loaded()
            if basis is None:
                cycles = (
                    price.tensor + sum(price.tails) + price.copies
                    + price.linear
                )
                lead.busy_cycles += cycles
                job.metrics.fidelity = "model"
            else:
                n = session.params.n
                homes = [self._home(q, n) for q in basis.moduli]
                per_tower = [0] * len(homes)
                run_start = time.perf_counter()
                for _, a, b, rows in tensors:
                    operands, expected = self._tower_operands(
                        basis, n, a, b, rows
                    )
                    for tower, worker in enumerate(homes):
                        per_tower[tower] += self._run_tower_checked(
                            worker, operands, expected, tower,
                            basis.moduli[tower],
                        )
                relin_start = time.perf_counter()
                job.trace.mark("worker_execute", run_start, relin_start)
                lead.busy_cycles += price.copies
                for tail in price.tails:
                    finish = self._least_loaded()
                    finish.busy_cycles += tail
                lead.busy_cycles += price.linear
                job.metrics.fidelity = "chip"
                job.metrics.tower_cycles = tuple(per_tower)
                job.metrics.tower_workers = tuple(
                    sorted({w.index for w in homes})
                )
                job.metrics.relin_cycles = price.copies + sum(price.tails)
                job.trace.mark("relin_tail", relin_start, time.perf_counter())
                cycles = (
                    sum(per_tower) + job.metrics.relin_cycles + price.linear
                )
            job.metrics.worker = finish.index
            self._finish(
                job, outputs, cycles / finish.chip.clock.frequency_hz
            )
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

    def _least_loaded(self) -> ChipWorker:
        return min(self.workers, key=lambda w: (w.busy_cycles, w.index))

    def _price(self, session: Session, circuit: Circuit) -> JobPrice:
        """The circuit's cycles by term, from the chip's Table V formulas.

        Each tensor step is one Algorithm 3 ciphertext multiply per
        tower; each relinearization step (fewer than the tensors when a
        circuit defers key switches with the split ops) and each
        rotation step is one key-switch tail, and a rotation first
        copies both components through the automorphism (one pass
        each); linear steps are :data:`LINEAR_PASSES` pointwise passes.
        """
        params = session.params
        n, towers = params.n, params.cofhee_tower_count
        timing = self.workers[0].chip.timing
        counts = circuit.op_counts()
        tails = []
        if counts["relins"]:
            digits = session.require_relin().num_digits
            tail = timing.relinearization_cycles(n, digits, towers)
            tails = [tail] * counts["relins"]
        copies = linear = 0
        for step in circuit.steps:
            if step.op in ROTATION_OPS:
                key = session.require_galois(rotation_exponent(
                    params, step.op,
                    step.args[1] if step.op == OP_ROTATE_ROWS else 0,
                ))
                tails.append(
                    timing.relinearization_cycles(n, key.num_digits, towers)
                )
                copies += 2 * timing.memcpy_cycles(n)
            else:
                passes = LINEAR_PASSES.get(step.op, 0)
                linear += passes * towers * timing.pointwise_cycles(n)
        tensor = timing.ciphertext_mult_cycles(n, towers)
        return JobPrice(
            counts["ct_ct_mults"] * tensor, tails, copies, linear
        )

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
        mod-q reference outputs on every tower, as word arrays.

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
            return rows
        ct_a = (a.polys[0].coeffs, a.polys[1].coeffs)
        ct_b = ct_a if b is a else (b.polys[0].coeffs, b.polys[1].coeffs)
        return SoftwareBfv(basis, n).tensor_towers(ct_a, ct_b)

    def _run_tower_checked(
        self, worker: ChipWorker, operands: np.ndarray, expected: np.ndarray,
        tower: int, q: int,
    ) -> int:
        """One tower's Algorithm 3 on ``worker``, cross-checked mod ``q``.

        Row ``tower`` of :meth:`_tower_operands`' arrays is this tower's
        input and ground truth. Reprogramming is amortized by the driver
        (a worker running consecutive units on one modulus pays the
        twiddle download once); the tower's chip cycles land on the
        worker's ``busy_cycles``, a failed check's too, and are returned.
        """
        matched, report = worker.driver.ciphertext_multiply_tower_checked(
            operands[:, tower], expected[:, tower], q
        )
        worker.busy_cycles += report.cycles
        if not matched:
            raise BackendError(
                f"chip {worker.index} mod-q tensor diverged from the "
                f"reference on tower {tower} (q_i = {q}) — datapath fault"
            )
        return report.cycles


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
        session, outputs = self._run_job(registry, job)
        self._finish(job, outputs, self._job_seconds(session, job.payload))

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
