"""Tower-level work items: sharding one EvalMult across a chip pool.

PR 1's pool parallelized at *job* granularity: a multi-tower EvalMult ran
its RNS towers sequentially on one worker. This module is the planning
layer that breaks the job open: each tower of the Eq. 4 tensor becomes a
:class:`TowerWorkItem`, the planner spreads items across workers
least-loaded-first while keeping same-modulus items together (so each
worker programs a tower's twiddles once per batch), and
:class:`TowerGather` is the barrier that holds per-tower outputs until a
job's full tower set has arrived and can be CRT-recombined.

The scheduler's batch formation is unchanged — batches still pack
compatible jobs fairly across tenants — but inside the chip-pool backend
each job fans out into one unit per tower of each of its tensors and
gathers back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class TowerWorkItem:
    """One tower of one Eq. 4 tensor, ready to dispatch.

    Attributes:
        job_seq: key of the owning work unit within its batch — a raw
            EvalMult/SQUARE job is one unit, and an app circuit
            contributes one unit per tensor step (the chip-pool backend
            allocates the unit ids and maps them back to jobs).
        tower: tower index within the session's CoFHEE basis.
        modulus: the tower modulus ``q_i`` to program.
        est_cycles: modeled Algorithm 3 cycles (drives load balancing).
    """

    job_seq: int
    tower: int
    modulus: int
    est_cycles: int


def plan_tower_dispatch(
    items: Sequence[TowerWorkItem],
    worker_loads: Sequence[int],
    worker_programmed: Sequence[int | None] | None = None,
    metrics=None,
) -> dict[int, list[TowerWorkItem]]:
    """Assign tower work items to workers, least-loaded first.

    Items are grouped by modulus and each *group* is placed whole, so a
    worker programs every modulus it touches exactly once per batch (the
    reprogramming amortization the driver's ``ensure_programmed`` then
    turns into a single twiddle download). Groups are placed largest
    first onto the worker with the smallest projected load; ties prefer a
    worker whose chip already has that modulus programmed from an earlier
    batch, then the lowest index — the assignment is deterministic.

    Args:
        items: the batch's tower work units.
        worker_loads: current busy cycles per worker (index-aligned).
        worker_programmed: the modulus each worker's chip currently has
            programmed (``None`` for unprogrammed), for affinity ties.
            Callers must pass ``None`` for workers whose programmed
            *degree* differs from this batch's — the driver keys its
            reprogramming cache on the full ``(q, n)`` pair.
        metrics: optional
            :class:`~repro.service.telemetry.MetricsRegistry`; when set,
            the planner counts items planned and observes how many
            workers each planning round spread them over.

    Returns:
        worker index -> its items, in dispatch order. Workers with no
        assignment are absent.
    """
    if not worker_loads:
        raise ValueError("need at least one worker")
    programmed = list(worker_programmed or [None] * len(worker_loads))
    groups: dict[int, list[TowerWorkItem]] = {}
    for item in items:
        groups.setdefault(item.modulus, []).append(item)
    # Largest group first; tie-break on lowest tower index for determinism.
    ordered = sorted(
        groups.values(),
        key=lambda g: (-sum(i.est_cycles for i in g), min(i.tower for i in g)),
    )
    loads = list(worker_loads)
    plan: dict[int, list[TowerWorkItem]] = {}
    for group in ordered:
        q = group[0].modulus
        widx = min(
            range(len(loads)),
            key=lambda w: (loads[w], 0 if programmed[w] == q else 1, w),
        )
        plan.setdefault(widx, []).extend(group)
        loads[widx] += sum(i.est_cycles for i in group)
        programmed[widx] = q
    if metrics is not None and items:
        metrics.counter(
            "repro_tower_items_planned_total",
            "tower work units planned onto pool workers",
        ).inc(len(items))
        metrics.histogram(
            "repro_tower_fanout_workers",
            "distinct workers used per tower planning round",
            buckets=(1, 2, 4, 8, 16, 32),
        ).observe(len(plan))
    return plan


@dataclass(frozen=True)
class KeySwitchWorkItem:
    """One tensor's relinearization tail, ready to charge to a worker.

    Key-switching is not tower-bound: after a tensor's gather completes,
    its base-T digit fold runs over the whole tower stack at once through
    the engine's key-switch kernel. Each item prices one tensor's tail
    with the same Algorithm-3-derived relinearization estimate the model
    path uses, so chip-side execution changes *where* the cycles land,
    never how many there are.

    Attributes:
        job_seq: owning work unit's key within its batch.
        est_cycles: modeled relinearization cycles for one tensor.
    """

    job_seq: int
    est_cycles: int


def plan_keyswitch_dispatch(
    items: Sequence[KeySwitchWorkItem],
    worker_loads: Sequence[int],
) -> list[int]:
    """Assign key-switch tails to workers, least-loaded first.

    Items are placed one at a time in the given order, each onto the
    worker with the smallest projected load (ties break on the lowest
    index), updating the projection as it goes — the same greedy rule
    :func:`plan_tower_dispatch` uses, minus modulus affinity (a
    key-switch fold is not tied to any one tower's twiddles).

    Returns:
        one worker index per item, order-aligned with ``items``.
    """
    if not worker_loads:
        raise ValueError("need at least one worker")
    loads = list(worker_loads)
    assignment: list[int] = []
    for item in items:
        widx = min(range(len(loads)), key=lambda w: (loads[w], w))
        assignment.append(widx)
        loads[widx] += item.est_cycles
    return assignment


@dataclass
class TowerGather:
    """The barrier between tower fan-out and CRT recombination.

    Collects per-tower outputs keyed by ``(job_seq, tower)``; a job is
    ``complete`` once every expected tower has reported, at which point
    :meth:`towers` hands the outputs back in global tower order (what
    :meth:`~repro.polymath.rns.RnsBasis.reconstruct_poly` expects).
    """

    expected: dict[int, tuple[int, ...]]
    _arrived: dict[int, dict[int, object]] = field(default_factory=dict)

    def put(self, job_seq: int, tower: int, output: object) -> None:
        if job_seq not in self.expected:
            raise KeyError(f"job seq {job_seq} was never registered")
        if tower not in self.expected[job_seq]:
            raise KeyError(f"job seq {job_seq} does not expect tower {tower}")
        slot = self._arrived.setdefault(job_seq, {})
        if tower in slot:
            raise ValueError(f"tower {tower} of job seq {job_seq} arrived twice")
        slot[tower] = output

    def discard(self, job_seq: int) -> None:
        """Drop a job mid-flight (its execution failed elsewhere)."""
        self.expected.pop(job_seq, None)
        self._arrived.pop(job_seq, None)

    def complete(self, job_seq: int) -> bool:
        return (
            job_seq in self.expected
            and len(self._arrived.get(job_seq, ())) == len(self.expected[job_seq])
        )

    @property
    def pending(self) -> list[int]:
        return [seq for seq in self.expected if not self.complete(seq)]

    def towers(self, job_seq: int) -> list[object]:
        """All of a job's tower outputs, in tower-index order."""
        if not self.complete(job_seq):
            missing = [
                t for t in self.expected.get(job_seq, ())
                if t not in self._arrived.get(job_seq, {})
            ]
            raise ValueError(
                f"job seq {job_seq} is missing towers {missing}; the gather "
                "barrier only releases complete jobs"
            )
        arrived = self._arrived[job_seq]
        return [arrived[t] for t in sorted(self.expected[job_seq])]


def tower_items_for(
    job_seq: int, moduli: Iterable[int], est_cycles: int
) -> list[TowerWorkItem]:
    """One work item per tower of a job's basis (uniform cycle estimate)."""
    return [
        TowerWorkItem(job_seq=job_seq, tower=i, modulus=q, est_cycles=est_cycles)
        for i, q in enumerate(moduli)
    ]
