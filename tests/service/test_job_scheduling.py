"""The scheduler picks one job per step: deadlines, queue depth, fairness.

A job the scheduler has not dispatched is still queued, whatever else is
queued with it: its deadline is checked before every pick, it reports
``QUEUED`` and counts in ``repro_queue_depth``, and round-robin across
tenants gives every tenant the next turn regardless of which parameter
set its job uses.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.backends import SoftwareBackend
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry
from repro.service.scheduler import JobScheduler
from repro.service.telemetry import MetricsRegistry

PARAMS_A = BfvParameters.toy(n=16, log_q=80)
PARAMS_B = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)


def _fresh_cts(params, seed):
    bfv = Bfv(params, seed=seed)
    keys = bfv.keygen(relin_digit_bits=12)
    encoder = BatchEncoder(params)
    rng = random.Random(seed)

    def fresh():
        return bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(params.n)]),
            keys.public,
        )

    return fresh


@pytest.fixture(scope="module")
def fresh_a():
    return _fresh_cts(PARAMS_A, 21)


@pytest.fixture(scope="module")
def fresh_b():
    return _fresh_cts(PARAMS_B, 22)


def _scheduler():
    registry = SessionRegistry()
    scheduler = JobScheduler(
        registry, {"software": SoftwareBackend()}, default="software",
    )
    scheduler.metrics = MetricsRegistry()
    return registry, scheduler


def _submit(registry, scheduler, tenant, params, fresh, count, deadline=None):
    session = registry.open_session(tenant, params)
    return [
        scheduler.submit(Job(
            session_id=session.session_id, tenant=tenant, kind=JobKind.ADD,
            operands=[fresh(), fresh()], deadline=deadline,
        ))
        for _ in range(count)
    ]


def test_deadline_of_a_waiting_job_is_checked_before_its_pick(fresh_a):
    registry, scheduler = _scheduler()
    jobs = _submit(registry, scheduler, "t", PARAMS_A, fresh_a, 3,
                   deadline=time.monotonic() + 60.0)
    assert scheduler.step() is not None
    assert jobs[0].status is JobStatus.DONE
    for job in jobs[1:]:
        job.deadline = time.monotonic() - 1.0
    scheduler.step()
    for job in jobs[1:]:
        assert job.status is JobStatus.FAILED
        assert job.error.startswith("deadline expired")
    shed = scheduler.metrics.counter(
        "repro_deadline_shed_total", stage="queued", tenant="t",
    ).value
    assert shed == 2
    assert scheduler.stats.jobs_failed == 2
    assert len(scheduler.stats.batches) == 1


def test_waiting_jobs_are_queued_and_counted(fresh_a):
    registry, scheduler = _scheduler()
    jobs = _submit(registry, scheduler, "t", PARAMS_A, fresh_a, 3)
    scheduler.step()
    assert [j.status for j in jobs] == [
        JobStatus.DONE, JobStatus.QUEUED, JobStatus.QUEUED,
    ]
    assert scheduler.pending == 2
    assert scheduler.metrics.gauge("repro_queue_depth").value == 2


def test_a_tenant_on_another_params_set_gets_the_next_pick(fresh_a, fresh_b):
    registry, scheduler = _scheduler()
    heavy = _submit(registry, scheduler, "a", PARAMS_A, fresh_a, 8)
    (light,) = _submit(registry, scheduler, "b", PARAMS_B, fresh_b, 1)
    scheduler.run_all()
    assert all(j.status is JobStatus.DONE for j in heavy + [light])
    assert light.metrics.dispatched_seq == 1
    assert sorted(j.metrics.dispatched_seq for j in heavy) == [0, *range(2, 9)]
    # One report per executed job, each naming its own dispatch.
    reports = scheduler.stats.batches
    assert [r.jobs for r in reports] == [1] * 9
    assert [r.batch_id for r in reports] == list(range(9))
