"""Property tests: fleet serving invariants under random fault schedules.

Hypothesis drives the worker fleet with random job mixes (multiplies,
adds, rotations-by-steps) under random fault plans — kills, corrupted
replies, and skipped heartbeats at arbitrary counts on arbitrary
workers — and asserts the contract the chaos battery spot-checks:

* every job the front door accepted either completes **bit-identical**
  to locally computed :class:`~repro.bfv.Bfv` ground truth, or fails
  *cleanly* (a diagnosable error message, never a hang or a crash);
* no job is lost: submitted == completed + failed, every time;
* no result is delivered twice: the orchestrator's stale-result guard
  means a settled job never changes its payload afterwards.

Thread-mode workers run the identical serve loop as spawned processes
(same wire codec, same fault hooks), so these examples explore the real
recovery machinery hundreds of times faster than process spawns would.
The fault-spec grammar round-trip is fuzzed separately below.
"""

from __future__ import annotations

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.errors import QuotaExceededError
from repro.service.fleet import FaultPlan, FaultRule
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    deserialize_ciphertext,
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer, TenantQuota

PARAMS = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)
_BFV = Bfv(PARAMS, seed=0xC0F4EE)
_KEYS = _BFV.keygen(relin_digit_bits=14)
_ENCODER = BatchEncoder(PARAMS)

FLEET_SIZE = 2

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

fault_rules = st.builds(
    FaultRule,
    action=st.sampled_from(("kill", "corrupt", "delay_heartbeat", "stall")),
    worker=st.integers(0, FLEET_SIZE - 1),
    job=st.integers(1, 3),
    beats=st.integers(1, 4),
)

#: At most one kill per worker keeps examples fast (each kill costs a
#: respawn); corrupt/delay faults stack freely. Stall is excluded here:
#: a stalled reply hangs by design until a deadline reaps it, so stall
#: plans live in the overload property below where every job carries a
#: deadline budget.
fault_plans = st.lists(
    fault_rules.filter(lambda r: r.action != "stall"), max_size=3
).filter(
    lambda rules: all(
        sum(1 for r in rules if r.action == "kill" and r.worker == w) <= 1
        for w in range(FLEET_SIZE)
    )
)

#: Fault plans for deadline-carrying traffic — stall included.
overload_fault_plans = st.lists(fault_rules, max_size=2).filter(
    lambda rules: all(
        sum(1 for r in rules if r.action == "kill" and r.worker == w) <= 1
        for w in range(FLEET_SIZE)
    )
)

job_kinds = st.sampled_from((JobKind.MULTIPLY, JobKind.ADD))
job_mixes = st.lists(
    st.tuples(job_kinds, st.integers(0, 2**32 - 1)), min_size=1, max_size=5
)


def _fresh(rng: random.Random):
    return _BFV.encrypt(
        _ENCODER.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
        _KEYS.public,
    )


def _ground_truth(kind: JobKind, a, b):
    if kind is JobKind.MULTIPLY:
        return _BFV.multiply_relin(a, b, _KEYS.relin)
    return _BFV.add(a, b)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


class TestFleetUnderRandomFaults:
    @settings(max_examples=10, deadline=None)
    @given(plan=fault_plans, mix=job_mixes)
    def test_accepted_jobs_bit_identical_or_clean_failure(self, plan, mix):
        spec = ";".join(rule.render() for rule in plan)
        server = FheServer(
            fleet_size=FLEET_SIZE, fleet_mode="thread",
            fault_spec=spec,
            fleet_options={"heartbeat_interval": 0.05,
                           "heartbeat_timeout": 2.0},
        )
        with server:
            sid = server.open_session(
                "prop", serialize_params(PARAMS),
                relin_key=serialize_relin_key(_KEYS.relin, PARAMS),
            )
            checks = []
            for kind, seed in mix:
                rng = random.Random(seed)
                a, b = _fresh(rng), _fresh(rng)
                jid = server.submit(sid, kind, (
                    serialize_ciphertext(a), serialize_ciphertext(b),
                ))
                checks.append((jid, _ground_truth(kind, a, b)))
            server.run()
            first_payloads = {}
            for jid, expected in checks:
                error = server.job_error(jid)
                if error is not None:
                    # Clean failure: a real diagnosis, not an exception
                    # repr or an empty string.
                    assert error.strip(), f"job {jid} failed without a cause"
                    continue
                wire = server.result(jid)
                first_payloads[jid] = wire
                got = deserialize_ciphertext(wire, PARAMS)
                assert _BFV.decrypt(got, _KEYS.secret) == _BFV.decrypt(
                    expected, _KEYS.secret
                ), f"job {jid} diverged from Bfv ground truth under {spec!r}"
            # No job lost: everything submitted settled exactly one way.
            stats = server.scheduler.stats
            assert stats.jobs_completed + stats.jobs_failed == len(checks)
            # No double delivery: a settled payload never changes, even
            # if a stale duplicate arrived after the requeue.
            server.run()
            for jid, payload in first_payloads.items():
                assert server.result(jid) == payload
            rep = server.fleet_report()
        assert rep["in_flight"] == 0, rep


class TestOverloadUnderRandomFaults:
    @settings(max_examples=6, deadline=None)
    @given(
        plan=overload_fault_plans,
        mix=job_mixes,
        max_inflight=st.sampled_from((0, 1, 2)),
        spill=st.sampled_from((0, 1)),
    )
    def test_quota_deadline_fault_mix_conserves_jobs(
        self, plan, mix, max_inflight, spill
    ):
        """Random fault schedules (stall included) crossed with random
        quota and spill-over configs, every job on a deadline budget:
        over-quota submits reject with the typed retryable error and
        admit after completions; every accepted job either lands
        bit-identical or fails cleanly (a lapsed deadline says so);
        nothing is lost or delivered twice."""
        spec = ";".join(rule.render() for rule in plan)
        quotas = (
            {"prop": TenantQuota(max_inflight=max_inflight)}
            if max_inflight else None
        )
        server = FheServer(
            fleet_size=FLEET_SIZE, fleet_mode="thread",
            fault_spec=spec, quotas=quotas,
            fleet_options={"heartbeat_interval": 0.05,
                           "heartbeat_timeout": 5.0,
                           "spill_threshold": spill},
        )
        with server:
            sid = server.open_session(
                "prop", serialize_params(PARAMS),
                relin_key=serialize_relin_key(_KEYS.relin, PARAMS),
            )
            checks = []
            for kind, seed in mix:
                rng = random.Random(seed)
                a, b = _fresh(rng), _fresh(rng)
                wire = (serialize_ciphertext(a), serialize_ciphertext(b))
                for _ in range(200):  # admission retry, in-process
                    try:
                        jid = server.submit(sid, kind, wire, deadline=1.0)
                        break
                    except QuotaExceededError as exc:
                        assert exc.retryable and exc.code == "quota"
                        server.tick()
                        time.sleep(0.01)
                else:
                    raise AssertionError("quota never released a slot")
                checks.append((jid, _ground_truth(kind, a, b)))
            wall = time.monotonic() + 30
            while (any(not server.status(j).value in ("done", "failed")
                       for j, _ in checks)
                   and time.monotonic() < wall):
                server.tick()
                time.sleep(0.01)
            first_payloads = {}
            for jid, expected in checks:
                status = server.status(jid)
                assert status in (JobStatus.DONE, JobStatus.FAILED), (
                    f"job {jid} never settled under {spec!r}"
                )
                if status is JobStatus.FAILED:
                    error = server.job_error(jid)
                    assert error and error.strip(), (
                        f"job {jid} failed without a cause"
                    )
                    continue
                wire = server.result(jid)
                first_payloads[jid] = wire
                got = deserialize_ciphertext(wire, PARAMS)
                assert _BFV.decrypt(got, _KEYS.secret) == _BFV.decrypt(
                    expected, _KEYS.secret
                ), f"job {jid} diverged from Bfv ground truth under {spec!r}"
            stats = server.scheduler.stats
            assert stats.jobs_completed + stats.jobs_failed == len(checks)
            server.tick()
            for jid, payload in first_payloads.items():
                assert server.result(jid) == payload
            rep = server.fleet_report()
        assert rep["in_flight"] == 0, rep


class TestFaultSpecGrammar:
    @settings(max_examples=50, deadline=None)
    @given(plan=st.lists(fault_rules, max_size=4))
    def test_render_parse_round_trip(self, plan):
        spec = ";".join(rule.render() for rule in plan)
        parsed = FaultPlan.parse(spec)
        assert parsed.render() == FaultPlan.parse(parsed.render()).render()
        for worker in range(FLEET_SIZE):
            faults = parsed.for_worker(worker)
            mine = [r for r in plan if r.worker == worker]
            kills = sum(
                1 for r in mine if r.action in ("kill", "corrupt", "stall")
            )
            # Drawing results one past every armed count must exhaust
            # the plan: afterwards the worker behaves cleanly forever.
            for _ in range(sum(r.job for r in mine) + kills + 1):
                faults.on_result()
            assert faults.on_result() == ""
