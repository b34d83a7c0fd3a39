"""Chaos battery for the multi-process worker fleet.

Every scenario injects a deterministic fault through the
``fault_spec`` grammar (:class:`~repro.service.fleet.FaultPlan`) and
asserts the serving invariants the fleet guarantees:

* no accepted job is ever lost — a killed worker's in-flight jobs
  requeue onto survivors and complete **bit-identical** to local
  :class:`~repro.bfv.Bfv` ground truth;
* no result is ever delivered twice — late duplicates from a worker the
  orchestrator gave up on are discarded as stale;
* a silent worker is evicted on heartbeat timeout and re-admitted the
  moment it speaks again;
* a submit flood against a windowed transport stalls the flooding
  connection (backpressure) without dropping anything accepted;
* when recovery is impossible (every worker dead, restarts off) the job
  fails *cleanly* with a diagnosable message — never a hang.

Process-mode scenarios spawn real separate interpreters; thread-mode
scenarios run the identical worker loop in-process for speed.
"""

import asyncio
import random
import time

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.client import (
    AsyncFheClient,
    JobFailedError,
    RetryPolicy,
    TransportError,
)
from repro.service.errors import QuotaExceededError
from repro.service.fleet import FaultPlan, FaultSpecError, route_index
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    deserialize_ciphertext,
    params_digest,
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer, TenantQuota
from repro.service.transport import FheTransportServer

PARAMS = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)

#: Tight liveness settings so chaos scenarios settle in test time.
FAST_BEATS = {"heartbeat_interval": 0.05, "heartbeat_timeout": 0.5}


@pytest.fixture(scope="module")
def stack():
    bfv = Bfv(PARAMS, seed=0xC0F4EE)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    return bfv, keys, encoder


def _open(server, stack, tenant="chaos"):
    bfv, keys, _ = stack
    return server.open_session(
        tenant, serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )


def _mult_jobs(server, sid, stack, count, seed=3):
    """Submit ``count`` multiplies; returns [(job_id, expected ct)]."""
    bfv, keys, encoder = stack
    rng = random.Random(seed)
    checks = []
    for _ in range(count):
        a = bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(PARAMS.n)]), keys.public)
        b = bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(PARAMS.n)]), keys.public)
        jid = server.submit(
            sid, JobKind.MULTIPLY,
            (serialize_ciphertext(a), serialize_ciphertext(b)),
        )
        checks.append((jid, bfv.multiply_relin(a, b, keys.relin)))
    return checks


def _assert_bit_identical(server, stack, checks):
    bfv, keys, _ = stack
    for jid, expected in checks:
        got = deserialize_ciphertext(server.result(jid), PARAMS)
        assert bfv.decrypt(got, keys.secret) == bfv.decrypt(
            expected, keys.secret
        ), f"job {jid} diverged from Bfv ground truth"


class TestFaultSpec:
    def test_grammar_round_trips(self):
        plan = FaultPlan.parse(
            "kill:worker=1:job=2;delay_heartbeat:worker=0:beats=5"
        )
        assert FaultPlan.parse(plan.render()).render() == plan.render()

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("explode:worker=0")

    def test_worker_is_mandatory(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("kill:job=1")

    def test_per_worker_projection(self):
        plan = FaultPlan.parse("corrupt:worker=1:job=2")
        assert plan.for_worker(0).on_result() == ""
        faults = plan.for_worker(1)
        assert faults.on_result() == ""  # job 1 passes untouched
        assert faults.on_result() == "corrupt"  # job 2 corrupted
        assert faults.on_result() == ""  # one-shot


class TestWorkerKilledMidBatch:
    def test_requeue_completes_bit_identical(self, stack):
        """A worker killed mid-job loses nothing: its jobs requeue to
        the survivor and the respawned slot, and every result matches
        ground truth bit for bit (real separate interpreters)."""
        target = route_index(params_digest(PARAMS), 2)
        server = FheServer(
            fleet_size=2, fleet_mode="process",
            fault_spec=f"kill:worker={target}:job=1",
            fleet_options=dict(FAST_BEATS, heartbeat_timeout=10.0),
        )
        with server:
            sid = _open(server, stack)
            checks = _mult_jobs(server, sid, stack, 3)
            _assert_bit_identical(server, stack, checks)
            rep = server.fleet_report()
        assert rep["requeues"] >= 1, rep
        assert rep["deaths"] == 1, rep
        assert rep["respawns"] == 1, rep
        # Exactly-once: every submitted job settled exactly one way.
        stats = server.scheduler.stats
        assert stats.jobs_completed == stats.jobs_submitted
        assert stats.jobs_failed == 0

    def test_every_worker_killed_still_completes(self, stack):
        """Kill faults armed on *both* workers: each dies once, both
        slots respawn with clean fault plans, and the traffic still
        lands bit-identical (thread mode for speed)."""
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            fault_spec="kill:worker=0:job=1;kill:worker=1:job=1",
            fleet_options=dict(FAST_BEATS),
        )
        with server:
            sid = _open(server, stack)
            checks = _mult_jobs(server, sid, stack, 4, seed=5)
            _assert_bit_identical(server, stack, checks)
            rep = server.fleet_report()
        assert rep["deaths"] == 2, rep
        assert rep["respawns"] == 2, rep
        assert rep["requeues"] >= 2, rep
        assert server.scheduler.stats.jobs_failed == 0


class TestHeartbeatLoss:
    def test_evict_then_readmit(self, stack):
        """A worker that stops heartbeating is evicted; the moment it
        speaks again it is re-admitted and serves traffic."""
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            # ~12 skipped beats at 0.05s ≈ 0.6s of silence, past the
            # 0.2s timeout — then beats resume and the worker returns.
            fault_spec="delay_heartbeat:worker=0:beats=12",
            fleet_options={"heartbeat_interval": 0.05,
                           "heartbeat_timeout": 0.2},
        )
        with server:
            fleet = server.fleet
            deadline = 100
            while fleet.evictions == 0 and deadline:
                fleet.poll(0.05)
                deadline -= 1
            assert fleet.evictions >= 1, "silent worker never evicted"
            deadline = 100
            while fleet.readmissions == 0 and deadline:
                fleet.poll(0.05)
                deadline -= 1
            assert fleet.readmissions >= 1, "worker never re-admitted"
            # The recovered fleet still serves correct traffic.
            sid = _open(server, stack)
            checks = _mult_jobs(server, sid, stack, 2, seed=9)
            _assert_bit_identical(server, stack, checks)
        assert server.scheduler.stats.jobs_failed == 0


class TestCorruptReply:
    def test_crc_catches_and_retries(self, stack):
        """A bit-flipped reply fails the CRC check; the job re-executes
        on a different worker and the delivered result is clean."""
        target = route_index(params_digest(PARAMS), 2)
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            fault_spec=f"corrupt:worker={target}:job=1",
            fleet_options=dict(FAST_BEATS),
        )
        with server:
            sid = _open(server, stack)
            checks = _mult_jobs(server, sid, stack, 2, seed=13)
            _assert_bit_identical(server, stack, checks)
            rep = server.fleet_report()
        assert rep["corrupt_replies"] == 1, rep
        assert rep["deaths"] == 0, rep
        assert server.scheduler.stats.jobs_failed == 0


class TestUnrecoverableFailureIsClean:
    def test_no_live_workers_fails_the_job(self, stack):
        """Every worker dead and restarts disabled: the job fails with
        a diagnosable message instead of hanging or vanishing."""
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            fault_spec="kill:worker=0:job=1;kill:worker=1:job=1",
            fleet_options=dict(FAST_BEATS, restart=False),
        )
        with server:
            sid = _open(server, stack)
            (jid, _), = _mult_jobs(server, sid, stack, 1)
            with pytest.raises(RuntimeError, match="no live fleet workers"):
                server.result(jid)
        stats = server.scheduler.stats
        assert stats.jobs_failed == 1
        assert stats.jobs_completed + stats.jobs_failed == stats.jobs_submitted


class TestSubmitFloodBackpressure:
    WINDOW = 3
    TOTAL = 9

    def test_window_stalls_without_dropping(self, stack):
        """A paused server + a submit flood: the per-connection window
        fills, further submits stall (stall counter fires), and on
        resume every accepted job completes bit-identical — zero
        drops, zero duplicates."""
        bfv, keys, encoder = stack
        rng = random.Random(21)

        async def scenario():
            fhe = FheServer(
                fleet_size=2, fleet_mode="thread",
                fleet_options=dict(FAST_BEATS),
            )
            async with FheTransportServer(
                fhe, max_inflight=self.WINDOW,
            ) as server:
                host, port = server.address
                server.pause_execution()
                client = await AsyncFheClient.connect(host, port)
                sid = await client.open_session(
                    "flood", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                pairs = []
                for _ in range(self.TOTAL):
                    a = bfv.encrypt(encoder.encode(
                        [rng.randrange(16) for _ in range(PARAMS.n)]),
                        keys.public)
                    b = bfv.encrypt(encoder.encode(
                        [rng.randrange(16) for _ in range(PARAMS.n)]),
                        keys.public)
                    pairs.append((a, b))

                async def flood():
                    return [
                        await client.submit(sid, JobKind.MULTIPLY, (
                            serialize_ciphertext(a), serialize_ciphertext(b),
                        ))
                        for a, b in pairs
                    ]

                task = asyncio.create_task(flood())
                await asyncio.sleep(0.4)
                stalls = server.fhe.metrics.counter(
                    "repro_backpressure_stalls_total",
                    "submits stalled on a full per-connection window",
                ).value
                assert not task.done(), "flood should stall on the window"
                assert stalls >= 1, f"window never engaged: {stalls}"
                server.resume_execution()
                job_ids = await task
                assert len(job_ids) == self.TOTAL
                assert len(set(job_ids)) == self.TOTAL  # no duplicates
                for jid, (a, b) in zip(job_ids, pairs):
                    wire = await client.result(jid)
                    got = deserialize_ciphertext(wire, PARAMS)
                    exp = bfv.multiply_relin(a, b, keys.relin)
                    assert bfv.decrypt(got, keys.secret) == bfv.decrypt(
                        exp, keys.secret)
                await client.aclose()
                stats = server.fhe.scheduler.stats
                assert stats.jobs_failed == 0
                assert stats.jobs_completed == stats.jobs_submitted

        asyncio.run(scenario())


class TestStallFault:
    def test_stalled_reply_is_swallowed_worker_stays_live(self, stack):
        """The stall action executes the job but drops its reply: the
        worker keeps heartbeating and serves later jobs, while the
        stalled one hangs until something (here: a deadline) reaps it."""
        plan = FaultPlan.parse("stall:worker=0:job=1")
        faults = plan.for_worker(0)
        assert faults.on_result() == "stall"
        assert faults.on_result() == ""  # one-shot

    def test_stall_round_trips_through_grammar(self):
        plan = FaultPlan.parse("stall:worker=1:job=3")
        assert plan.render() == "stall:worker=1:job=3"
        assert FaultPlan.parse(plan.render()).rules == plan.rules


class TestQuotaAdmission:
    def test_over_quota_rejected_before_math_others_unaffected(self, stack):
        """A hot tenant burning through its submit budget is rejected
        with the typed retryable ``quota`` error *before any math*; a
        quiet tenant on the same server is untouched."""
        server = FheServer(
            pool_size=2,
            quotas={"hot": TenantQuota(burst=2)},  # rate=0: never refills
        )
        hot = _open(server, stack, tenant="hot")
        quiet = _open(server, stack, tenant="quiet")
        hot_checks = _mult_jobs(server, hot, stack, 2)
        executed_before = server.scheduler.stats.jobs_submitted
        with pytest.raises(QuotaExceededError) as exc_info:
            _mult_jobs(server, hot, stack, 1, seed=7)
        assert exc_info.value.code == "quota"
        assert exc_info.value.retryable
        # Rejected at admission: nothing entered the scheduler.
        assert server.scheduler.stats.jobs_submitted == executed_before
        # The quiet tenant submits and completes as if nothing happened.
        quiet_checks = _mult_jobs(server, quiet, stack, 3, seed=11)
        server.run()
        _assert_bit_identical(server, stack, hot_checks + quiet_checks)
        rejections = server.metrics.counter(
            "repro_quota_rejections_total",
            "submits refused by per-tenant quota admission",
            tenant="hot", reason="rate",
        ).value
        assert rejections == 1

    def test_inflight_cap_releases_on_completion(self, stack):
        """max_inflight rejects the (N+1)th outstanding job and admits
        again once one settles — admission tracks live jobs, not
        lifetime submissions."""
        server = FheServer(
            pool_size=2, quotas={"hot": TenantQuota(max_inflight=1)},
        )
        sid = _open(server, stack, tenant="hot")
        checks = _mult_jobs(server, sid, stack, 1)
        with pytest.raises(QuotaExceededError):
            _mult_jobs(server, sid, stack, 1, seed=5)
        server.run()
        checks += _mult_jobs(server, sid, stack, 1, seed=5)
        server.run()
        _assert_bit_identical(server, stack, checks)


class TestDeadlines:
    def test_queued_expiry_sheds_cleanly(self, stack):
        """A job whose deadline lapses while queued is shed before the
        next pick with the typed ``deadline expired`` failure — it never
        reaches a backend and never requeues."""
        server = FheServer(pool_size=2)
        sid = _open(server, stack)
        bfv, keys, encoder = stack
        a = bfv.encrypt(encoder.encode([1] * PARAMS.n), keys.public)
        doomed = server.submit(
            sid, JobKind.MULTIPLY,
            (serialize_ciphertext(a), serialize_ciphertext(a)),
            deadline=0.001,
        )
        live_checks = _mult_jobs(server, sid, stack, 2)
        time.sleep(0.01)
        server.run()
        assert server.status(doomed) is JobStatus.FAILED
        assert server.job_error(doomed).startswith("deadline expired")
        _assert_bit_identical(server, stack, live_checks)
        stats = server.scheduler.stats
        assert stats.jobs_failed == 1
        assert stats.jobs_completed + stats.jobs_failed == stats.jobs_submitted

    def test_follower_expiry_sheds_while_primary_in_flight(self, stack):
        """A dedupe follower sits in no scheduler queue, so the queued
        shed never visits it: when its deadline lapses while the primary
        is still working, the harvest sweep must fail it with the typed
        ``deadline expired`` error — mapping to client kind ``deadline``
        — instead of settling it late with the primary's result."""
        server = FheServer(pool_size=2)
        sid = _open(server, stack)
        bfv, keys, encoder = stack
        # Fillers are picked first, so the primary is still queued (in
        # flight, not done) at the first harvest sweep.
        live_checks = _mult_jobs(server, sid, stack, 2, seed=11)
        a = bfv.encrypt(encoder.encode([3] * PARAMS.n), keys.public)
        operands = (serialize_ciphertext(a), serialize_ciphertext(a))
        primary = server.submit(sid, JobKind.MULTIPLY, operands)
        doomed = server.submit(
            sid, JobKind.MULTIPLY, operands, deadline=0.001,
        )
        assert server.job_metrics(doomed).dedupe_of == primary
        time.sleep(0.01)
        server.tick()  # executes one filler, then sweeps followers
        assert server.status(doomed) is JobStatus.FAILED
        message = server.job_error(doomed)
        assert message == "deadline expired awaiting deduped execution"
        # The wire contract: this message classifies as a deadline kind,
        # so retrying clients treat the failure as terminal-typed.
        assert JobFailedError(doomed, message).kind == "deadline"
        server.run()
        assert server.status(primary) is JobStatus.DONE
        _assert_bit_identical(server, stack, live_checks)
        shed = server.metrics.counter(
            "repro_deadline_shed_total",
            "jobs failed past their deadline",
            stage="follower", tenant="chaos",
        ).value
        assert shed == 1
        stats = server.scheduler.stats
        assert stats.dedupe_hits == 1
        assert stats.jobs_failed == 1
        assert stats.jobs_completed + stats.jobs_failed == stats.jobs_submitted

    def test_follower_outlives_its_primarys_deadline(self, stack):
        """A dedupe follower keeps its own deadline, not its primary's:
        when the primary is shed for its deadline, the first follower is
        queued in its place (no deadline, so it runs), the next follower
        stays attached to it, and both get the one execution's bytes."""
        server = FheServer(pool_size=2)
        sid = _open(server, stack)
        bfv, keys, encoder = stack
        a = bfv.encrypt(encoder.encode([5] * PARAMS.n), keys.public)
        operands = (serialize_ciphertext(a), serialize_ciphertext(a))
        doomed = server.submit(
            sid, JobKind.MULTIPLY, operands, deadline=1e-6,
        )
        survivor = server.submit(sid, JobKind.MULTIPLY, operands)
        rider = server.submit(sid, JobKind.MULTIPLY, operands)
        time.sleep(0.01)
        server.run()
        assert server.status(doomed) is JobStatus.FAILED
        assert server.status(survivor) is JobStatus.DONE
        expected = serialize_ciphertext(bfv.multiply_relin(a, a, keys.relin))
        assert server.result(survivor) == expected
        assert server.result(rider) == expected
        assert server.job_metrics(survivor).dedupe_of == ""
        assert server.job_metrics(rider).dedupe_of == survivor
        stats = server.scheduler.stats
        assert len(stats.batches) == 1
        assert stats.jobs_submitted == 3 and stats.dedupe_hits == 2
        assert stats.jobs_completed == 2 and stats.jobs_failed == 1

    def test_inflight_expiry_reaped_no_requeue_loop(self, stack):
        """A stalled worker hangs a job past its deadline: the fleet
        reaps it into a clean typed failure (no requeue loop), discards
        the reply if it ever surfaces, and the worker — still live —
        keeps serving."""
        server = FheServer(
            fleet_size=1, fleet_mode="thread",
            fault_spec="stall:worker=0:job=1",
            fleet_options=dict(FAST_BEATS, heartbeat_timeout=30.0),
        )
        with server:
            sid = _open(server, stack)
            bfv, keys, encoder = stack
            a = bfv.encrypt(encoder.encode([2] * PARAMS.n), keys.public)
            doomed = server.submit(
                sid, JobKind.MULTIPLY,
                (serialize_ciphertext(a), serialize_ciphertext(a)),
                deadline=0.3,
            )
            deadline = time.monotonic() + 20
            while (server.status(doomed) is not JobStatus.FAILED
                   and time.monotonic() < deadline):
                server.tick()
                time.sleep(0.02)
            assert server.status(doomed) is JobStatus.FAILED
            assert server.job_error(doomed).startswith("deadline expired")
            rep = server.fleet_report()
            assert rep["deadline_reaps"] == 1, rep
            assert rep["requeues"] == 0, rep
            assert rep["deaths"] == 0, rep
            # The stalled (but live) worker serves the next job fine.
            checks = _mult_jobs(server, sid, stack, 1, seed=17)
            _assert_bit_identical(server, stack, checks)


class TestSpillover:
    def test_hot_session_spills_past_depth_threshold(self, stack):
        """With spill routing on, a burst against one home worker spills
        to the other worker once the depth threshold is crossed — and
        every result still matches ground truth bit for bit."""
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            fleet_options=dict(FAST_BEATS, spill_threshold=1),
        )
        with server:
            sid = _open(server, stack)
            checks = _mult_jobs(server, sid, stack, 6, seed=23)
            _assert_bit_identical(server, stack, checks)
            rep = server.fleet_report()
        assert rep["routing"]["spill_threshold"] == 1
        assert rep["routing"]["spill"] >= 1, rep["routing"]
        assert rep["deaths"] == 0 and rep["requeues"] == 0, rep
        assert server.scheduler.stats.jobs_failed == 0

    def test_spill_off_preserves_pinned_routing(self, stack):
        """The default (spill_threshold=0) keeps the original pinned
        digest routing: one session's traffic lands on one worker."""
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            fleet_options=dict(FAST_BEATS),
        )
        with server:
            sid = _open(server, stack)
            checks = _mult_jobs(server, sid, stack, 4, seed=29)
            _assert_bit_identical(server, stack, checks)
            rep = server.fleet_report()
        assert rep["routing"]["spill"] == 0
        used = {w["index"] for w in rep["workers"] if w["jobs_done"]}
        assert used == {route_index(params_digest(PARAMS), 2)}


    def test_skewed_tenant_mix_spill_cuts_makespan(self):
        """A hot tenant sends 80% of the jobs: pinned routing strands its
        load on one home worker of 4, spill-over spreads it. The work
        (total cycles) is the same either way; the busiest worker's
        cycles (the fleet's modeled makespan) drop >= 1.3x."""
        rng = random.Random(41)
        tenants = []
        for label, bits, jobs in (("hot", 20, 8), ("cold", 21, 2)):
            params = BfvParameters.toy_rns(n=16, towers=3, tower_bits=bits)
            bfv = Bfv(params, seed=900 + bits)
            keys = bfv.keygen(relin_digit_bits=12)
            encoder = BatchEncoder(params)
            ops = []
            for _ in range(jobs):
                a, b = (bfv.encrypt(encoder.encode(
                    [rng.randrange(32) for _ in range(params.n)]),
                    keys.public) for _ in range(2))
                ops.append((
                    (serialize_ciphertext(a), serialize_ciphertext(b)),
                    serialize_ciphertext(bfv.multiply_relin(a, b, keys.relin)),
                ))
            tenants.append((label, params, keys, ops))

        def serve(spill_threshold):
            server = FheServer(
                fleet_size=4, fleet_mode="thread",
                fleet_options={"spill_threshold": spill_threshold},
            )
            with server:
                checks = []
                for label, params, keys, ops in tenants:
                    sid = server.open_session(
                        label, serialize_params(params),
                        relin_key=serialize_relin_key(keys.relin, params),
                    )
                    checks += [
                        (server.submit(sid, JobKind.MULTIPLY, operands),
                         expected)
                        for operands, expected in ops
                    ]
                server.run()
                for jid, expected in checks:
                    assert server.result(jid) == expected
                rep = server.fleet_report()
                used = sum(1 for c in server.fleet.worker_cycles.values() if c)
            assert rep["in_flight"] == 0, rep
            return rep, used

        pinned, pinned_used = serve(0)
        spill, spill_used = serve(1)
        assert pinned["routing"]["spill"] == 0, pinned["routing"]
        assert spill["routing"]["spill"] >= 1, spill["routing"]
        assert spill_used > pinned_used
        assert spill["total_cycles"] == pinned["total_cycles"]
        assert spill["makespan_cycles"] * 1.3 <= pinned["makespan_cycles"], (
            spill["makespan_cycles"], pinned["makespan_cycles"])


class TestElasticResize:
    def test_grow_and_shrink_under_load_loses_nothing(self, stack):
        """grow() mid-traffic adds a serving slot; shrink() retires the
        newest workers and re-homes their backlog — across both, zero
        jobs lost or double-delivered and all results bit-identical."""
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            fleet_options=dict(FAST_BEATS, spill_threshold=1),
        )
        with server:
            sid = _open(server, stack)
            checks = _mult_jobs(server, sid, stack, 3, seed=31)
            assert server.fleet.grow(2) == 4
            checks += _mult_jobs(server, sid, stack, 3, seed=37)
            assert server.fleet.shrink(2) == 2
            checks += _mult_jobs(server, sid, stack, 2, seed=41)
            _assert_bit_identical(server, stack, checks)
            rep = server.fleet_report()
        assert rep["resizes"] == {"grow": 2, "shrink": 2}, rep
        assert len(rep["workers"]) == 2
        stats = server.scheduler.stats
        assert stats.jobs_failed == 0
        assert stats.jobs_completed == stats.jobs_submitted

    def test_resize_over_the_wire(self, stack):
        """The ADMIN frame drives grow/shrink remotely and echoes the
        new fleet size; traffic submitted around the resize completes."""
        bfv, keys, encoder = stack

        async def scenario():
            fhe = FheServer(
                fleet_size=2, fleet_mode="thread",
                fleet_options=dict(FAST_BEATS),
            )
            async with FheTransportServer(fhe) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(host, port)
                sid = await client.open_session(
                    "chaos", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                assert await client.admin("grow", 1) == 3
                a = bfv.encrypt(encoder.encode([3] * PARAMS.n), keys.public)
                jid = await client.submit(sid, JobKind.MULTIPLY, (
                    serialize_ciphertext(a), serialize_ciphertext(a),
                ))
                wire = await client.result(jid)
                exp = bfv.multiply_relin(a, a, keys.relin)
                got = deserialize_ciphertext(wire, PARAMS)
                assert bfv.decrypt(got, keys.secret) == bfv.decrypt(
                    exp, keys.secret)
                assert await client.admin("resize", 2) == 2
                with pytest.raises(TransportError, match="unknown admin"):
                    await client.admin("explode")
                await client.aclose()

        asyncio.run(scenario())


class TestTenantAuth:
    def test_token_gate_on_open_session(self, stack):
        """With a tenant table, OPEN_SESSION needs the right token:
        wrong tokens and unknown tenants get the terminal ``auth`` code
        (never retried), the right token serves normally."""
        bfv, keys, encoder = stack

        async def scenario():
            fhe = FheServer(pool_size=2)
            async with FheTransportServer(
                fhe, tenants={"chaos": "sesame"},
            ) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(host, port)
                with pytest.raises(TransportError) as exc_info:
                    await client.open_session(
                        "chaos", serialize_params(PARAMS), token="wrong"
                    )
                assert exc_info.value.code == "auth"
                assert not exc_info.value.retryable
                with pytest.raises(TransportError) as exc_info:
                    await client.open_session(
                        "intruder", serialize_params(PARAMS), token="sesame"
                    )
                assert exc_info.value.code == "auth"
                sid = await client.open_session(
                    "chaos", serialize_params(PARAMS), token="sesame",
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                a = bfv.encrypt(encoder.encode([4] * PARAMS.n), keys.public)
                jid = await client.submit(sid, JobKind.MULTIPLY, (
                    serialize_ciphertext(a), serialize_ciphertext(a),
                ))
                assert await client.result(jid)
                rejections = fhe.metrics.counter(
                    "repro_auth_rejections_total",
                    "OPEN_SESSION frames refused by the tenant auth table",
                    tenant="chaos",
                ).value
                assert rejections == 1
                await client.aclose()

        asyncio.run(scenario())


class TestRetryingClient:
    def test_quota_flood_converges_bit_identical(self, stack):
        """A client flooding a quota-capped tenant rides the retryable
        ``quota`` rejections with jittered backoff until every job is
        admitted — and the full set converges bit-identical to ground
        truth, exactly once each."""
        bfv, keys, encoder = stack
        rng = random.Random(43)
        TOTAL = 8

        async def scenario():
            fhe = FheServer(
                fleet_size=2, fleet_mode="thread",
                fleet_options=dict(FAST_BEATS, spill_threshold=2),
                quotas={"chaos": TenantQuota(max_inflight=2)},
            )
            rejected = fhe.metrics.counter(
                "repro_quota_rejections_total",
                "submits refused by per-tenant quota admission",
                tenant="chaos", reason="inflight",
            )
            async with FheTransportServer(fhe) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(
                    host, port,
                    retry=RetryPolicy(attempts=30, base_delay=0.05,
                                      max_delay=0.2, seed=0),
                )
                sid = await client.open_session(
                    "chaos", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )

                # Hold execution until the quota has refused a submit:
                # the first two jobs stay in flight, so the third is
                # rejected whatever the host's speed, and the flood then
                # drains through the client's retries.
                async def release_after_rejection():
                    while rejected.value < 1:
                        await asyncio.sleep(0.005)
                    server.resume_execution()

                server.pause_execution()
                release = asyncio.ensure_future(release_after_rejection())
                pairs = []
                for _ in range(TOTAL):
                    a = bfv.encrypt(encoder.encode(
                        [rng.randrange(16) for _ in range(PARAMS.n)]),
                        keys.public)
                    b = bfv.encrypt(encoder.encode(
                        [rng.randrange(16) for _ in range(PARAMS.n)]),
                        keys.public)
                    pairs.append((a, b))
                job_ids = [
                    await client.submit(sid, JobKind.MULTIPLY, (
                        serialize_ciphertext(a), serialize_ciphertext(b),
                    ))
                    for a, b in pairs
                ]
                assert len(set(job_ids)) == TOTAL
                for jid, (a, b) in zip(job_ids, pairs):
                    wire = await client.result(jid)
                    got = deserialize_ciphertext(wire, PARAMS)
                    exp = bfv.multiply_relin(a, b, keys.relin)
                    assert bfv.decrypt(got, keys.secret) == bfv.decrypt(
                        exp, keys.secret)
                    assert client.events_received(jid) == 1
                await client.aclose()
                await release
                assert rejected.value >= 1, "quota never engaged"
                stats = fhe.scheduler.stats
                assert stats.jobs_failed == 0
                assert stats.jobs_completed == stats.jobs_submitted

        asyncio.run(scenario())

    def test_terminal_failures_never_retried(self, stack):
        """Job-level failures (a lapsed deadline) surface once as
        :class:`JobFailedError` with kind ``deadline`` — the retry
        machinery must not resubmit a terminally failed job."""
        bfv, keys, encoder = stack

        async def scenario():
            fhe = FheServer(pool_size=2)
            async with FheTransportServer(fhe) as server:
                server.pause_execution()
                host, port = server.address
                client = await AsyncFheClient.connect(
                    host, port, retry=RetryPolicy(attempts=4, seed=0),
                )
                sid = await client.open_session(
                    "chaos", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                a = bfv.encrypt(encoder.encode([5] * PARAMS.n), keys.public)
                jid = await client.submit(
                    sid, JobKind.MULTIPLY,
                    (serialize_ciphertext(a), serialize_ciphertext(a)),
                    deadline=0.01,
                )
                await asyncio.sleep(0.05)  # let the deadline lapse queued
                server.resume_execution()
                with pytest.raises(JobFailedError) as exc_info:
                    await client.result(jid)
                assert exc_info.value.kind == "deadline"
                submitted = fhe.scheduler.stats.jobs_submitted
                await client.aclose()
                # Terminal: the failure was not resubmitted.
                assert fhe.scheduler.stats.jobs_submitted == submitted

        asyncio.run(scenario())

    def test_reconnect_resubmit_across_kill_and_resize(self, stack):
        """The full gauntlet: a worker kill, an elastic grow, spill-over
        routing, and a client whose link is severed mid-wait. The
        retrying client redials, resends its recorded submissions, and
        every payload converges bit-identical — content addressing and
        dedupe make the replay exactly-once-safe."""
        bfv, keys, encoder = stack
        rng = random.Random(47)
        TOTAL = 4

        async def scenario():
            # Kill the *home* worker (the session digest routes to index
            # 1 at fleet size 2): the first job deterministically lands
            # there, so the armed kill always fires. Worker 0 only sees
            # spill-over traffic, which is timing-dependent.
            fhe = FheServer(
                fleet_size=2, fleet_mode="thread",
                fault_spec="kill:worker=1:job=1",
                fleet_options=dict(FAST_BEATS, spill_threshold=2),
            )
            async with FheTransportServer(fhe) as server:
                host, port = server.address
                client = await AsyncFheClient.connect(
                    host, port,
                    retry=RetryPolicy(attempts=6, base_delay=0.05, seed=1),
                )
                sid = await client.open_session(
                    "chaos", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                pairs = []
                for _ in range(TOTAL):
                    a = bfv.encrypt(encoder.encode(
                        [rng.randrange(16) for _ in range(PARAMS.n)]),
                        keys.public)
                    b = bfv.encrypt(encoder.encode(
                        [rng.randrange(16) for _ in range(PARAMS.n)]),
                        keys.public)
                    pairs.append((a, b))
                # Nothing executes until the link is severed, so no
                # result can reach the client over the first connection.
                server.pause_execution()
                job_ids = [
                    await client.submit(sid, JobKind.MULTIPLY, (
                        serialize_ciphertext(a), serialize_ciphertext(b),
                    ))
                    for a, b in pairs
                ]
                assert await client.admin("grow", 1) == 3
                # Sever the link out from under the waiting client: the
                # transport forgets the subscriber, so only a redial and
                # resubmission can recover the results.
                client._writer.close()
                server.resume_execution()
                for jid, (a, b) in zip(job_ids, pairs):
                    wire = await client.result(jid)
                    got = deserialize_ciphertext(wire, PARAMS)
                    exp = bfv.multiply_relin(a, b, keys.relin)
                    assert bfv.decrypt(got, keys.secret) == bfv.decrypt(
                        exp, keys.secret)
                assert client.reconnects >= 1
                await client.aclose()
                rep = fhe.fleet_report()
                assert rep["deaths"] == 1, rep
                assert rep["resizes"]["grow"] == 1, rep
                stats = fhe.scheduler.stats
                assert stats.jobs_failed == 0

        asyncio.run(scenario())
