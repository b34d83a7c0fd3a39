"""Content-addressed result caching in :class:`FheServer`.

Repeated identical requests (common in inference traffic) must complete
at submit time from the cache, and the cache must never confuse tenants
whose parameters match but whose evaluation keys differ.
"""

import hashlib
import random
import time

import pytest

from repro.apps.logreg import MiniLogisticRegression
from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.service.jobs import RAW_OUTPUT, JobKind, JobStatus, raw_op_circuit
from repro.service.serialization import (
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

PARAMS = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)


@pytest.fixture(scope="module")
def client():
    bfv = Bfv(PARAMS, seed=77)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(5)

    def fresh():
        return bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
            keys.public,
        )

    return bfv, keys, fresh


def _open(server, keys, tenant="acme"):
    return server.open_session(
        tenant, serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )


class TestCacheHits:
    def test_identical_multiply_hits(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        first = server.submit(sid, JobKind.MULTIPLY, ops)
        wire_first = server.result(first)
        second = server.submit(sid, JobKind.MULTIPLY, ops)
        # A hit completes at submit time: no poll needed, nothing executed.
        assert server.poll(second) is JobStatus.DONE
        assert server.result(second) == wire_first
        assert server.job_metrics(second).backend == "cache"
        report = server.pool_report()["result_cache"]
        assert report["hits"] == 1
        assert report["misses"] == 1
        assert report["entries"] == 1

    def test_hit_adds_no_pool_work(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        server.result(server.submit(sid, JobKind.MULTIPLY, ops))
        cycles_before = server.pool_report()["total_cycles"]
        server.result(server.submit(sid, JobKind.MULTIPLY, ops))
        assert server.pool_report()["total_cycles"] == cycles_before

    def test_object_and_wire_operands_share_an_address(self, client):
        """The content address is the wire bytes, however operands arrive."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        sid = _open(server, keys)
        a, b = fresh(), fresh()
        server.result(server.submit(
            sid, JobKind.ADD,
            (serialize_ciphertext(a), serialize_ciphertext(b)),
        ))
        jid = server.submit(sid, JobKind.ADD, (a, b))
        assert server.poll(jid) is JobStatus.DONE
        assert server.pool_report()["result_cache"]["hits"] == 1


class TestCacheMisses:
    def test_different_operands_miss(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        sid = _open(server, keys)
        for _ in range(2):
            ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
            server.result(server.submit(sid, JobKind.MULTIPLY, ops))
        report = server.pool_report()["result_cache"]
        assert report["hits"] == 0
        assert report["misses"] == 2

    def test_kind_is_part_of_the_address(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        sid = _open(server, keys)
        ct = serialize_ciphertext(fresh())
        server.result(server.submit(sid, JobKind.ADD, (ct, ct)))
        server.result(server.submit(sid, JobKind.SUB, (ct, ct)))
        assert server.pool_report()["result_cache"]["hits"] == 0

    def test_backend_is_part_of_the_address(self, client):
        """A tenant asking for a specific execution path gets it."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        sid = _open(server, keys)
        ct = serialize_ciphertext(fresh())
        server.result(server.submit(sid, JobKind.ADD, (ct, ct),
                                    backend="chip_pool"))
        server.result(server.submit(sid, JobKind.ADD, (ct, ct),
                                    backend="software"))
        assert server.pool_report()["result_cache"]["hits"] == 0
        assert server.backends["software"].jobs_done == 1

    def test_different_relin_keys_never_share(self, client):
        """Same params digest + same operand bytes, different relin key:
        the results differ, so the cache must not cross tenants."""
        bfv, keys, fresh = client
        other_keys = Bfv(PARAMS, seed=4242).keygen(relin_digit_bits=14)
        server = FheServer(pool_size=1)
        sid_a = _open(server, keys, tenant="alpha")
        sid_b = server.open_session(
            "beta", serialize_params(PARAMS),
            relin_key=serialize_relin_key(other_keys.relin, PARAMS),
        )
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        wire_a = server.result(server.submit(sid_a, JobKind.MULTIPLY, ops))
        wire_b = server.result(server.submit(sid_b, JobKind.MULTIPLY, ops))
        assert server.pool_report()["result_cache"]["hits"] == 0
        assert wire_a != wire_b  # different relin keys -> different tails

    def test_app_circuits_share_the_cache(self):
        """The apps are served as circuits, so a repeated inference batch
        is a cache hit like any other job."""
        model = MiniLogisticRegression(num_features=3, seed=11)
        circuit = model.to_circuit(batch=1)
        inputs = tuple(
            serialize_ciphertext(ct)
            for ct in model.encrypt_features([[1, 0, -1]])
        )
        server = FheServer(pool_size=1)
        sid = server.open_session(
            "acme", serialize_params(model.params),
            relin_key=serialize_relin_key(model.keys.relin, model.params),
        )
        wires = [
            server.result(server.submit(
                sid, JobKind.CIRCUIT, inputs, payload=circuit
            ))
            for _ in range(2)
        ]
        assert wires[0] == wires[1]
        report = server.pool_report()["result_cache"]
        assert report["hits"] == 1
        assert report["misses"] == 1

    def test_raw_op_and_its_circuit_never_share(self, client):
        """A raw ADD runs as its one-step circuit, but the two settle to
        different shapes (a ciphertext vs a named-output map), so the
        request kind keeps them apart in the cache."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        raw = server.result(server.submit(sid, JobKind.ADD, ops))
        circuit = raw_op_circuit(JobKind.ADD)
        jid = server.submit(sid, JobKind.CIRCUIT, ops, payload=circuit)
        assert server.status(jid) is JobStatus.QUEUED  # a miss, not a hit
        outs = deserialize_circuit_outputs(server.result(jid), PARAMS)
        assert serialize_ciphertext(outs[RAW_OUTPUT]) == raw
        assert server.pool_report()["result_cache"]["hits"] == 0


class TestKeyDigestsAtUpload:
    """The address's key part is the digest the registry took at upload,
    so it follows each key's content, not the object that holds it."""

    def test_reopen_keeps_hits_and_a_replaced_key_misses(self, client):
        bfv, keys, fresh = client
        new_relin = Bfv(PARAMS, seed=4243).keygen(relin_digit_bits=14).relin
        galois = tuple(
            RotationEngine(bfv, keys.secret, digit_bits=14).galois_key(e)
            for e in (3, 2 * PARAMS.n - 1)
        )
        frames = [serialize_galois_key(g, PARAMS) for g in galois]
        server = FheServer(pool_size=1)

        def reopen(relin):
            return server.open_session(
                "acme", serialize_params(PARAMS),
                relin_key=serialize_relin_key(relin, PARAMS),
                galois_keys=tuple(frames),
            )

        sid = reopen(keys.relin)
        a, b = fresh(), fresh()
        ops = (serialize_ciphertext(a), serialize_ciphertext(b))
        wire_old = server.result(server.submit(sid, JobKind.MULTIPLY, ops))
        # A byte-identical reopen stores new key objects, same digests.
        assert reopen(keys.relin) == sid
        again = server.submit(sid, JobKind.MULTIPLY, ops)
        assert server.job_metrics(again).backend == "cache"
        assert server.result(again) == wire_old
        # A replaced relin key is a new address, served under the new key.
        reopen(new_relin)
        replaced = server.submit(sid, JobKind.MULTIPLY, ops)
        assert server.job_metrics(replaced).backend != "cache"
        assert server.result(replaced) == serialize_ciphertext(
            bfv.multiply_relin(a, b, new_relin)
        )
        assert server.result(replaced) != wire_old
        report = server.pool_report()["result_cache"]
        assert (report["hits"], report["misses"]) == (1, 2)
        # Every stored digest is the SHA-256 of the uploaded frame.
        session = server.registry.get(sid)
        assert session.relin_digest == hashlib.sha256(
            serialize_relin_key(new_relin, PARAMS)
        ).digest()
        assert session.galois_digests == {
            g.exponent: hashlib.sha256(frame).digest()
            for g, frame in zip(galois, frames)
        }


class TestInQueueDedupe:
    """Cache-aware scheduling: identical jobs in-queue share one execution.

    The result cache only helps once the first instance has *completed*;
    these tests cover the submit-before-complete window, where the
    scheduler must attach duplicates to the in-flight execution instead
    of running them again.
    """

    def test_duplicate_submit_executes_once(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        first = server.submit(sid, JobKind.MULTIPLY, ops)
        second = server.submit(sid, JobKind.MULTIPLY, ops)
        stats = server.run()
        # One execution, two results, bit-identical wire bytes.
        assert sum(b.jobs for b in stats.batches) == 1
        assert server.result(second) == server.result(first)
        assert stats.dedupe_hits == 1
        assert server.pool_report()["result_cache"]["dedupe_hits"] == 1
        metrics = server.job_metrics(second)
        assert metrics.backend == "dedupe"
        assert metrics.dedupe_of == first

    def test_three_way_fan_out(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        jids = [server.submit(sid, JobKind.MULTIPLY, ops) for _ in range(3)]
        stats = server.run()
        wires = {server.result(j) for j in jids}
        assert len(wires) == 1
        assert stats.dedupe_hits == 2
        assert sum(b.jobs for b in stats.batches) == 1
        assert stats.jobs_completed == 3

    def test_cache_hit_wins_at_submit_time(self, client):
        """Dedupe and the result cache compose: once the first instance
        has completed, a re-submit is a cache hit (done at submit, no
        waiting), not a dedupe follower."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        first = server.submit(sid, JobKind.MULTIPLY, ops)
        follower = server.submit(sid, JobKind.MULTIPLY, ops)  # in-queue
        server.run()
        late = server.submit(sid, JobKind.MULTIPLY, ops)  # after completion
        assert server.poll(late) is JobStatus.DONE  # completed at submit
        report = server.pool_report()["result_cache"]
        assert report["dedupe_hits"] == 1
        assert report["hits"] == 1
        assert server.job_metrics(follower).backend == "dedupe"
        assert server.job_metrics(late).backend == "cache"
        assert server.result(late) == server.result(first)

    def test_different_operands_do_not_dedupe(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        for _ in range(2):
            ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
            server.submit(sid, JobKind.MULTIPLY, ops)
        stats = server.run()
        assert stats.dedupe_hits == 0
        assert sum(b.jobs for b in stats.batches) == 2

    def test_different_backends_do_not_dedupe(self, client):
        """A tenant asking for a specific execution path gets it."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        a = server.submit(sid, JobKind.ADD, ops, backend="chip_pool")
        b = server.submit(sid, JobKind.ADD, ops, backend="software")
        server.run()
        assert server.scheduler.stats.dedupe_hits == 0
        assert server.backends["software"].jobs_done == 1
        assert server.result(a) == server.result(b)  # still bit-identical

    def test_failed_primary_fails_followers(self, client):
        """Followers inherit the primary's failure, then the address is
        retired so a later identical submit re-executes."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        # No Galois key: the ROTATE fails.
        sid = server.open_session("acme", serialize_params(PARAMS))
        ct = serialize_ciphertext(fresh())
        first = server.submit(sid, JobKind.ROTATE, (ct,), steps=1)
        second = server.submit(sid, JobKind.ROTATE, (ct,), steps=1)
        stats = server.run()
        assert server.poll(first) is JobStatus.FAILED
        assert server.poll(second) is JobStatus.FAILED
        assert stats.dedupe_hits == 1
        assert stats.jobs_failed == 2
        with pytest.raises(RuntimeError, match="failed"):
            server.result(second)
        # The address was retired with the failure: a new submit is not
        # attached to the dead primary and fails on its own execution.
        third = server.submit(sid, JobKind.ROTATE, (ct,), steps=1)
        server.run()
        assert server.poll(third) is JobStatus.FAILED
        assert server.scheduler.stats.dedupe_hits == 1


class TestSettleCount:
    def test_settled_metric_counts_every_settlement(self, client):
        """``repro_jobs_settled_total`` and :class:`ServiceStats` count
        the same settlements: executed, dedupe follower, cache hit, shed
        from the queue, follower shed, and a failure fanned out."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        acme, beta = _open(server, keys), _open(server, keys, "beta")
        # No Galois key: the ROTATE fails, and so does its follower.
        gamma = server.open_session("gamma", serialize_params(PARAMS))
        served = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        watched = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        rotated = (serialize_ciphertext(fresh()),)
        server.submit(acme, JobKind.ADD, served)  # executed
        server.submit(acme, JobKind.ADD, served)  # follower
        server.submit(  # shed from the queue
            beta, JobKind.ADD,
            (serialize_ciphertext(fresh()), serialize_ciphertext(fresh())),
            deadline=1e-6,
        )
        # acme's job is picked first, so this primary is still queued
        # when the first harvest sheds its follower.
        server.submit(beta, JobKind.ADD, watched)
        server.submit(beta, JobKind.ADD, watched, deadline=1e-6)
        for _ in range(2):
            server.submit(gamma, JobKind.ROTATE, rotated, steps=1)
        time.sleep(0.01)
        server.run()
        hit = server.submit(acme, JobKind.ADD, served)
        assert server.job_metrics(hit).backend == "cache"
        stats = server.scheduler.stats
        assert stats.dedupe_hits == 3 and stats.cache_hits == 1
        settled = server.stats_snapshot()["repro_jobs_settled_total"]
        expected = {}
        for outcome, per_tenant in (
            ("completed", stats.per_tenant_completed),
            ("failed", stats.per_tenant_failed),
        ):
            for tenant, count in per_tenant.items():
                expected[f'{{outcome="{outcome}",tenant="{tenant}"}}'] = count
        assert settled == expected
        assert expected == {
            '{outcome="completed",tenant="acme"}': 3,
            '{outcome="completed",tenant="beta"}': 1,
            '{outcome="failed",tenant="beta"}': 2,
            '{outcome="failed",tenant="gamma"}': 2,
        }
        assert sum(settled.values()) == stats.jobs_completed + stats.jobs_failed


class TestRejectedSubmissions:
    def test_unknown_backend_leaves_no_server_state(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=1)
        sid = _open(server, keys)
        ct = serialize_ciphertext(fresh())
        with pytest.raises(ValueError, match="unknown backend"):
            server.submit(sid, JobKind.ADD, (ct, ct), backend="nope")
        assert server._jobs == {}
        assert server._inflight == {}
        report = server.pool_report()["result_cache"]
        assert report["misses"] == 0 and report["hits"] == 0
        # Nothing of the rejected submit is left to attach to: the next
        # identical, valid submit executes on its own.
        server.submit(sid, JobKind.ADD, (ct, ct))
        report = server.pool_report()["result_cache"]
        assert report["misses"] == 1 and report["dedupe_hits"] == 0


class TestCapacityAndDisable:
    def test_lru_eviction(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=1, result_cache_size=1)
        sid = _open(server, keys)
        op1 = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        op2 = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        server.result(server.submit(sid, JobKind.ADD, op1))
        server.result(server.submit(sid, JobKind.ADD, op2))  # evicts op1
        server.result(server.submit(sid, JobKind.ADD, op1))  # recompute
        report = server.pool_report()["result_cache"]
        assert report["hits"] == 0
        assert report["entries"] == 1

    def test_zero_capacity_disables(self, client):
        bfv, keys, fresh = client
        server = FheServer(pool_size=1, result_cache_size=0)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        for _ in range(2):
            server.result(server.submit(sid, JobKind.ADD, ops))
        report = server.pool_report()["result_cache"]
        assert report == {
            "hits": 0, "misses": 0, "dedupe_hits": 0, "entries": 0,
            "capacity": 0,
        }

    def test_dedupe_works_with_cache_disabled(self, client):
        """In-queue dedupe keys on content, not on the cache's LRU."""
        bfv, keys, fresh = client
        server = FheServer(pool_size=1, result_cache_size=0)
        sid = _open(server, keys)
        ops = (serialize_ciphertext(fresh()), serialize_ciphertext(fresh()))
        first = server.submit(sid, JobKind.MULTIPLY, ops)
        second = server.submit(sid, JobKind.MULTIPLY, ops)
        server.run()
        assert server.result(second) == server.result(first)
        report = server.pool_report()["result_cache"]
        assert report["dedupe_hits"] == 1
        assert report["hits"] == 0 and report["misses"] == 0

    def test_cached_result_decrypts_correctly(self, client):
        """The cached ciphertext is the real answer, not a stale object."""
        from repro.service.serialization import deserialize_ciphertext

        bfv, keys, fresh = client
        server = FheServer(pool_size=2)
        sid = _open(server, keys)
        a, b = fresh(), fresh()
        ops = (serialize_ciphertext(a), serialize_ciphertext(b))
        server.result(server.submit(sid, JobKind.MULTIPLY, ops))
        wire = server.result(server.submit(sid, JobKind.MULTIPLY, ops))
        expected = bfv.multiply_relin(a, b, keys.relin)
        got = deserialize_ciphertext(wire, PARAMS)
        assert bfv.decrypt(got, keys.secret) == bfv.decrypt(
            expected, keys.secret
        )
