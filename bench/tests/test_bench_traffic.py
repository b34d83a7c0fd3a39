"""Seed determinism and correctness of the generated traffic (toy ``n``)."""

import pytest

import traffic
import workloads
from spec import BY_NAME

from repro.service.fleet import route_index
from repro.service.serialization import params_digest


def test_job_order_is_distinct_seeded_and_prefix_stable():
    long = traffic.job_order(seed=3, tenant=0, jobs=90)
    assert len({(j.a, j.b) for j in long}) == 90
    assert all(j.a != j.b for j in long)
    assert traffic.job_order(3, 0, 90) == long
    assert traffic.job_order(3, 0, 25) == long[:25]
    assert traffic.job_order(4, 0, 90) != long
    # The first P(P-1) jobs use only the first P ciphertexts.
    for count in (2, 6, 12, 30, 90):
        pool = traffic.pool_size_for(count)
        assert pool * (pool - 1) >= count
        assert max(max(j.a, j.b) for j in long[:count]) < pool


def test_same_seed_same_bytes_other_seed_other_bytes():
    params = traffic.paper_params(quick=True)
    one = traffic.make_tenant("t", params, seed=5, index=0, pool_size=3)
    same = traffic.make_tenant("t", params, seed=5, index=0, pool_size=3)
    other = traffic.make_tenant("t", params, seed=6, index=0, pool_size=3)
    assert one.wire == same.wire and one.relin_wire == same.relin_wire
    assert one.wire != other.wire
    # A larger pool extends a smaller one; it does not reshuffle it.
    bigger = traffic.make_tenant("t", params, seed=5, index=0, pool_size=5)
    assert bigger.wire[:3] == one.wire and bigger.slots[:3] == one.slots


def test_second_tenant_routes_to_the_other_worker():
    for quick in (True, False):
        home = route_index(params_digest(traffic.paper_params(quick)), 2)
        away = route_index(
            params_digest(traffic.second_tenant_params(quick)), 2
        )
        assert {home, away} == {0, 1}


def test_references_decrypt_to_the_slot_domain_expectation():
    tenant = traffic.make_tenant(
        "t", traffic.paper_params(quick=True), seed=2, index=0, pool_size=3
    )
    job = traffic.Job(0, 2, 1)
    for kind in (traffic.EvalMult(tenant), traffic.Dense16(tenant, seed=2)):
        assert kind.slots(kind.reference(job)) == kind.expected(job)
    assert len(tenant.galois_wire) == traffic.DENSE_ROUNDS


def test_wave_schedule_shapes():
    fleet = workloads.Traffic(BY_NAME["evalmult_fleet_wave2"], 1, True, 6)
    assert [j.tenant for j in fleet.wave(0)] == [0, 1]
    assert {j.tenant for j in fleet.build_probe()} == {0, 1}
    tcp = workloads.Traffic(BY_NAME["evalmult_tcp_wave4"], 1, True, 6)
    waves = [tcp.wave(i) for i in range(6)]
    assert all(len(w) == 4 for w in waves)
    served = [j.key for w in waves for j in w] + [
        j.key for j in tcp.build_probe()
    ]
    assert len(set(served)) == len(served), "every submit must be a miss"
    with pytest.raises(ValueError):
        workloads.Traffic(BY_NAME["evalmult_tcp_wave4"], 1, True, 60,
                          tenants=tcp.tenants)


def test_verifier_counts_every_kind_of_miss():
    tr = workloads.Traffic(BY_NAME["evalmult_inproc_serial"], 1, True, 4)
    # Waves 0 and 1 are the pairs (1,0) and (0,1), whose products agree;
    # wave 3 is from the next shell.
    kind, jobs = tr.kinds[0], tr.wave(0) + tr.wave(3)
    good = kind.reference(jobs[0])
    wrong = kind.reference(jobs[1])
    verifier = workloads.Verifier()
    verifier.check(tr, [
        (jobs[0], "j1", good, None),       # correct
        (jobs[0], "j2", good, None),       # same bytes again: correct
        (jobs[0], "j3", wrong, None),      # same job, other bytes
        (jobs[1], "j4", good, None),       # decrypts to the wrong thing
        (jobs[1], "j5", None, "refused"),  # failed or refused
    ])
    assert (verifier.attempted, verifier.failed) == (5, 3)
    verifier.require(False, "cache_hits == 1")
    assert verifier.failed == 4
