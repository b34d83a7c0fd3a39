"""One meaning per number: modelled and measured seconds side by side.

Every job reports two seconds fields, each with one meaning on every
backend. ``model_seconds`` is the backend's paper model (chip pool:
cycles ÷ clock; software: the SEAL-anchored CPU model; fleet: the
worker's model, copied from its EVENT). ``host_seconds`` is measured by
the scheduler from dispatch to settlement — the one value its
``repro_job_execute_seconds`` histogram observes — so a job that never
dispatches (a cache hit, a dedupe follower) keeps 0.
"""

from __future__ import annotations

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.jobs import JobKind
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

#: Chip-native, so EvalMult replays its towers on the chip pool.
PARAMS = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)

#: (server options, backend name) per execution path under test.
PATHS = {
    "chip_pool": ({"pool_size": 2}, "chip_pool"),
    "software": ({}, "software"),
    "fleet": ({"fleet_size": 1, "fleet_mode": "thread",
               "fleet_options": {"heartbeat_interval": 0.05}}, "fleet"),
}


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=0x5EC5)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(33)
    wires = [
        serialize_ciphertext(bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(PARAMS.n)]), keys.public))
        for _ in range(3)
    ]
    return keys, wires


def _open(server, keys):
    return server.open_session(
        "t", serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )


def _serve_serially(server, sid, wires, backend):
    """A multiply, an add and a square, each settled before the next
    is submitted, so settlement order is submit order."""
    jobs = [
        (JobKind.MULTIPLY, wires[:2]),
        (JobKind.ADD, wires[1:3]),
        (JobKind.SQUARE, wires[2:3]),
    ]
    jids = []
    for kind, operands in jobs:
        jid = server.submit(sid, kind, operands, backend=backend)
        server.result(jid)
        jids.append(jid)
    return [server.job_metrics(jid) for jid in jids]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_histogram_observes_each_jobs_host_seconds(tenant, path):
    keys, wires = tenant
    options, backend = PATHS[path]
    with FheServer(result_cache_size=0, **options) as server:
        sid = _open(server, keys)
        metrics = _serve_serially(server, sid, wires, backend)
        label = server.backends[backend].name
        histogram = server.metrics.histogram(
            "repro_job_execute_seconds", backend=label,
        )
        assert all(m.backend == label for m in metrics)
        assert all(m.host_seconds > 0 for m in metrics)
        assert histogram.count == len(metrics)
        # The same floats, added in the same (settlement) order.
        assert histogram.total == sum(m.host_seconds for m in metrics)


@pytest.mark.parametrize("path", ["chip_pool", "fleet"])
def test_chip_model_seconds_are_cycles_over_clock(tenant, path):
    keys, wires = tenant
    options, backend = PATHS[path]
    with FheServer(result_cache_size=0, **options) as server:
        sid = _open(server, keys)
        clock = server.chip_pool.workers[0].chip.clock.frequency_hz
        for m in _serve_serially(server, sid, wires, backend):
            assert m.cycles > 0
            assert m.model_seconds == m.cycles / clock


def test_identical_software_jobs_have_equal_model_seconds(tenant):
    keys, wires = tenant
    server = FheServer(result_cache_size=0)
    sid = _open(server, keys)
    metrics = []
    for _ in range(2):  # one after the other: neither a follower nor a hit
        jid = server.submit(sid, JobKind.MULTIPLY, wires[:2],
                            backend="software")
        server.result(jid)
        metrics.append(server.job_metrics(jid))
    a, b = metrics
    assert a.model_seconds > 0
    assert a.model_seconds == b.model_seconds
    assert a.cycles == b.cycles == 0


def test_jobs_that_never_dispatch_keep_zero_host_seconds(tenant):
    keys, wires = tenant
    server = FheServer()
    sid = _open(server, keys)
    # Submitted before the first runs: an in-queue dedupe follower.
    primary, follower = (
        server.submit(sid, JobKind.MULTIPLY, wires[:2]) for _ in range(2)
    )
    server.run()
    # Submitted after: a result-cache hit.
    hit = server.submit(sid, JobKind.MULTIPLY, wires[:2])
    assert server.result(hit) == server.result(primary)
    assert server.job_metrics(primary).host_seconds > 0
    for jid, how in ((follower, "dedupe"), (hit, "cache")):
        m = server.job_metrics(jid)
        assert m.backend == how
        assert (m.host_seconds, m.model_seconds) == (0.0, 0.0)


def test_fastntt_is_an_unknown_backend(tenant):
    keys, wires = tenant
    server = FheServer()
    sid = _open(server, keys)
    with pytest.raises(ValueError, match="unknown backend 'fastntt'"):
        server.submit(sid, JobKind.MULTIPLY, wires[:2], backend="fastntt")
