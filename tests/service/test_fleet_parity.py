"""A fleet job is a chip-pool job that crossed a socket.

A fleet worker is a plain ``FheServer`` behind ``FheTransportServer``,
and its router settles each job from the pushed EVENT. These tests pin
what that hop must preserve and what it must not keep:

* the result bytes, modelled cycles and fidelity of a thread-fleet job
  equal the in-process chip pool's (the keyed n = 16, 3-tower EvalMult
  that ``test_per_job_settlement.py`` pins at 3 x 1,143 + 5,760 cycles);
* EVENT carries ``cycles``/``seconds``/``fidelity`` on the wire;
* a settled job holds no operands, in-process or through the fleet, and
  the router's client keeps no record of a settled job;
* the router sends a session's keys to a worker again exactly when their
  upload digests change, so a replaced key serves the bytes in-process
  ``Bfv`` computes under it and an identical reopen sends nothing;
* a circuit reaches its worker as the bytes its client sent: the front
  door forwards them and encodes no circuit itself;
* an operand submitted as a ``Ciphertext`` reaches its worker as the
  frame the front door made of it at submit.
"""

from __future__ import annotations

import asyncio
import random
import sys

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.bfv.rotation import apply_galois_with_key
from repro.service import serialization
from repro.service.circuits import OP_ROTATE_ROWS, rotation_exponent
from repro.service.client import AsyncFheClient
from repro.service.jobs import JobKind
from repro.service.serialization import (
    EventMsg,
    decode_message,
    deserialize_ciphertext,
    encode_message,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.transport import FheTransportServer

PARAMS = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)
EVALMULT_CYCLES = 3 * 1143 + 5760


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=0x5E77)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(20)
    operands = [
        tuple(serialize_ciphertext(bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(PARAMS.n)]), keys.public))
            for _ in range(2))
        for _ in range(3)
    ]
    return keys, operands


@pytest.fixture(scope="module")
def galois_pair(tenant):
    """Two Galois keys for one exponent and the tenant's secret: the
    same key material, different randomness, so different bytes."""
    keys, _ = tenant
    exponent = rotation_exponent(PARAMS, OP_ROTATE_ROWS, 1)
    return tuple(
        RotationEngine(Bfv(PARAMS, seed=seed), keys.secret,
                       digit_bits=14).galois_key(exponent)
        for seed in (1, 2)
    )


def _serve(server, keys, operands, backend=""):
    """Open a session, submit every operand pair, return the job ids
    with their result bytes."""
    sid = server.open_session(
        "t", serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )
    jids = [
        server.submit(sid, JobKind.MULTIPLY, pair, backend=backend)
        for pair in operands
    ]
    return [(jid, server.result(jid)) for jid in jids]


def test_thread_fleet_job_matches_the_chip_pool(tenant):
    keys, operands = tenant
    with FheServer(pool_size=1, result_cache_size=0) as local:
        expected = _serve(local, keys, operands)
        local_metrics = [local.job_metrics(jid) for jid, _ in expected]
    with FheServer(fleet_size=1, fleet_mode="thread",
                   result_cache_size=0) as fleet:
        served = _serve(fleet, keys, operands)
        for (jid, wire), (_, want), local_m in zip(
                served, expected, local_metrics):
            m = fleet.job_metrics(jid)
            assert wire == want
            assert m.backend == fleet.fleet.name
            assert (m.cycles, m.model_seconds, m.fidelity) == (
                local_m.cycles, local_m.model_seconds, local_m.fidelity
            )
            assert (m.cycles, m.fidelity) == (EVALMULT_CYCLES, "chip")


def test_event_carries_cycles_seconds_and_fidelity():
    done = EventMsg("j-1", "done", b"payload", cycles=EVALMULT_CYCLES,
                    model_seconds=4.5e-5, fidelity="chip")
    assert decode_message(encode_message(done)) == done
    failed = decode_message(encode_message(EventMsg("j-2", "failed",
                                                    error="boom")))
    assert (failed.cycles, failed.model_seconds, failed.fidelity) == (
        0, 0.0, ""
    )


def test_pushed_event_reports_the_jobs_metrics(tenant):
    """Over a real socket, the subscribed EVENT carries the cycles and
    fidelity the server recorded for the job."""
    keys, operands = tenant

    async def scenario():
        fhe = FheServer(pool_size=1, result_cache_size=0)
        async with FheTransportServer(fhe) as server:
            client = await AsyncFheClient.connect(*server.address)
            sid = await client.open_session(
                "t", serialize_params(PARAMS),
                relin_key=serialize_relin_key(keys.relin, PARAMS),
            )
            events = []
            jid = await client.submit(sid, JobKind.MULTIPLY, operands[0],
                                      on_done=events.append)
            await client.result(jid)
            await client.aclose()
        (event,) = events
        m = fhe.job_metrics(jid)
        assert (event.cycles, event.model_seconds, event.fidelity) == (
            m.cycles, m.model_seconds, m.fidelity
        )
        assert event.cycles == EVALMULT_CYCLES

    asyncio.run(scenario())


class TestSettledJobsReleaseState:
    def test_in_process_jobs_drop_their_operands(self, tenant):
        keys, operands = tenant
        with FheServer(pool_size=1, result_cache_size=0) as server:
            for jid, _ in _serve(server, keys, operands):
                job = server._jobs[jid]
                assert job.operands == [] and job.wire_operands == ()

    def test_fleet_jobs_and_router_client_keep_no_records(self, tenant):
        keys, operands = tenant
        with FheServer(fleet_size=2, fleet_mode="thread",
                       result_cache_size=0) as server:
            for jid, _ in _serve(server, keys, operands):
                job = server._jobs[jid]
                assert job.operands == [] and job.wire_operands == ()
            for handle in server.fleet._workers:
                assert handle.client._jobs == {}
                assert handle.client._submissions == {}


def test_keys_replicate_exactly_when_their_content_changes(tenant,
                                                           galois_pair):
    keys, operands = tenant
    old_galois, new_galois = galois_pair
    new_relin = Bfv(PARAMS, seed=3).keygen(relin_digit_bits=14).relin
    reference = Bfv(PARAMS)
    ct = operands[0][0]

    def rotated(key):
        return serialize_ciphertext(apply_galois_with_key(
            reference, deserialize_ciphertext(ct, PARAMS), key
        ))

    with FheServer(fleet_size=1, fleet_mode="thread",
                   result_cache_size=0) as server:
        replications = server.metrics.counter(
            "repro_fleet_key_replications_total",
            "Evaluation-key replications to fleet workers",
        )

        def reopen(relin=None, galois=()):
            return server.open_session(
                "t", serialize_params(PARAMS),
                relin_key=relin and serialize_relin_key(relin, PARAMS),
                galois_keys=tuple(serialize_galois_key(g, PARAMS)
                                  for g in galois),
            )

        def rotate(sid):
            return server.result(
                server.submit(sid, JobKind.ROTATE, (ct,), steps=1)
            )

        sid = reopen(keys.relin, (old_galois,))
        assert rotate(sid) == rotated(old_galois)
        assert replications.value == 1
        # (1) A different key for an exponent the session already holds
        # reaches the worker: the next rotation runs under it.
        reopen(galois=(new_galois,))
        assert rotated(new_galois) != rotated(old_galois)
        assert rotate(sid) == rotated(new_galois)
        assert replications.value == 2
        # (2) A byte-identical reopen sends nothing.
        reopen(keys.relin, (new_galois,))
        assert rotate(sid) == rotated(new_galois)
        assert replications.value == 2
        # (3) A replaced relin key is sent once, and EvalMult runs under it.
        reopen(relin=new_relin)
        for a, b in operands[:2]:
            want = serialize_ciphertext(reference.multiply_relin(
                deserialize_ciphertext(a, PARAMS),
                deserialize_ciphertext(b, PARAMS), new_relin,
            ))
            assert server.result(
                server.submit(sid, JobKind.MULTIPLY, (a, b))
            ) == want
        assert replications.value == 3


#: The version-2 body with a kind-1 plain constant that
#: ``tests/property/test_property_circuit_wire.py`` pins:
#: ``y = -3 * (rotate_rows(x, 1) + plain(0, 1, 255, 256, 70000))``.
#: This build's encoder writes it as version 3, so only a forwarded
#: frame reaches the worker in these bytes.
V2_KIND1_WIRE = bytes.fromhex(
    "4346484501070200046269617300010001780002010000000500000000000000"
    "010100000001ff0000000201000000000301117000fffffffffffffffd000308"
    "000000010300010000040002000100010001790003b9139b4c"
)


def test_fleet_forwards_a_wire_circuit_verbatim(tenant, galois_pair,
                                                 monkeypatch):
    """The router's ``submit_circuit`` receives the client's exact
    circuit bytes and no ``serialize_circuit`` runs on the way. The
    worker decodes and runs them: its 5-coefficient constant fails
    there, as it fails in-process at n = 16."""
    _, operands = tenant
    encode = serialization.serialize_circuit
    encoded, forwarded = [], []

    def counting_encode(circuit):
        encoded.append(circuit)
        return encode(circuit)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("repro.")
                and getattr(module, "serialize_circuit", None) is encode):
            monkeypatch.setattr(module, "serialize_circuit", counting_encode)
    submit_circuit = AsyncFheClient.submit_circuit

    async def recording_submit(self, session_id, circuit, *args, **kwargs):
        forwarded.append(circuit)
        return await submit_circuit(self, session_id, circuit,
                                    *args, **kwargs)

    monkeypatch.setattr(AsyncFheClient, "submit_circuit", recording_submit)
    with FheServer(fleet_size=1, fleet_mode="thread",
                   result_cache_size=0) as server:
        sid = server.open_session(
            "t", serialize_params(PARAMS),
            galois_keys=(serialize_galois_key(galois_pair[0], PARAMS),),
        )
        jid = server.submit(sid, JobKind.CIRCUIT, operands[0][:1],
                            payload=V2_KIND1_WIRE)
        with pytest.raises(RuntimeError, match="5 coefficients for n = 16"):
            server.result(jid)
        assert server.job_metrics(jid).backend == server.fleet.name
    assert forwarded == [V2_KIND1_WIRE]
    assert encoded == []


def test_fleet_sends_a_ciphertext_operand_as_its_submit_frame(tenant,
                                                             monkeypatch):
    """``FheServer.submit`` frames a ``Ciphertext`` operand once; the
    router sends that frame, and the job serves the bytes a wire submit
    of the same operands does."""
    keys, operands = tenant
    objects = [tuple(deserialize_ciphertext(w, PARAMS) for w in pair)
               for pair in operands]
    submit = AsyncFheClient.submit
    forwarded = []

    async def recording_submit(self, session_id, kind, wire, *args,
                               **kwargs):
        forwarded.append(tuple(wire))
        return await submit(self, session_id, kind, wire, *args, **kwargs)

    monkeypatch.setattr(AsyncFheClient, "submit", recording_submit)
    with FheServer(fleet_size=1, fleet_mode="thread",
                   result_cache_size=0) as fleet:
        served = _serve(fleet, keys, objects)
        assert [fleet.job_metrics(jid).backend for jid, _ in served] == [
            fleet.fleet.name
        ] * len(objects)
        assert [wire for _, wire in served] == [
            wire for _, wire in _serve(fleet, keys, operands)
        ]
    assert forwarded[:len(objects)] == [
        tuple(serialize_ciphertext(ct) for ct in pair) for pair in objects
    ]
