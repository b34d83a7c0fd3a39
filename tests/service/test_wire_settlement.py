"""A served job is wire bytes at both ends.

``FheServer.submit`` frames a ``Ciphertext`` operand once, so every job
carries its operands' wire bytes however they arrived; a backend frames
the job's outputs once, when the job settles. ``result()`` then hands
back that one ``bytes`` object, which must equal the in-process
``Bfv`` result framed by the client, on every backend and for every raw
op kind. The content address is taken over the operand frames, so an
object operand and its wire bytes are the same request.
"""

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.bfv.rotation import apply_galois_with_key
from repro.service.circuits import CircuitBuilder, evaluate_circuit
from repro.service.jobs import JobKind, JobStatus, raw_op_circuit
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_circuit_outputs,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

#: Chip-native, so MULTIPLY/SQUARE replay their towers on the chip pool.
PARAMS = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)

BACKENDS = ("chip_pool", "software")

#: Row rotation by one slot: Galois exponent 3^1 mod 2n.
ROTATE_STEPS = 1
ROTATE_EXPONENT = pow(3, ROTATE_STEPS, 2 * PARAMS.n)


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=0x5E771E)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rotor = RotationEngine(bfv, keys.secret, digit_bits=14)
    rng = random.Random(56)
    cts = tuple(
        bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(PARAMS.n)]), keys.public)
        for _ in range(2)
    )
    return bfv, keys, rotor.galois_key(ROTATE_EXPONENT), cts


def _open(server, keys, galois):
    return server.open_session(
        "t", serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
        galois_keys=(serialize_galois_key(galois, PARAMS),),
    )


def _in_process(bfv, keys, galois, kind, cts):
    if kind is JobKind.ADD:
        return bfv.add(*cts)
    if kind is JobKind.SUB:
        return bfv.sub(*cts)
    if kind is JobKind.MULTIPLY:
        return bfv.multiply_relin(cts[0], cts[1], keys.relin)
    if kind is JobKind.SQUARE:
        return bfv.relinearize(bfv.square(cts[0]), keys.relin)
    if kind is JobKind.ROTATE:
        return apply_galois_with_key(bfv, cts[0], galois)
    raise AssertionError(kind)


def _serialize_spans(server, jid):
    return [s for s in server.job_trace(jid).spans
            if s.phase == "serialize" and s.parent == -1]


RAW_KINDS = (JobKind.ADD, JobKind.SUB, JobKind.MULTIPLY, JobKind.SQUARE,
             JobKind.ROTATE)


@pytest.mark.parametrize("kind", RAW_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("backend", BACKENDS)
def test_raw_op_settles_as_the_in_process_bytes(tenant, backend, kind):
    """Object operands are framed at submit; the result is framed once,
    at settlement, and ``result()`` returns that very object."""
    bfv, keys, galois, cts = tenant
    operands = cts[:len(raw_op_circuit(kind).inputs)]
    server = FheServer(pool_size=1, result_cache_size=0)
    sid = _open(server, keys, galois)
    jid = server.submit(sid, kind, operands, backend=backend,
                        steps=ROTATE_STEPS if kind is JobKind.ROTATE else 0)
    job = server._jobs[jid]
    assert job.wire_operands == tuple(serialize_ciphertext(ct)
                                      for ct in operands)

    wire = server.result(jid)
    assert type(wire) is bytes
    assert wire == serialize_ciphertext(
        _in_process(bfv, keys, galois, kind, operands)
    )
    assert wire is job.result
    assert server.result(jid) is wire  # a second read frames nothing
    assert len(_serialize_spans(server, jid)) == 1
    assert _serialize_spans(server, jid)[0].end <= job.trace.done_at
    # Settlement drops the inputs, object and wire forms alike.
    assert job.operands == [] and job.wire_operands == ()


#: Operand forms of a MULTIPLY after an all-wire primary has settled.
FORMS = {
    "objects": (False, False),
    "wire": (True, True),
    "object-then-wire": (False, True),
    "wire-then-object": (True, False),
}


@pytest.mark.parametrize("form", sorted(FORMS))
def test_every_operand_form_hits_the_cached_bytes(tenant, form):
    """A mix of object and wire operands is the same content address as
    the all-wire request, and the hit returns the primary's bytes."""
    _bfv, keys, galois, cts = tenant
    wires = tuple(serialize_ciphertext(ct) for ct in cts)
    server = FheServer(pool_size=1)
    sid = _open(server, keys, galois)
    primary = server.submit(sid, JobKind.MULTIPLY, wires)
    primary_wire = server.result(primary)

    operands = tuple(w if as_wire else ct
                     for w, ct, as_wire in zip(wires, cts, FORMS[form]))
    hit = server.submit(sid, JobKind.MULTIPLY, operands)
    assert server.poll(hit) is JobStatus.DONE  # settled at submit
    assert server.job_metrics(hit).backend == "cache"
    assert server.result(hit) is primary_wire
    assert _serialize_spans(server, hit) == []
    report = server.pool_report()["result_cache"]
    assert (report["hits"], report["misses"], report["entries"]) == (1, 1, 1)


def _circuit():
    builder = CircuitBuilder("settle")
    x, y = builder.input("x"), builder.input("y")
    prod = builder.mul_relin(x, y)
    builder.output("prod", prod)
    builder.output("sum", builder.add(prod, x))
    return builder.build()


@pytest.mark.parametrize("backend", BACKENDS)
def test_circuit_settles_as_its_framed_output_map(tenant, backend):
    """A circuit with one object and one wire operand settles as the
    framed named-output map of its in-process evaluation."""
    bfv, keys, galois, cts = tenant
    circuit = _circuit()
    server = FheServer(pool_size=1, result_cache_size=0)
    sid = _open(server, keys, galois)
    jid = server.submit(sid, JobKind.CIRCUIT,
                        (cts[0], serialize_ciphertext(cts[1])),
                        payload=circuit, backend=backend)
    wire = server.result(jid)
    assert type(wire) is bytes
    expected = evaluate_circuit(bfv, keys.relin, circuit, list(cts))
    assert wire == serialize_circuit_outputs(expected)
    assert server.result(jid) is wire
    assert len(_serialize_spans(server, jid)) == 1
