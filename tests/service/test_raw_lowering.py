"""Raw ops are one-step circuits: one job shape on every backend.

A raw ``ADD``/``SUB``/``MULTIPLY``/``SQUARE``/``ROTATE`` submit is lowered
to its one-step circuit when the job is built, so it must be
indistinguishable from submitting the hand-built circuit yourself: the
same result ciphertext, the same modelled cycles and seconds, the same
fidelity flags and the same top-level trace phases — on the chip pool at
two sizes, the software backend, and a worker fleet.
"""

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.service.circuits import CircuitBuilder
from repro.service.jobs import JobKind, raw_op_circuit
from repro.service.serialization import (
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

#: Chip-native, so MULTIPLY/SQUARE replay their towers on the chip pool.
PARAMS = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)

#: (server options, backend name) per execution path under test.
PATHS = {
    "chip_pool_x1": ({"pool_size": 1}, "chip_pool"),
    "chip_pool_x4": ({"pool_size": 4}, "chip_pool"),
    "software": ({}, "software"),
    "fleet": ({"fleet_size": 1, "fleet_mode": "thread",
               "fleet_options": {"heartbeat_interval": 0.05}}, "fleet"),
}


def _by_hand(kind, steps):
    """The circuit a client would write for one raw op."""
    builder = CircuitBuilder("by-hand")
    x = builder.input("x")
    if kind is JobKind.SQUARE:
        out = builder.square_relin(x)
    elif kind is JobKind.ROTATE:
        out = builder.rotate_rows(x, steps)
    else:
        y = builder.input("y")
        out = {
            JobKind.ADD: builder.add, JobKind.SUB: builder.sub,
            JobKind.MULTIPLY: builder.mul_relin,
        }[kind](x, y)
    builder.output("z", out)
    return builder.build()


#: (raw kind, raw step count, the equivalent hand-written step count).
#: Large and negative rotation counts reduce mod n/2 = 8 to the same
#: rotation as the small immediate.
CASES = [
    (JobKind.ADD, 0, 0),
    (JobKind.SUB, 0, 0),
    (JobKind.MULTIPLY, 0, 0),
    (JobKind.SQUARE, 0, 0),
    (JobKind.ROTATE, 1, 1),
    (JobKind.ROTATE, -3, 5),
    (JobKind.ROTATE, 2**40 + 3, 3),
]


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=0x10E7)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rotor = RotationEngine(bfv, keys.secret, digit_bits=14)
    rng = random.Random(23)
    cts = [
        bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(PARAMS.n)]), keys.public)
        for _ in range(2)
    ]
    galois = tuple(
        serialize_galois_key(rotor.galois_key(pow(3, k, 2 * PARAMS.n)), PARAMS)
        for k in (1, 3, 5)
    )
    return keys, galois, tuple(serialize_ciphertext(ct) for ct in cts)


def _top_phases(server, jid):
    return [s.phase for s in server.job_trace(jid).spans if s.parent == -1]


@pytest.mark.parametrize("path", sorted(PATHS))
def test_raw_submit_equals_its_hand_built_circuit(tenant, path):
    keys, galois, wires = tenant
    options, backend = PATHS[path]
    with FheServer(result_cache_size=0, **options) as server:
        sid = server.open_session(
            "t", serialize_params(PARAMS),
            relin_key=serialize_relin_key(keys.relin, PARAMS),
            galois_keys=galois,
        )
        for kind, steps, hand_steps in CASES:
            arity = len(raw_op_circuit(kind).inputs)
            operands = wires[:arity]
            raw = server.submit(sid, kind, operands, steps=steps,
                                backend=backend)
            raw_wire = server.result(raw)
            circuit = server.submit(
                sid, JobKind.CIRCUIT, operands,
                payload=_by_hand(kind, hand_steps), backend=backend,
            )
            outs = deserialize_circuit_outputs(server.result(circuit), PARAMS)
            case = f"{path} {kind.value} steps={steps}"
            assert serialize_ciphertext(outs["z"]) == raw_wire, case
            m_raw = server.job_metrics(raw)
            m_circ = server.job_metrics(circuit)
            assert m_raw.cycles == m_circ.cycles, case
            assert m_raw.fidelity == m_circ.fidelity, case
            assert m_raw.relin_fidelity == m_circ.relin_fidelity, case
            assert m_raw.tower_cycles == m_circ.tower_cycles, case
            assert m_raw.relin_cycles == m_circ.relin_cycles, case
            assert m_raw.model_seconds == m_circ.model_seconds, case
            assert _top_phases(server, raw) == _top_phases(
                server, circuit
            ), case


def test_keyless_multiply_fails_with_the_relin_key_message(tenant):
    """A raw MULTIPLY is ``mul_relin``: without a relinearization key it
    fails like SQUARE does, instead of returning a degree-3 tensor."""
    _keys, _galois, wires = tenant
    server = FheServer(pool_size=1)
    sid = server.open_session("nokeys", serialize_params(PARAMS))
    for backend in ("chip_pool", "software"):
        jid = server.submit(sid, JobKind.MULTIPLY, wires, backend=backend)
        with pytest.raises(RuntimeError, match="no relinearization key"):
            server.result(jid)


def test_zero_rotation_fails_at_execution():
    """A rotation by a multiple of n/2 is a no-op and fails when it runs
    (its one-step circuit keeps a nonzero immediate), never at submit."""
    bfv = Bfv(PARAMS, seed=3)
    keys = bfv.keygen(relin_digit_bits=14)
    ct = serialize_ciphertext(
        bfv.encrypt(BatchEncoder(PARAMS).encode([1]), keys.public)
    )
    server = FheServer(pool_size=1)
    sid = server.open_session("t", serialize_params(PARAMS))
    for steps in (0, 8, 2**15, -(2**33)):
        jid = server.submit(sid, JobKind.ROTATE, (ct,), steps=steps)
        with pytest.raises(RuntimeError, match="no-op"):
            server.result(jid)


def test_lowering_is_memoised_per_kind_and_steps():
    assert raw_op_circuit(JobKind.ROTATE, 5) is raw_op_circuit(JobKind.ROTATE, 5)
    assert raw_op_circuit(JobKind.ADD) is not raw_op_circuit(JobKind.SUB)
