"""Rotation circuit steps served over the wire, checked against the
keyless plaintext ground truth.

:func:`~repro.bfv.rotation.slot_permutation` predicts — from the
encoder's evaluation points alone, no keys and no ciphertexts — exactly
how the automorphism ``x -> x^g`` permutes the batching slots. Every
test here submits rotation *circuit steps* through the serving stack
(wire-encoded payloads, session-registered Galois keys, key-switched
ciphertext math) and asserts the decrypted slots land where the
plaintext reference says they must: row rotations by ±{1, 2, n/4,
n/2−1} across both slot half-rings, the column swap, and their
composition. The chaos scenario kills a fleet worker mid-rotation and
requires the requeued job to finish bit-identical on a survivor after
the Galois keys re-replicate.
"""

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.rotation import RotationEngine, slot_permutation
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import (
    CircuitBuilder,
    OP_ROTATE_COLUMNS,
    OP_ROTATE_ROWS,
    evaluate_circuit,
    rotation_exponent,
)
from repro.service.fleet import route_index
from repro.service.jobs import JobKind
from repro.service.serialization import (
    deserialize_circuit_outputs,
    params_digest,
    serialize_ciphertext,
    serialize_circuit,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

BACKENDS = ("chip_pool", "software")

#: Roomy enough that a chain of key switches still decodes exactly.
PARAMS = BfvParameters.toy_rns(
    n=16, towers=4, tower_bits=28, t=ntt_friendly_prime(16, 20)
)
HALF = PARAMS.n // 2

#: The ISSUE's battery: ±{1, 2, n/4, n/2−1} row amounts.
ROW_AMOUNTS = (1, 2, HALF // 2, HALF - 1, -1, -2, -(HALF // 2), -(HALF - 1))


@pytest.fixture(scope="module")
def stack():
    bfv = Bfv(PARAMS, seed=0x407)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(PARAMS)
    rotor = RotationEngine(bfv, keys.secret)
    return bfv, keys, encoder, rotor


def _galois_wires(rotor, exponents):
    return tuple(
        serialize_galois_key(rotor.galois_key(e), PARAMS)
        for e in sorted(set(exponents))
    )


def _open(server, stack, exponents, tenant="rotor"):
    _bfv, keys, _encoder, rotor = stack
    return server.open_session(
        tenant, serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
        galois_keys=_galois_wires(rotor, exponents),
    )


def _serve_slots(server, sid, stack, circuit, slots, backend=""):
    """Serve one single-input wire circuit; returns decoded output slots."""
    bfv, keys, encoder, _rotor = stack
    ct = bfv.encrypt(encoder.encode(slots), keys.public)
    jid = server.submit(
        sid, JobKind.CIRCUIT, (serialize_ciphertext(ct),),
        payload=serialize_circuit(circuit), backend=backend,
    )
    outs = deserialize_circuit_outputs(server.result(jid), PARAMS)
    return encoder.decode(bfv.decrypt(outs["y"], keys.secret))


def _rotation_circuit(recipe):
    """One input, the given ``(op, steps)`` chain, one output ``y``."""
    builder = CircuitBuilder("rot")
    reg = builder.input("x")
    for op, steps in recipe:
        if op == "rows":
            reg = builder.rotate_rows(reg, steps)
        else:
            reg = builder.rotate_columns(reg)
    builder.output("y", reg)
    return builder.build()


class TestSlotPermutationGroundTruth:
    #: Distinct slot values: the permutation is pinned point-for-point.
    SLOTS = [7 * i + 3 for i in range(PARAMS.n)]

    @pytest.mark.parametrize("amount", ROW_AMOUNTS)
    def test_rotate_rows_matches_reference(self, stack, amount):
        """A served row rotation permutes the slots of *both* half-rings
        exactly as the keyless reference predicts."""
        exponent = rotation_exponent(PARAMS, OP_ROTATE_ROWS, amount)
        perm = slot_permutation(stack[2], exponent)
        server = FheServer(pool_size=2, result_cache_size=0)
        sid = _open(server, stack, [exponent])
        got = _serve_slots(
            server, sid, stack,
            _rotation_circuit([("rows", amount)]), self.SLOTS,
        )
        assert got == [self.SLOTS[perm[i]] for i in range(PARAMS.n)]
        # Both halves really moved: no slot index maps to itself.
        assert all(perm[i] != i for i in range(PARAMS.n))

    def test_rotate_columns_matches_reference_and_is_an_involution(
        self, stack
    ):
        exponent = rotation_exponent(PARAMS, OP_ROTATE_COLUMNS, 0)
        perm = slot_permutation(stack[2], exponent)
        assert all(perm[perm[i]] == i for i in range(PARAMS.n))
        server = FheServer(pool_size=2, result_cache_size=0)
        sid = _open(server, stack, [exponent])
        once = _serve_slots(
            server, sid, stack, _rotation_circuit([("cols", 0)]), self.SLOTS,
        )
        assert once == [self.SLOTS[perm[i]] for i in range(PARAMS.n)]
        twice = _serve_slots(
            server, sid, stack,
            _rotation_circuit([("cols", 0), ("cols", 0)]), self.SLOTS,
        )
        assert twice == self.SLOTS

    def test_composed_rotations_compose_the_permutations(self, stack):
        """rows(3) then columns served in one circuit equals the
        composition of the two reference permutations."""
        encoder = stack[2]
        e_rows = rotation_exponent(PARAMS, OP_ROTATE_ROWS, 3)
        e_cols = rotation_exponent(PARAMS, OP_ROTATE_COLUMNS, 0)
        p_rows = slot_permutation(encoder, e_rows)
        p_cols = slot_permutation(encoder, e_cols)
        server = FheServer(pool_size=2, result_cache_size=0)
        sid = _open(server, stack, [e_rows, e_cols])
        got = _serve_slots(
            server, sid, stack,
            _rotation_circuit([("rows", 3), ("cols", 0)]), self.SLOTS,
        )
        # Step 2 permutes step 1's output: out[i] = mid[p_cols[i]].
        expected = [self.SLOTS[p_rows[p_cols[i]]] for i in range(PARAMS.n)]
        assert got == expected

    def test_rotation_circuit_is_bit_identical_on_every_backend(self, stack):
        exponent = rotation_exponent(PARAMS, OP_ROTATE_ROWS, 2)
        bfv, keys, encoder, _rotor = stack
        circuit = _rotation_circuit([("rows", 2)])
        ct = bfv.encrypt(encoder.encode(self.SLOTS), keys.public)
        server = FheServer(pool_size=2, result_cache_size=0)
        sid = _open(server, stack, [exponent])
        wires = {
            backend: server.result(server.submit(
                sid, JobKind.CIRCUIT, (serialize_ciphertext(ct),),
                payload=serialize_circuit(circuit), backend=backend,
            ))
            for backend in BACKENDS
        }
        assert len(set(wires.values())) == 1


class TestFleetChaosMidRotation:
    def test_worker_killed_mid_rotation_requeues_bit_identical(self, stack):
        """Kill the home worker on its first job — a rotate-and-sum
        circuit — and require: the requeued job completes on the
        survivor bit-identical to local ground truth, and the session's
        Galois keys re-replicate to the successor."""
        bfv, keys, encoder, rotor = stack
        # The packed all-slots reduction: rows 1, 2, 4 then the swap.
        builder = CircuitBuilder("sum-slots")
        acc = builder.input("x")
        step = 1
        while step < HALF:
            acc = builder.add(acc, builder.rotate_rows(acc, step))
            step <<= 1
        acc = builder.add(acc, builder.rotate_columns(acc))
        builder.output("y", acc)
        circuit = builder.build()
        exponents = [
            pow(3, s, 2 * PARAMS.n) for s in (1, 2, 4)
        ] + [2 * PARAMS.n - 1]

        rng = random.Random(53)
        slots = [rng.randrange(50) for _ in range(PARAMS.n)]
        ct = bfv.encrypt(encoder.encode(slots), keys.public)
        reference = evaluate_circuit(
            bfv, keys.relin, circuit, [ct], galois=rotor.galois_key
        )["y"]

        target = route_index(params_digest(PARAMS), 2)
        server = FheServer(
            fleet_size=2, fleet_mode="thread",
            fault_spec=f"kill:worker={target}:job=1",
            fleet_options={"heartbeat_interval": 0.05,
                           "heartbeat_timeout": 10.0},
        )
        with server:
            sid = _open(server, stack, exponents, tenant="chaos")
            jid = server.submit(
                sid, JobKind.CIRCUIT, (serialize_ciphertext(ct),),
                payload=serialize_circuit(circuit),
            )
            outs = deserialize_circuit_outputs(server.result(jid), PARAMS)
            assert serialize_ciphertext(outs["y"]) == serialize_ciphertext(
                reference
            )
            got = encoder.decode(bfv.decrypt(outs["y"], keys.secret))
            assert got == [sum(slots) % PARAMS.t] * PARAMS.n
            rep = server.fleet_report()
            replications = server.metrics.counter(
                "repro_fleet_key_replications_total",
                "Evaluation-key replications to fleet workers",
            ).value
        assert rep["deaths"] == 1, rep
        assert rep["requeues"] >= 1, rep
        # Keys shipped to the doomed worker AND again to the survivor.
        assert replications >= 2, replications
        stats = server.scheduler.stats
        assert stats.jobs_failed == 0
        assert stats.jobs_completed == stats.jobs_submitted
