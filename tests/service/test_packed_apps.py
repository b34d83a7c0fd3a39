"""Packed (rotate-and-sum) app lowerings served end to end.

The rotation op set exists so the apps can pack a whole sample into one
ciphertext and compile dense layers as rotate-and-sum dot products.
These tests pin that path: ``MiniLogisticRegression.to_circuit(packed=
True)`` and ``MiniCryptoNets.to_circuit(packed_dense=True)`` served
through ``FheServer`` with session Galois keys must decode to the
plaintext model's answers and stay bit-identical to in-process
``evaluate_circuit`` execution.
"""

import random

from repro.bfv import BfvParameters
from repro.bfv.rotation import RotationEngine
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import (
    OP_ROTATE_COLUMNS,
    OP_ROTATE_ROWS,
    evaluate_circuit,
)
from repro.service.jobs import JobKind
from repro.service.serialization import (
    deserialize_ciphertext,
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_circuit,
    serialize_circuit_outputs,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer


def _rotation_count(circuit) -> int:
    return sum(
        1 for s in circuit.steps
        if s.op in (OP_ROTATE_ROWS, OP_ROTATE_COLUMNS)
    )


def _serve_packed(model, rotor, circuit, inputs) -> bytes:
    """One packed-circuit round trip through the serving stack."""
    server = FheServer(pool_size=2)
    sid = server.open_session(
        "packed", serialize_params(model.params),
        relin_key=serialize_relin_key(model.keys.relin, model.params),
        galois_keys=tuple(
            serialize_galois_key(rotor.galois_key(e), model.params)
            for e in model.packed_galois_exponents()
        ),
    )
    return server.result(server.submit(
        sid, JobKind.CIRCUIT, inputs, payload=serialize_circuit(circuit)
    ))


def _reference_payload(model, rotor, circuit, inputs) -> bytes:
    """In-process ``evaluate_circuit`` ground truth for the same job.

    The same ``rotor`` that supplied the session's keys: Galois keys are
    randomized, so a fresh engine would key-switch with different noise
    and break the byte comparison.
    """
    outs = evaluate_circuit(
        model.bfv, model.keys.relin, circuit,
        [deserialize_ciphertext(op, model.params) for op in inputs],
        galois=rotor.galois_key,
    )
    return serialize_circuit_outputs(outs)


class TestPackedLogreg:
    def test_served_predictions_match_plaintext_model(self):
        from repro.apps.logreg import MiniLogisticRegression

        params = BfvParameters.toy_rns(
            n=16, towers=7, tower_bits=28, t=ntt_friendly_prime(16, 21)
        )
        model = MiniLogisticRegression(
            params=params, num_features=6, seed=5
        )
        rng = random.Random(99)
        samples = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)]
        circuit = model.to_circuit(batch=len(samples), packed=True)
        # One ciphertext per *sample* (not per feature), reduced with
        # log2(n/2) row rotations plus the column swap per sample.
        assert len(circuit.inputs) == len(samples)
        assert _rotation_count(circuit) == 4 * len(samples)
        inputs = tuple(
            serialize_ciphertext(ct)
            for ct in model.encrypt_packed(samples)
        )

        rotor = RotationEngine(model.bfv, model.keys.secret)
        payload = _serve_packed(model, rotor, circuit, inputs)
        assert payload == _reference_payload(model, rotor, circuit, inputs), (
            "served packed logreg diverged from in-process execution"
        )
        got = model.predictions_from_packed(
            deserialize_circuit_outputs(payload, params), len(samples)
        )
        assert got == model.predict_plain(samples)


class TestPackedCryptoNets:
    def test_served_scores_match_plaintext_model(self):
        from repro.apps.cryptonets import MiniCryptoNets

        params = BfvParameters.toy_rns(
            n=16, towers=7, tower_bits=28, t=ntt_friendly_prime(16, 20)
        )
        cnn = MiniCryptoNets(params=params, seed=7)
        rng = random.Random(41)
        image = [rng.randint(-2, 2) for _ in range(36)]
        circuit = cnn.to_circuit(packed_dense=True)
        # The masked transpose + per-row reductions rotate heavily; the
        # eager lowering never rotates at all.
        assert _rotation_count(circuit) > 0
        assert _rotation_count(cnn.to_circuit()) == 0
        inputs = tuple(
            serialize_ciphertext(ct)
            for ct in cnn.encrypt_images([image])
        )

        rotor = RotationEngine(cnn.bfv, cnn.keys.secret)
        payload = _serve_packed(cnn, rotor, circuit, inputs)
        assert payload == _reference_payload(cnn, rotor, circuit, inputs), (
            "served packed CryptoNets diverged from in-process execution"
        )
        scores = cnn.scores_from_outputs(
            deserialize_circuit_outputs(payload, params), 1
        )
        assert scores == cnn.infer_plain([image])
