"""App-circuit jobs through the in-process serving stack.

The compiled Section VI-C applications must return bit-identical
ciphertexts on every backend (and match both the shared evaluator and
the apps' plaintext references), the chip pool must execute every tensor
step tower-sharded across different workers with dependency levels
respected, and the content-addressed machinery (result cache + in-queue
dedupe, including failure fan-out) must treat circuits like any other
cacheable job.
"""

import random

import pytest

from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.bfv.params import BfvParameters
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import CircuitBuilder, evaluate_circuit
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_circuit,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

BACKENDS = ("chip_pool", "software")

#: Chip-native multi-tower parameter sets with enough noise headroom for
#: the apps' two-multiplication depth.
LOGREG_PARAMS = BfvParameters.toy_rns(
    n=16, towers=5, tower_bits=28, t=ntt_friendly_prime(16, 21)
)
CRYPTONETS_PARAMS = BfvParameters.toy_rns(
    n=16, towers=4, tower_bits=30, t=ntt_friendly_prime(16, 20)
)


@pytest.fixture(scope="module")
def logreg():
    rng = random.Random(31)
    model = MiniLogisticRegression(params=LOGREG_PARAMS, num_features=5, seed=11)
    samples = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
    circuit = model.to_circuit(batch=len(samples))
    inputs = model.encrypt_features(samples)
    return model, samples, circuit, inputs


@pytest.fixture(scope="module")
def cryptonets():
    rng = random.Random(32)
    model = MiniCryptoNets(params=CRYPTONETS_PARAMS, seed=7)
    images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(3)]
    circuit = model.to_circuit()
    inputs = model.encrypt_images(images)
    return model, images, circuit, inputs


def _open(server, model):
    return server.open_session(
        "tenant",
        serialize_params(model.params),
        relin_key=serialize_relin_key(model.keys.relin, model.params),
    )


def _submit(server, sid, circuit, inputs, backend=""):
    return server.submit(
        sid, JobKind.CIRCUIT,
        tuple(serialize_ciphertext(ct) for ct in inputs),
        payload=circuit, backend=backend,
    )


class TestBackendsBitIdentical:
    def test_logreg_all_backends(self, logreg):
        model, samples, circuit, inputs = logreg
        reference = evaluate_circuit(
            model.bfv, model.keys.relin, circuit, inputs
        )
        server = FheServer(pool_size=3, result_cache_size=0)
        sid = _open(server, model)
        wires = {
            backend: server.result(_submit(server, sid, circuit, inputs, backend))
            for backend in BACKENDS
        }
        assert wires["chip_pool"] == wires["software"]
        outs = deserialize_circuit_outputs(wires["chip_pool"], model.params)
        assert serialize_ciphertext(outs["score"]) == serialize_ciphertext(
            reference["score"]
        )
        predictions = model.predictions_from_score(outs["score"], len(samples))
        assert predictions == model.predict_plain(samples)

    def test_cryptonets_all_backends(self, cryptonets):
        model, images, circuit, inputs = cryptonets
        reference = evaluate_circuit(
            model.bfv, model.keys.relin, circuit, inputs
        )
        server = FheServer(pool_size=4, result_cache_size=0)
        sid = _open(server, model)
        wires = {
            backend: server.result(_submit(server, sid, circuit, inputs, backend))
            for backend in BACKENDS
        }
        assert len(set(wires.values())) == 1
        outs = deserialize_circuit_outputs(wires["chip_pool"], model.params)
        for name, ct in reference.items():
            assert serialize_ciphertext(outs[name]) == serialize_ciphertext(ct)
        scores = model.scores_from_outputs(outs, len(images))
        assert scores == model.infer_plain(images)
        assert model.classify(scores) == model.classify(
            model.infer_plain(images)
        )


class TestChipExpansion:
    def test_tower_sharded_chip_fidelity(self, cryptonets):
        """Every tensor step runs on-chip, fanned across the pool."""
        model, _images, circuit, inputs = cryptonets
        server = FheServer(pool_size=4)
        sid = _open(server, model)
        jid = _submit(server, sid, circuit, inputs)
        server.result(jid)
        metrics = server.job_metrics(jid)
        assert metrics.fidelity == "chip"
        assert metrics.relin_fidelity == "engine"
        towers = model.params.cofhee_tower_count
        assert len(metrics.tower_cycles) == towers
        assert all(c > 0 for c in metrics.tower_cycles)
        # 12 tensors x 4 towers spread across all 4 workers.
        assert len(metrics.tower_workers) == 4
        assert metrics.relin_cycles > 0
        report = server.pool_report()
        assert report["fidelity"].get("chip") == 1
        assert len(report["tower_cycles"]) == towers

    def test_non_native_circuit_takes_model_path(self):
        model_wide = MiniLogisticRegression(num_features=3, seed=5)
        samples = [[1, -1, 2]]
        circuit = model_wide.to_circuit(batch=1)
        inputs = model_wide.encrypt_features(samples)
        server = FheServer(pool_size=2)
        sid = _open(server, model_wide)
        jid = _submit(server, sid, circuit, inputs)
        outs = deserialize_circuit_outputs(
            server.result(jid), model_wide.params
        )
        assert server.job_metrics(jid).fidelity == "model"
        reference = evaluate_circuit(
            model_wide.bfv, model_wide.keys.relin, circuit, inputs
        )
        assert serialize_ciphertext(outs["score"]) == serialize_ciphertext(
            reference["score"]
        )


class TestTensorLevelsDiamond:
    """Regression: a diamond-shaped tensor DAG serves bit-identically.

    Two depth-0 tensors joined by one consumer, a bare tensor behind a
    deferred relinearization, and a square after the key switch: the
    shape where a replay that ordered tensors by its own dependency walk
    could run the join before its operands. The chip pool replays the
    tensors in evaluation order, so it must agree with the evaluator.
    """

    @staticmethod
    def _diamond():
        builder = CircuitBuilder("diamond")
        x = builder.input("x")
        left = builder.square_relin(x)  # step 0: level 0
        right = builder.mul_relin(x, x)  # step 1: level 0
        l_lin = builder.add(left, x)  # linear: passes depth through
        r_lin = builder.mul_const(right, builder.scalar(2))
        join = builder.mul_relin(l_lin, r_lin)  # step 4: level 1
        bare = builder.mul(join, left)  # step 5: level 2 (degree 3)
        relin = builder.relinearize(bare)  # key switch: depth unchanged
        top = builder.square_relin(relin)  # step 7: level 3
        builder.output("y", top)
        return builder.build()

    def test_diamond_serves_bit_identical_on_chip_and_software(self):
        """The end-to-end symptom of divergent level walks: the chip
        expansion would schedule the join before its operands and
        diverge from the evaluator. Both paths must agree byte-wise."""
        params = BfvParameters.toy_rns(
            n=16, towers=5, tower_bits=28, t=ntt_friendly_prime(16, 21)
        )
        from repro.bfv import BatchEncoder, Bfv

        bfv = Bfv(params, seed=8)
        keys = bfv.keygen(relin_digit_bits=14)
        encoder = BatchEncoder(params)
        circuit = self._diamond()
        ct = bfv.encrypt(encoder.encode([1, -1] * 8), keys.public)
        server = FheServer(pool_size=3, result_cache_size=0)
        sid = server.open_session(
            "diamond", serialize_params(params),
            relin_key=serialize_relin_key(keys.relin, params),
        )
        wires = {
            backend: server.result(server.submit(
                sid, JobKind.CIRCUIT, (serialize_ciphertext(ct),),
                payload=circuit, backend=backend,
            ))
            for backend in ("chip_pool", "software")
        }
        assert wires["chip_pool"] == wires["software"]
        reference = evaluate_circuit(bfv, keys.relin, circuit, [ct])
        outs = deserialize_circuit_outputs(wires["chip_pool"], params)
        assert serialize_ciphertext(outs["y"]) == serialize_ciphertext(
            reference["y"]
        )


class TestCacheAndDedupe:
    def test_identical_circuit_hits_cache(self, logreg):
        model, _samples, circuit, inputs = logreg
        server = FheServer(pool_size=2)
        sid = _open(server, model)
        first = _submit(server, sid, circuit, inputs)
        wire_first = server.result(first)
        second = _submit(server, sid, circuit, inputs)
        assert server.status(second) is JobStatus.DONE
        assert server.result(second) == wire_first
        assert server.job_metrics(second).backend == "cache"
        report = server.pool_report()["result_cache"]
        assert report["hits"] == 1 and report["misses"] == 1

    def test_different_circuits_never_share_an_address(self, logreg):
        model, samples, circuit, inputs = logreg
        other = model.to_circuit(batch=len(samples), use_sigmoid=False)
        server = FheServer(pool_size=2)
        sid = _open(server, model)
        server.result(_submit(server, sid, circuit, inputs))
        jid = _submit(server, sid, other, inputs)
        assert server.status(jid) is JobStatus.QUEUED  # miss, not a hit
        assert server.result(jid) != server.result(
            _submit(server, sid, circuit, inputs)
        )

    def test_dedupe_shares_one_execution(self, logreg):
        model, _samples, circuit, inputs = logreg
        server = FheServer(pool_size=2)
        sid = _open(server, model)
        primary = _submit(server, sid, circuit, inputs)
        follower = _submit(server, sid, circuit, inputs)
        assert server.job_metrics(follower).backend == "dedupe"
        assert server.job_metrics(follower).dedupe_of == primary
        stats = server.run()
        assert stats.dedupe_hits == 1
        assert server.result(primary) == server.result(follower)
        # Only the primary executed.
        assert sum(b.jobs for b in stats.batches) == 1

    def test_failure_fans_out_to_dedupe_followers(self, logreg):
        """One failing step fails the primary AND every attached follower."""
        model, _samples, circuit, inputs = logreg
        server = FheServer(pool_size=2)
        # No relin key uploaded: the first tensor step must fail.
        sid = server.open_session("acme", serialize_params(model.params))
        primary = _submit(server, sid, circuit, inputs)
        followers = [_submit(server, sid, circuit, inputs) for _ in range(2)]
        for f in followers:
            assert server.job_metrics(f).backend == "dedupe"
        stats = server.run()
        assert server.status(primary) is JobStatus.FAILED
        assert "relinearization key" in server.job_error(primary)
        for f in followers:
            assert server.status(f) is JobStatus.FAILED
            assert server.job_error(f) == server.job_error(primary)
        assert stats.jobs_failed == 3
        # A retry after the failure re-executes (failures are never cached).
        retry = _submit(server, sid, circuit, inputs)
        assert server.status(retry) is JobStatus.QUEUED


class TestLinearCircuit:
    def test_relin_free_circuit_without_relin_key(self):
        """A purely linear circuit needs no evaluation keys at all."""
        params = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)
        from repro.bfv import BatchEncoder, Bfv

        bfv = Bfv(params, seed=3)
        keys = bfv.keygen(relin_digit_bits=12)
        encoder = BatchEncoder(params)
        a = bfv.encrypt(encoder.encode(list(range(16))), keys.public)
        b_ct = bfv.encrypt(encoder.encode([2] * 16), keys.public)

        builder = CircuitBuilder("affine")
        x = builder.input("x")
        y = builder.input("y")
        two_x = builder.mul_const(x, builder.scalar(2))
        s = builder.add(two_x, y)
        out = builder.add_const(s, builder.plain(encoder.encode([7] * 16).coeffs))
        builder.output("z", out)
        circuit = builder.build()
        assert not circuit.uses_relin

        server = FheServer(pool_size=2)
        sid = server.open_session("lin", serialize_params(params))
        jid = server.submit(
            sid, "circuit",
            (serialize_ciphertext(a), serialize_ciphertext(b_ct)),
            payload=serialize_circuit(circuit),  # wire payload path
        )
        outs = deserialize_circuit_outputs(server.result(jid), params)
        got = encoder.decode(bfv.decrypt(outs["z"], keys.secret))
        assert got == [(2 * i + 2 + 7) % params.t for i in range(16)]
        # No tensor steps -> the whole circuit is model-priced.
        assert server.job_metrics(jid).fidelity == "model"
