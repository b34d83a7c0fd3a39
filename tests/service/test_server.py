"""Front-door API: submit/poll/result over wire bytes, both backends."""

import random

import pytest

from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    ParamsMismatchError,
    deserialize_ciphertext,
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_public_key,
    serialize_relin_key,
)
from repro.service.server import FheServer, TenantQuota

PARAMS = BfvParameters.toy(n=16, log_q=80)


@pytest.fixture(scope="module")
def client():
    bfv = Bfv(PARAMS, seed=77)
    keys = bfv.keygen(relin_digit_bits=12)
    encoder = BatchEncoder(PARAMS)
    rotor = RotationEngine(bfv, keys.secret, digit_bits=12)
    return bfv, keys, encoder, rotor


@pytest.fixture
def server():
    return FheServer(pool_size=2)


def _open(server, client):
    bfv, keys, encoder, rotor = client
    return server.open_session(
        "acme",
        serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
        galois_keys=(
            serialize_galois_key(rotor.galois_key(pow(3, 1, 2 * PARAMS.n)), PARAMS),
        ),
    )


def _encrypt(client, values):
    bfv, keys, encoder, _ = client
    return bfv.encrypt(encoder.encode(values), keys.public)


class TestSubmitPollResult:
    def test_multiply_over_wire(self, server, client):
        bfv, keys, encoder, _ = client
        sid = _open(server, client)
        a, b = [3, 1, 4, 1, 5], [2, 7, 1, 8, 2]
        ja = _encrypt(client, a)
        jb = _encrypt(client, b)
        jid = server.submit(
            sid, JobKind.MULTIPLY,
            (serialize_ciphertext(ja), serialize_ciphertext(jb)),
        )
        assert server.poll(jid) in (JobStatus.QUEUED, JobStatus.DONE)
        wire = server.result(jid)
        assert isinstance(wire, bytes)
        result = deserialize_ciphertext(wire, PARAMS)
        slots = encoder.decode(bfv.decrypt(result, keys.secret))
        assert slots[:5] == [(x * y) % PARAMS.t for x, y in zip(a, b)]
        assert server.poll(jid) is JobStatus.DONE

    def test_rotate_matches_client_side(self, server, client):
        bfv, keys, encoder, rotor = client
        sid = _open(server, client)
        ct = _encrypt(client, list(range(PARAMS.n)))
        jid = server.submit(sid, JobKind.ROTATE,
                            (serialize_ciphertext(ct),), steps=1)
        result = deserialize_ciphertext(server.result(jid), PARAMS)
        local = rotor.rotate_rows(ct, 1)
        assert bfv.decrypt(result, keys.secret) == bfv.decrypt(local, keys.secret)

    def test_string_kind_accepted(self, server, client):
        sid = _open(server, client)
        ct = _encrypt(client, [1, 2])
        jid = server.submit(sid, "add", (ct, ct))
        assert deserialize_ciphertext(server.result(jid), PARAMS).size == 2

    def test_failed_job_raises_with_cause(self, server, client):
        sid = server.open_session("nokeys", serialize_params(PARAMS))
        ct = _encrypt(client, [1])
        jid = server.submit(sid, JobKind.SQUARE, (ct,))
        with pytest.raises(RuntimeError, match="relinearization key"):
            server.result(jid)

    def test_unknown_job(self, server):
        with pytest.raises(KeyError):
            server.poll("j99999")


class TestOpenSession:
    def test_public_key_under_other_params_is_refused(self, server, client):
        """A public key under another parameter digest is refused before
        any session state is built; one under the session's own digest
        is accepted."""
        _bfv, keys, _, _ = client
        other = BfvParameters.toy(n=32, log_q=80)
        foreign = Bfv(other, seed=1).keygen(relin_digit_bits=None).public
        with pytest.raises(ParamsMismatchError):
            server.open_session(
                "acme", serialize_params(PARAMS),
                public_key=serialize_public_key(foreign, other),
            )
        assert server.registry.cached_digests == []
        sid = server.open_session(
            "acme", serialize_params(PARAMS),
            public_key=serialize_public_key(keys.public, PARAMS),
        )
        session = server.registry.get(sid)
        assert session.relin is None and session.galois == {}


class TestBackendAgreement:
    def test_all_backends_bit_identical(self, server, client):
        """chip_pool and software return the same wire bytes."""
        bfv, keys, encoder, _ = client
        sid = _open(server, client)
        rng = random.Random(4)
        a = _encrypt(client, [rng.randrange(32) for _ in range(PARAMS.n)])
        b = _encrypt(client, [rng.randrange(32) for _ in range(PARAMS.n)])
        operands = (serialize_ciphertext(a), serialize_ciphertext(b))
        results = {}
        for backend in ("chip_pool", "software"):
            jid = server.submit(sid, JobKind.MULTIPLY, operands, backend=backend)
            results[backend] = server.result(jid)
        assert results["chip_pool"] == results["software"]
        # And the shared result matches local Bfv ground truth.
        expected = bfv.multiply_relin(a, b, keys.relin)
        got = deserialize_ciphertext(results["chip_pool"], PARAMS)
        assert bfv.decrypt(got, keys.secret) == bfv.decrypt(expected, keys.secret)


def _serve_app(server, model, circuit, inputs):
    """Open the app tenant's session and submit its compiled circuit."""
    sid = server.open_session(
        "apps", serialize_params(model.params),
        relin_key=serialize_relin_key(model.keys.relin, model.params),
    )
    return server.submit(
        sid, JobKind.CIRCUIT,
        tuple(serialize_ciphertext(ct) for ct in inputs), payload=circuit,
    )


class TestAppJobs:
    """The Section VI-C apps are served as their compiled circuits."""

    def test_logreg_job(self, server):
        model = MiniLogisticRegression(num_features=6, seed=11)
        samples = [[1, -2, 3, 0, 1, 2], [0, 1, -1, 2, -2, 1]]
        jid = _serve_app(server, model, model.to_circuit(batch=len(samples)),
                         model.encrypt_features(samples))
        outs = deserialize_circuit_outputs(server.result(jid), model.params)
        predictions = model.predictions_from_score(outs["score"], len(samples))
        assert predictions == model.predict_plain(samples)

    def test_cryptonets_job(self, server):
        model = MiniCryptoNets(seed=7)
        rng = random.Random(2)
        images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(2)]
        jid = _serve_app(server, model, model.to_circuit(),
                         model.encrypt_images(images))
        outs = deserialize_circuit_outputs(server.result(jid), model.params)
        scores = model.scores_from_outputs(outs, len(images))
        assert scores == model.infer_plain(images)
        assert len(model.classify(scores)) == len(images)

    def test_app_job_metrics_priced(self, server):
        """App circuits report modeled chip cycles from their op mix."""
        model = MiniLogisticRegression(num_features=3, seed=11)
        samples = [[1, 0, -1]]
        jid = _serve_app(server, model, model.to_circuit(batch=1),
                         model.encrypt_features(samples))
        server.result(jid)
        metrics = server.job_metrics(jid)
        assert metrics.cycles > 0
        assert metrics.backend.startswith("chip_pool")


class TestThroughputReporting:
    def test_rows_cover_used_backends(self, server, client):
        """The execute-seconds histogram has one row per backend that
        ran jobs, counting that backend's jobs and their measured time."""
        sid = _open(server, client)
        ct = _encrypt(client, [5])
        jids = {
            backend: [
                server.submit(sid, JobKind.ADD, (ct, _encrypt(client, [v])),
                              backend=backend)
                for v in range(count)
            ]
            for backend, count in (("chip_pool", 2), ("software", 1))
        }
        server.run()
        rows = server.stats_snapshot()["repro_job_execute_seconds"]
        for backend, ids in jids.items():
            label = server.job_metrics(ids[0]).backend
            assert label.startswith(backend)
            row = next(v for k, v in rows.items() if f'"{label}"' in k)
            assert row["count"] == len(ids)
            assert row["sum"] == pytest.approx(
                sum(server.job_metrics(j).host_seconds for j in ids))
            assert row["sum"] > 0


class TestTenantQuota:
    @pytest.mark.parametrize("kwargs", [
        {"rate": -50.0, "burst": 2},  # admits once, then rejects forever
        {"rate": float("nan"), "burst": 2},  # silently no limit
        {"rate": float("inf"), "burst": 2},
        {"max_inflight": -3},  # silently no cap
        {"burst": -1},
    ])
    def test_out_of_range_quotas_are_rejected(self, kwargs):
        with pytest.raises(ValueError, match="quota"):
            TenantQuota(**kwargs)

