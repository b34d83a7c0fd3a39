"""Acceptance: the paper's applications served over localhost TCP.

``MiniLogisticRegression`` and ``MiniCryptoNets`` inference submitted
through :meth:`AsyncFheClient.submit_circuit` / the sync facade must
return results bit-identical to in-process execution on **every**
backend, with the completion event pushed exactly once, and the circuit
path must compose with in-queue dedupe across connections.
"""

import asyncio
import random

import pytest

from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.bfv.params import BfvParameters
from repro.polymath.primes import ntt_friendly_prime
from repro.service.client import AsyncFheClient, FheClient, JobFailedError
from repro.service.jobs import JobKind
from repro.service.serialization import (
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.transport import FheTransportServer, ThreadedTransportServer

BACKENDS = ("chip_pool", "software")

LOGREG_PARAMS = BfvParameters.toy_rns(
    n=16, towers=5, tower_bits=28, t=ntt_friendly_prime(16, 21)
)
CRYPTONETS_PARAMS = BfvParameters.toy_rns(
    n=16, towers=4, tower_bits=30, t=ntt_friendly_prime(16, 20)
)


@pytest.fixture(scope="module")
def logreg():
    rng = random.Random(41)
    model = MiniLogisticRegression(params=LOGREG_PARAMS, num_features=4, seed=11)
    samples = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
    circuit = model.to_circuit(batch=len(samples))
    inputs = tuple(
        serialize_ciphertext(ct) for ct in model.encrypt_features(samples)
    )
    return model, samples, circuit, inputs


@pytest.fixture(scope="module")
def cryptonets():
    rng = random.Random(42)
    model = MiniCryptoNets(params=CRYPTONETS_PARAMS, seed=7)
    images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(2)]
    circuit = model.to_circuit()
    inputs = tuple(
        serialize_ciphertext(ct) for ct in model.encrypt_images(images)
    )
    return model, images, circuit, inputs


def _in_process_wire(model, circuit, inputs, backend: str) -> bytes:
    """Ground truth: the same submission through the in-process server."""
    server = FheServer(pool_size=3, result_cache_size=0)
    sid = server.open_session(
        "truth",
        serialize_params(model.params),
        relin_key=serialize_relin_key(model.keys.relin, model.params),
    )
    return server.result(server.submit(
        sid, JobKind.CIRCUIT, inputs, payload=circuit, backend=backend
    ))


class TestSyncFacade:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_logreg_bit_identical_per_backend(self, logreg, backend):
        model, samples, circuit, inputs = logreg
        expected = _in_process_wire(model, circuit, inputs, backend)
        events = []
        with ThreadedTransportServer(FheServer(pool_size=3)) as ts:
            with FheClient(ts.host, ts.port) as client:
                sid = client.open_session(
                    "acme", serialize_params(model.params),
                    relin_key=serialize_relin_key(
                        model.keys.relin, model.params
                    ),
                )
                jid = client.submit_circuit(
                    sid, circuit, inputs, backend=backend,
                    on_done=lambda event: events.append(event.status),
                )
                payload = client.result(jid)
                assert client.events_received(jid) == 1
        assert payload == expected
        assert events == ["done"]
        outs = deserialize_circuit_outputs(payload, model.params)
        assert model.predictions_from_score(
            outs["score"], len(samples)
        ) == model.predict_plain(samples)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cryptonets_bit_identical_per_backend(self, cryptonets, backend):
        model, images, circuit, inputs = cryptonets
        expected = _in_process_wire(model, circuit, inputs, backend)
        with ThreadedTransportServer(FheServer(pool_size=4)) as ts:
            with FheClient(ts.host, ts.port) as client:
                sid = client.open_session(
                    "globex", serialize_params(model.params),
                    relin_key=serialize_relin_key(
                        model.keys.relin, model.params
                    ),
                )
                payload = client.result(client.submit_circuit(
                    sid, circuit, inputs, backend=backend
                ))
        assert payload == expected
        outs = deserialize_circuit_outputs(payload, model.params)
        scores = model.scores_from_outputs(outs, len(images))
        assert scores == model.infer_plain(images)

    @staticmethod
    def _assert_chip_fidelity_over_the_wire(model, circuit, inputs):
        with ThreadedTransportServer(FheServer(pool_size=4)) as ts:
            with FheClient(ts.host, ts.port) as client:
                sid = client.open_session(
                    "globex", serialize_params(model.params),
                    relin_key=serialize_relin_key(
                        model.keys.relin, model.params
                    ),
                )
                client.result(client.submit_circuit(sid, circuit, inputs))
            report = ts.fhe.pool_report()
        assert report["fidelity"].get("chip") == 1
        assert len(report["tower_cycles"]) == model.params.cofhee_tower_count
        assert all(c > 0 for c in report["tower_cycles"])

    def test_chip_fidelity_over_the_wire(self, cryptonets):
        model, _images, circuit, inputs = cryptonets
        self._assert_chip_fidelity_over_the_wire(model, circuit, inputs)

    def test_logreg_chip_fidelity_over_the_wire(self, logreg):
        model, _samples, circuit, inputs = logreg
        self._assert_chip_fidelity_over_the_wire(model, circuit, inputs)


class TestAsyncClient:
    def test_two_clients_dedupe_one_execution(self, logreg):
        """Identical circuits from different connections share one run."""
        model, _samples, circuit, inputs = logreg

        async def scenario():
            server = FheTransportServer(FheServer(pool_size=2))
            await server.start()
            try:
                server.pause_execution()  # land both in the dedupe window
                async with await AsyncFheClient.connect(*server.address) as c1:
                    async with await AsyncFheClient.connect(
                        *server.address
                    ) as c2:
                        kwargs = dict(
                            relin_key=serialize_relin_key(
                                model.keys.relin, model.params
                            ),
                        )
                        s1 = await c1.open_session(
                            "acme", serialize_params(model.params), **kwargs
                        )
                        s2 = await c2.open_session(
                            "acme", serialize_params(model.params), **kwargs
                        )
                        j1 = await c1.submit_circuit(s1, circuit, inputs)
                        j2 = await c2.submit_circuit(s2, circuit, inputs)
                        server.resume_execution()
                        r1, r2 = await asyncio.gather(
                            c1.result(j1), c2.result(j2)
                        )
                report = server.fhe.pool_report()["result_cache"]
                return r1, r2, report
            finally:
                await server.aclose()

        r1, r2, report = asyncio.run(scenario())
        assert r1 == r2
        assert report["dedupe_hits"] == 1

    def test_failed_circuit_raises_job_failed(self, logreg):
        """A circuit that needs a relin key fails cleanly over the wire."""
        model, _samples, circuit, inputs = logreg

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=2)) as server:
                async with await AsyncFheClient.connect(
                    *server.address
                ) as client:
                    sid = await client.open_session(
                        "acme", serialize_params(model.params)  # no keys
                    )
                    jid = await client.submit_circuit(sid, circuit, inputs)
                    with pytest.raises(JobFailedError, match="relinearization"):
                        await client.result(jid)
            return True

        assert asyncio.run(scenario())

    def test_malformed_circuit_earns_an_error_reply(self, logreg):
        """Garbage circuit bytes fail the request, not the connection."""
        model, _samples, circuit, inputs = logreg
        from repro.service.client import TransportError
        from repro.service.serialization import serialize_circuit

        async def scenario():
            async with FheTransportServer(FheServer(pool_size=1)) as server:
                async with await AsyncFheClient.connect(
                    *server.address
                ) as client:
                    sid = await client.open_session(
                        "acme", serialize_params(model.params),
                        relin_key=serialize_relin_key(
                            model.keys.relin, model.params
                        ),
                    )
                    bad = bytearray(serialize_circuit(circuit))
                    bad[10] ^= 0xFF
                    with pytest.raises(TransportError):
                        await client.submit_circuit(sid, bytes(bad), inputs)
                    # The connection survives: a good submit still works.
                    jid = await client.submit_circuit(sid, circuit, inputs)
                    return await client.result(jid)

        assert asyncio.run(scenario())
