"""Differential test harness: every backend, pinned to ``Bfv`` ground truth.

For a grid of (parameter set x op x job count), the ChipPool backend at
pool sizes 1/2/4 and the Software backend must all return **bit-identical wire bytes**, and those bytes must decode to the
exact ciphertext the ground-truth :class:`~repro.bfv.scheme.Bfv` engine
produces locally (homomorphic evaluation is deterministic, so equality is
bit-for-bit, not just equal plaintexts — though plaintexts are checked
too). The multi-tower set additionally proves the tower-sharded chip path
agrees with everything else, and the fidelity flags say which path ran.
"""

import random

import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.scheme import _ExactMultiplier
from repro.polymath.rns import RnsBasis
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    deserialize_ciphertext,
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

PARAM_SETS = {
    "single_tower": BfvParameters.toy(n=16, log_q=80),
    "rns3": BfvParameters.toy_rns(n=16, towers=3, tower_bits=20),
    "rns2": BfvParameters.toy_rns(n=32, towers=2, tower_bits=21),
}
POOL_SIZES = (1, 2, 4)
#: Jobs queued per case before the first result is read.
JOB_COUNTS = (2, 3)


@pytest.fixture(scope="module", params=sorted(PARAM_SETS))
def world(request):
    """Ground-truth engine, keys, and fresh-ciphertext factory per params."""
    params = PARAM_SETS[request.param]
    bfv = Bfv(params, seed=1234)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(params)
    rng = random.Random(99)

    def fresh():
        return bfv.encrypt(
            encoder.encode([rng.randrange(32) for _ in range(params.n)]),
            keys.public,
        )

    return params, bfv, keys, encoder, fresh


def _ground_truth(bfv, keys, kind, operands):
    if kind is JobKind.ADD:
        return bfv.add(*operands)
    if kind is JobKind.MULTIPLY:
        return bfv.multiply_relin(operands[0], operands[1], keys.relin)
    if kind is JobKind.SQUARE:
        return bfv.relinearize(bfv.square(operands[0]), keys.relin)
    raise AssertionError(kind)


def _serve(params, keys, backend, pool_size, cases):
    server = FheServer(pool_size=pool_size)
    sid = server.open_session(
        "diff", serialize_params(params),
        relin_key=serialize_relin_key(keys.relin, params),
    )
    jids = [
        server.submit(
            sid, kind,
            tuple(serialize_ciphertext(op) for op in operands),
            backend=backend,
        )
        for kind, operands in cases
    ]
    wires = [server.result(jid) for jid in jids]
    return server, jids, wires


class TestDifferentialGrid:
    @pytest.mark.parametrize("kind", [JobKind.ADD, JobKind.MULTIPLY, JobKind.SQUARE])
    @pytest.mark.parametrize("n_jobs", JOB_COUNTS)
    def test_all_backends_match_ground_truth(self, world, kind, n_jobs):
        params, bfv, keys, encoder, fresh = world
        arity = 2 if kind is not JobKind.SQUARE else 1
        cases = [
            (kind, tuple(fresh() for _ in range(arity))) for _ in range(n_jobs)
        ]
        runs = {}
        for pool in POOL_SIZES:
            _, _, wires = _serve(params, keys, "chip_pool", pool, cases)
            runs[f"chip_pool_x{pool}"] = wires
        _, _, runs["software"] = _serve(params, keys, "software", 1, cases)
        # Bit-identical wire bytes across every backend and pool size.
        reference = runs["chip_pool_x1"]
        for name, wires in runs.items():
            assert wires == reference, f"{name} diverged from chip_pool_x1"
        # And the shared bytes equal local Bfv ground truth, bit-for-bit.
        for (case_kind, operands), wire in zip(cases, reference):
            expected = _ground_truth(bfv, keys, case_kind, operands)
            got = deserialize_ciphertext(wire, params)
            assert [p.coeffs for p in got.polys] == [
                p.coeffs for p in expected.polys
            ]
            assert bfv.decrypt(got, keys.secret) == bfv.decrypt(
                expected, keys.secret
            )


class TestGroundTruthEngineParity:
    """The ground-truth ``Bfv`` engine itself auto-selects the batched RNS
    multiplier; the explicit pure-Python oracle must produce the same bits."""

    @pytest.mark.parametrize("kind", [JobKind.MULTIPLY, JobKind.SQUARE])
    def test_auto_and_pure_scheme_agree(self, world, kind):
        params, bfv, keys, encoder, fresh = world
        assert bfv.multiplier_kind == "RnsExactMultiplier"
        operands = tuple(
            fresh() for _ in range(2 if kind is JobKind.MULTIPLY else 1)
        )
        expected = _ground_truth(bfv, keys, kind, operands)
        pure = Bfv(
            params, seed=1234,
            multiplier=_ExactMultiplier(params.n, params.q),
        )
        assert pure.multiplier_kind == "_ExactMultiplier"
        got = _ground_truth(pure, keys, kind, operands)
        assert [p.coeffs for p in got.polys] == [
            p.coeffs for p in expected.polys
        ]


class TestFidelityFlags:
    def test_multiply_runs_chip_path_on_every_tower(self, world):
        """EvalMult executes tower-by-tower on worker drivers, flagged."""
        params, bfv, keys, encoder, fresh = world
        server, jids, _ = _serve(
            params, keys, "chip_pool", 4,
            [(JobKind.MULTIPLY, (fresh(), fresh()))],
        )
        metrics = server.job_metrics(jids[0])
        towers = params.cofhee_tower_count
        assert metrics.fidelity == "chip"
        assert len(metrics.tower_cycles) == towers
        assert all(c > 0 for c in metrics.tower_cycles)
        assert metrics.relin_fidelity == "engine"
        assert metrics.cycles == sum(metrics.tower_cycles) + metrics.relin_cycles
        # Towers of one multiply really spread across *different* workers.
        assert len(set(metrics.tower_workers)) == towers
        fidelity = server.pool_report()["fidelity"]
        assert fidelity.get("chip") == 1
        assert fidelity.get("relin_engine") == 1

    def test_square_runs_chip_path_too(self, world):
        """SQUARE shards like MULTIPLY: same tensor with a == b."""
        params, bfv, keys, encoder, fresh = world
        server, jids, _ = _serve(
            params, keys, "chip_pool", 4,
            [(JobKind.SQUARE, (fresh(),))],
        )
        metrics = server.job_metrics(jids[0])
        assert metrics.fidelity == "chip"
        assert len(metrics.tower_cycles) == params.cofhee_tower_count
        assert metrics.relin_fidelity == "engine"

    def test_add_is_model_priced(self, world):
        params, bfv, keys, encoder, fresh = world
        server, jids, _ = _serve(
            params, keys, "chip_pool", 2,
            [(JobKind.ADD, (fresh(), fresh()))],
        )
        assert server.job_metrics(jids[0]).fidelity == "model"
        assert server.pool_report()["fidelity"].get("model") == 1


def _non_native_params():
    """A parameter set whose modulus cannot run the chip's negacyclic NTT."""
    q = 999983  # prime, but q-1 is not divisible by 2n = 32
    assert (q - 1) % 32 != 0
    t = 97  # 97 == 1 mod 32, so batching still works
    basis = RnsBasis([q])
    return BfvParameters(n=16, q=q, t=t, cpu_basis=basis, cofhee_basis=basis)


class TestStrictFidelity:
    """Fidelity is reported, not enforced: a chip-native EvalMult says
    ``"chip"``, a non-native one is still served and says ``"model"``."""

    def test_non_native_multiply_flagged_without_strict(self):
        """The old silent fallback is now a recorded model-path flag."""
        params = _non_native_params()
        bfv = Bfv(params, seed=3)
        keys = bfv.keygen(relin_digit_bits=10)
        encoder = BatchEncoder(params)
        ct = bfv.encrypt(encoder.encode([1, 2, 3]), keys.public)
        server = FheServer(pool_size=2)
        sid = server.open_session(
            "lenient", serialize_params(params),
            relin_key=serialize_relin_key(keys.relin, params),
        )
        jid = server.submit(
            sid, JobKind.MULTIPLY,
            (serialize_ciphertext(ct), serialize_ciphertext(ct)),
        )
        server.result(jid)
        metrics = server.job_metrics(jid)
        assert metrics.fidelity == "model"
        # The functional relin still ran through the batched engine fold
        # (the aux-basis multiplier is engine-capable even for a
        # non-chip-native q); only the tensor pricing is modeled.
        assert metrics.relin_fidelity == "engine"
        assert server.pool_report()["fidelity"] == {
            "model": 1, "relin_engine": 1,
        }

    def test_non_native_multiply_flagged_on_the_fleet(self):
        """A fleet worker serves the non-native EvalMult too: ground-truth
        bytes back, ``"model"`` in the metrics the router copies."""
        params = _non_native_params()
        bfv = Bfv(params, seed=3)
        keys = bfv.keygen(relin_digit_bits=10)
        encoder = BatchEncoder(params)
        ct = bfv.encrypt(encoder.encode([1, 2, 3]), keys.public)
        expected = serialize_ciphertext(bfv.multiply_relin(ct, ct, keys.relin))
        with FheServer(fleet_size=1, fleet_mode="thread") as server:
            sid = server.open_session(
                "lenient", serialize_params(params),
                relin_key=serialize_relin_key(keys.relin, params),
            )
            jid = server.submit(
                sid, JobKind.MULTIPLY,
                (serialize_ciphertext(ct), serialize_ciphertext(ct)),
            )
            assert server.result(jid) == expected
            metrics = server.job_metrics(jid)
        assert metrics.backend.startswith("fleet")
        assert metrics.fidelity == "model"

    def test_strict_passes_on_native_towers(self):
        params = PARAM_SETS["rns3"]
        bfv = Bfv(params, seed=5)
        keys = bfv.keygen(relin_digit_bits=14)
        encoder = BatchEncoder(params)
        ct = bfv.encrypt(encoder.encode([4, 5]), keys.public)
        server = FheServer(pool_size=4)
        sid = server.open_session(
            "strict-ok", serialize_params(params),
            relin_key=serialize_relin_key(keys.relin, params),
        )
        jid = server.submit(
            sid, JobKind.MULTIPLY,
            (serialize_ciphertext(ct), serialize_ciphertext(ct)),
        )
        server.result(jid)
        assert server.job_metrics(jid).fidelity == "chip"
