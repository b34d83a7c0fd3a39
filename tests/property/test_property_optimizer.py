"""Differential battery for the server-side circuit optimizer.

Random circuits over the full op set (adds, constants, eager and bare
tensors, explicit relinearization, both rotations) are generated with
the same static discipline :func:`validate_circuit` enforces — tensor
and rotation operands degree 2, outputs degree 2, rotation immediates
nonzero — plus a multiplicative-depth cap so the lazy-level plaintext
comparison stays inside the noise budget.

Three guarantees are pinned differentially:

* ``exact`` (the server default) is **byte-exact**: the optimized
  circuit's served result is bit-identical to the unoptimized one on
  every backend, so caching/dedupe/bit-identity invariants survive
  optimization.
* ``lazy`` restructures key switches: served results are bit-identical
  *across* backends and decrypt to the same plaintexts as the
  unoptimized execution (but may differ from it byte-wise).
* The pass pipeline is a **fixed point**: optimizing an optimized
  circuit changes nothing and reports zero eliminations, and the
  rewrite report's eliminated counts reconcile with the step deltas.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.rotation import RotationEngine
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import CircuitBuilder
from repro.service.jobs import JobKind
from repro.service.optimizer import (
    LEVEL_EXACT,
    LEVEL_LAZY,
    LEVELS,
    optimize_circuit,
)
from repro.service.serialization import (
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

BACKENDS = ("chip_pool", "software")

#: Roomy modulus (168 bits): the depth-capped random circuits decrypt
#: exactly even after lazy relinearization reorders the noise growth.
PARAMS = BfvParameters.toy_rns(
    n=16, towers=6, tower_bits=28, t=ntt_friendly_prime(16, 20)
)

_ENCODER = BatchEncoder(PARAMS)

#: Packed plaintext constants the strategy draws from (slot-encoded
#: small values, so coefficients are valid mod t).
PLAIN_POOL = tuple(
    tuple(_ENCODER.encode(slots).coeffs)
    for slots in (
        [0] * PARAMS.n,
        [1] * PARAMS.n,
        [2, -1] * (PARAMS.n // 2),
        list(range(PARAMS.n)),
    )
)

#: Scalars include 0 and 1 so constant folding has something to do.
SCALAR_POOL = (-3, -2, -1, 0, 1, 2, 3)

#: Valid nonzero row-rotation amounts for n = 16 (|steps| < n/2 keeps
#: ``steps % (n/2)`` nonzero for the negative amounts too).
ROT_STEPS = tuple(s for s in range(-7, 8) if s)

#: Combined multiplicative-depth budget (tensor + plaintext multiplies)
#: per register; keeps every generated circuit inside PARAMS's noise.
DEPTH_CAP = 4


@st.composite
def circuits(draw):
    """A random valid circuit exercising every op, degrees tracked."""
    num_inputs = draw(st.integers(min_value=1, max_value=3))
    builder = CircuitBuilder("prop-opt")
    degree = {}
    depth = {}
    for i in range(num_inputs):
        reg = builder.input(f"x{i}")
        degree[reg] = 2
        depth[reg] = 0

    def any_reg():
        return draw(st.sampled_from(sorted(degree)))

    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        deg2 = sorted(r for r in degree if degree[r] == 2)
        deg2_shallow = [r for r in deg2 if depth[r] < DEPTH_CAP]
        deg3 = sorted(r for r in degree if degree[r] == 3)
        ops = ["add", "sub", "add_const", "mul_const", "mac_const"]
        if deg2_shallow:
            ops += ["mul_relin", "square_relin", "mul", "square"]
        if deg2:
            ops += ["rotate_rows", "rotate_columns"]
        if deg3:
            ops.append("relinearize")
        op = draw(st.sampled_from(ops))
        if op == "add":
            a, b = any_reg(), any_reg()
            dst = builder.add(a, b)
            degree[dst] = max(degree[a], degree[b])
            depth[dst] = max(depth[a], depth[b])
        elif op == "sub":
            a, b = any_reg(), any_reg()
            dst = builder.sub(a, b)
            degree[dst] = max(degree[a], degree[b])
            depth[dst] = max(depth[a], depth[b])
        elif op == "add_const":
            a = any_reg()
            dst = builder.add_const(
                a, builder.plain(draw(st.sampled_from(PLAIN_POOL)))
            )
            degree[dst] = degree[a]
            depth[dst] = depth[a]
        elif op == "mul_const":
            a = any_reg()
            if draw(st.booleans()):
                const = builder.scalar(draw(st.sampled_from(SCALAR_POOL)))
            else:
                const = builder.plain(draw(st.sampled_from(PLAIN_POOL)))
            dst = builder.mul_const(a, const)
            degree[dst] = degree[a]
            depth[dst] = min(DEPTH_CAP, depth[a] + 1)
        elif op == "mac_const":
            acc, a = any_reg(), any_reg()
            const = builder.scalar(draw(st.sampled_from(SCALAR_POOL)))
            dst = builder.mac_const(acc, a, const)
            degree[dst] = max(degree[acc], degree[a])
            depth[dst] = min(DEPTH_CAP, max(depth[acc], depth[a] + 1))
        elif op in ("mul_relin", "mul"):
            a = draw(st.sampled_from(deg2_shallow))
            b = draw(st.sampled_from(deg2_shallow))
            dst = getattr(builder, op)(a, b)
            degree[dst] = 2 if op == "mul_relin" else 3
            depth[dst] = max(depth[a], depth[b]) + 1
        elif op in ("square_relin", "square"):
            a = draw(st.sampled_from(deg2_shallow))
            dst = getattr(builder, op)(a)
            degree[dst] = 2 if op == "square_relin" else 3
            depth[dst] = depth[a] + 1
        elif op == "relinearize":
            a = draw(st.sampled_from(deg3))
            dst = builder.relinearize(a)
            degree[dst] = 2
            depth[dst] = depth[a]
        elif op == "rotate_rows":
            a = draw(st.sampled_from(deg2))
            dst = builder.rotate_rows(a, draw(st.sampled_from(ROT_STEPS)))
            degree[dst] = 2
            depth[dst] = depth[a]
        else:  # rotate_columns
            a = draw(st.sampled_from(deg2))
            dst = builder.rotate_columns(a)
            degree[dst] = 2
            depth[dst] = depth[a]

    deg2 = sorted(r for r in degree if degree[r] == 2)
    num_outputs = draw(st.integers(min_value=1, max_value=2))
    for i in range(num_outputs):
        builder.output(f"o{i}", draw(st.sampled_from(deg2)))
    return builder.build()


@pytest.fixture(scope="module")
def ctx():
    """One server + session with every Galois key the strategy can use."""
    bfv = Bfv(PARAMS, seed=97)
    keys = bfv.keygen(relin_digit_bits=16)
    rotor = RotationEngine(bfv, keys.secret)
    exponents = sorted(
        {pow(3, k, 2 * PARAMS.n) for k in range(1, PARAMS.n // 2)}
        | {2 * PARAMS.n - 1}
    )
    server = FheServer(pool_size=2, result_cache_size=0)
    sid = server.open_session(
        "prop",
        serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
        galois_keys=tuple(
            serialize_galois_key(rotor.galois_key(e), PARAMS)
            for e in exponents
        ),
    )
    inputs = tuple(
        bfv.encrypt(_ENCODER.encode([v + s for s in range(PARAMS.n)]),
                    keys.public)
        for v in (1, 2, 3)
    )
    wires = tuple(serialize_ciphertext(ct) for ct in inputs)
    yield {
        "server": server, "sid": sid, "bfv": bfv, "keys": keys,
        "wires": wires,
    }
    server.close()


def _serve(ctx, circuit, backend, level):
    server = ctx["server"]
    jid = server.submit(
        ctx["sid"], JobKind.CIRCUIT, ctx["wires"][: len(circuit.inputs)],
        payload=circuit, backend=backend, optimizer=level,
    )
    return server.result(jid), server.job_metrics(jid)


def _decoded_outputs(ctx, wire):
    outs = deserialize_circuit_outputs(wire, PARAMS)
    return {
        name: _ENCODER.decode(ctx["bfv"].decrypt(ct, ctx["keys"].secret))
        for name, ct in outs.items()
    }


class TestDifferentialServing:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits())
    def test_exact_level_is_byte_identical_on_every_backend(
        self, ctx, circuit
    ):
        """Unoptimized vs exact-optimized serve to the same bytes, and
        the two backends agree — one equivalence class of four wires."""
        wires = set()
        reports = {}
        for backend in BACKENDS:
            for level in ("none", LEVEL_EXACT):
                wire, metrics = _serve(ctx, circuit, backend, level)
                wires.add(wire)
                reports[(backend, level)] = metrics.rewrite
        assert len(wires) == 1
        for (backend, level), rewrite in reports.items():
            assert rewrite is not None and rewrite["level"] == level
            if level == "none":
                assert rewrite["steps_after"] == rewrite["steps_before"]

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits())
    def test_lazy_level_is_plaintext_equal_and_cross_backend_identical(
        self, ctx, circuit
    ):
        """Lazy relinearization may legally change the bytes, but every
        backend produces the *same* bytes and the same plaintexts as the
        unoptimized program."""
        baseline, _ = _serve(ctx, circuit, "software", "none")
        lazy_wires = {
            backend: _serve(ctx, circuit, backend, LEVEL_LAZY)[0]
            for backend in BACKENDS
        }
        assert len(set(lazy_wires.values())) == 1
        assert _decoded_outputs(ctx, lazy_wires["software"]) == \
            _decoded_outputs(ctx, baseline)


class TestRewriteReport:
    @settings(max_examples=120, deadline=None)
    @given(circuit=circuits())
    def test_exact_eliminated_counts_reconcile_with_step_delta(
        self, circuit
    ):
        optimized, report = optimize_circuit(circuit, level=LEVEL_EXACT)
        assert report["steps_before"] == len(circuit.steps)
        assert report["steps_after"] == len(optimized.steps)
        assert report["relin_lazy"] == 0
        eliminated = (
            report["constant_fold"] + report["cse"] + report["dce"]
        )
        assert report["steps_before"] - report["steps_after"] == eliminated
        counts = optimized.op_counts()
        assert report["tensor_units"] == counts["ct_ct_mults"]
        assert report["relin_units"] == counts["relins"]
        assert report["rotation_units"] == counts["rotations"]

    @settings(max_examples=120, deadline=None)
    @given(circuit=circuits())
    def test_lazy_never_adds_work_and_reports_its_savings(self, circuit):
        optimized, report = optimize_circuit(circuit, level=LEVEL_LAZY)
        before = circuit.op_counts()
        after = optimized.op_counts()
        assert after["relins"] <= before["relins"]
        assert after["ct_ct_mults"] <= before["ct_ct_mults"]
        assert after["rotations"] <= before["rotations"]
        # The lazify pass only claims key switches that really vanished.
        assert before["relins"] - after["relins"] >= report["relin_lazy"]
        assert report["relin_units"] == after["relins"]

    @settings(max_examples=120, deadline=None)
    @given(
        circuit=circuits(),
        level=st.sampled_from(LEVELS),
    )
    def test_optimize_twice_is_a_fixed_point(self, circuit, level):
        once, _ = optimize_circuit(circuit, level=level)
        twice, report = optimize_circuit(once, level=level)
        assert twice == once
        for pass_name in ("constant_fold", "cse", "dce", "relin_lazy"):
            assert report[pass_name] == 0


class TestServerPlumbing:
    def test_known_redundancies_hit_each_pass_and_the_counter(self):
        """A hand-built wasteful circuit exercises fold + CSE + DCE, the
        rewrite report lands in JobMetrics, and the per-pass elimination
        counter shows up on the metrics wire."""
        bfv = Bfv(PARAMS, seed=5)
        keys = bfv.keygen(relin_digit_bits=16)
        builder = CircuitBuilder("wasteful")
        x = builder.input("x")
        one = builder.mul_const(x, builder.scalar(1))  # folds to x
        twice_a = builder.add(x, one)
        twice_b = builder.add(one, x)  # CSE (commutative canonicalization)
        builder.square_relin(twice_b)  # dead: never reaches an output
        builder.output("y", twice_a)
        circuit = builder.build()

        with FheServer(pool_size=2, result_cache_size=0) as server:
            sid = server.open_session(
                "t", serialize_params(PARAMS),
                relin_key=serialize_relin_key(keys.relin, PARAMS),
            )
            ct = bfv.encrypt(_ENCODER.encode([3] * PARAMS.n), keys.public)
            jid = server.submit(
                sid, JobKind.CIRCUIT, (serialize_ciphertext(ct),),
                payload=circuit,
            )
            wire = server.result(jid)
            rewrite = server.job_metrics(jid).rewrite
            assert rewrite["constant_fold"] >= 1
            assert rewrite["cse"] >= 1
            assert rewrite["dce"] >= 1
            assert rewrite["steps_after"] < rewrite["steps_before"]
            rendered = server.metrics.render()
            assert "repro_circuit_steps_eliminated_total" in rendered
            outs = deserialize_circuit_outputs(wire, PARAMS)
            decoded = _ENCODER.decode(bfv.decrypt(outs["y"], keys.secret))
            assert decoded == [6] * PARAMS.n
