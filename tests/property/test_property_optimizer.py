"""Differential battery for served circuits and the offline optimizer.

Random circuits over the full op set (adds, constants, eager and bare
tensors, explicit relinearization, both rotations) are generated with
the same static discipline :func:`validate_circuit` enforces — tensor
and rotation operands degree 2, outputs degree 2, rotation immediates
nonzero — plus a multiplicative-depth cap so every circuit stays inside
the noise budget.

Three guarantees are pinned:

* Serving is **byte-exact**: the server serves, on every backend, the
  bytes in-process evaluation of the *submitted* circuit returns, and
  it runs every submitted step (a wasteful circuit is priced whole).
* The offline pass pipeline (:func:`optimize_circuit`) only removes
  steps, never a tensor, key switch or rotation.
* It is a **fixed point**: optimizing an optimized circuit changes
  nothing and reports zero eliminations, and the rewrite report's
  eliminated counts reconcile with the step deltas.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.rotation import RotationEngine
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import CircuitBuilder, evaluate_circuit
from repro.service.jobs import JobKind
from repro.service.optimizer import LEVEL_EXACT, optimize_circuit
from repro.service.serialization import (
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_circuit_outputs,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

BACKENDS = ("chip_pool", "software")

#: Roomy modulus (168 bits): the depth-capped random circuits stay well
#: inside the noise budget.
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
    """One default server with a session holding every Galois key the
    strategy can use."""
    bfv = Bfv(PARAMS, seed=97)
    keys = bfv.keygen(relin_digit_bits=16)
    rotor = RotationEngine(bfv, keys.secret)
    exponents = sorted(
        {pow(3, k, 2 * PARAMS.n) for k in range(1, PARAMS.n // 2)}
        | {2 * PARAMS.n - 1}
    )
    galois = {e: rotor.galois_key(e) for e in exponents}
    server = FheServer(pool_size=2, result_cache_size=0)
    sid = server.open_session(
        "prop",
        serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
        galois_keys=tuple(
            serialize_galois_key(key, PARAMS) for key in galois.values()
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
        "galois": galois, "inputs": inputs, "wires": wires,
    }
    server.close()


def _serve(ctx, circuit, backend):
    server = ctx["server"]
    jid = server.submit(
        ctx["sid"], JobKind.CIRCUIT, ctx["wires"][: len(circuit.inputs)],
        payload=circuit, backend=backend,
    )
    return server.result(jid)


class TestDifferentialServing:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit=circuits())
    def test_served_bytes_are_the_submitted_circuit_on_every_backend(
        self, ctx, circuit
    ):
        """Both backends serve the bytes in-process evaluation of the
        submitted circuit returns — one equivalence class of three
        wires."""
        wires = {_serve(ctx, circuit, backend) for backend in BACKENDS}
        reference = evaluate_circuit(
            ctx["bfv"], ctx["keys"].relin, circuit,
            ctx["inputs"][: len(circuit.inputs)],
            galois=ctx["galois"].__getitem__,
        )
        assert wires == {serialize_circuit_outputs(reference)}


class TestRewriteReport:
    @settings(max_examples=120, deadline=None)
    @given(circuit=circuits())
    def test_exact_eliminated_counts_reconcile_with_step_delta(
        self, circuit
    ):
        optimized, report = optimize_circuit(circuit, level=LEVEL_EXACT)
        assert report["steps_before"] == len(circuit.steps)
        assert report["steps_after"] == len(optimized.steps)
        eliminated = (
            report["constant_fold"] + report["cse"] + report["dce"]
        )
        assert report["steps_before"] - report["steps_after"] == eliminated

    @settings(max_examples=120, deadline=None)
    @given(circuit=circuits())
    def test_exact_never_adds_work(self, circuit):
        """Fold, CSE and DCE only remove steps: no tensor, key switch or
        rotation the submitted circuit did not already pay for."""
        optimized, _report = optimize_circuit(circuit, level=LEVEL_EXACT)
        before = circuit.op_counts()
        after = optimized.op_counts()
        assert after["ct_ct_mults"] <= before["ct_ct_mults"]
        assert after["relins"] <= before["relins"]
        assert after["rotations"] <= before["rotations"]
        assert len(optimized.steps) <= len(circuit.steps)

    @settings(max_examples=120, deadline=None)
    @given(circuit=circuits())
    def test_optimize_twice_is_a_fixed_point(self, circuit):
        once, _ = optimize_circuit(circuit)
        twice, report = optimize_circuit(once)
        assert twice == once
        for pass_name in ("constant_fold", "cse", "dce"):
            assert report[pass_name] == 0


def _wasteful():
    """``y = x + x * 1`` written wastefully: a ×1 fold, a commutative
    duplicate for CSE, and a dead ``square_relin`` for DCE."""
    builder = CircuitBuilder("wasteful")
    x = builder.input("x")
    one = builder.mul_const(x, builder.scalar(1))  # folds to x
    twice_a = builder.add(x, one)
    twice_b = builder.add(one, x)  # CSE (commutative canonicalization)
    builder.square_relin(twice_b)  # dead: never reaches an output
    builder.output("y", twice_a)
    return builder.build()


class TestWastefulCircuit:
    def test_known_redundancies_hit_each_pass(self):
        """The offline passes each find their redundancy."""
        circuit = _wasteful()
        optimized, report = optimize_circuit(circuit)
        assert report["constant_fold"] >= 1
        assert report["cse"] >= 1
        assert report["dce"] >= 1
        assert report["steps_after"] == len(optimized.steps) < len(
            circuit.steps)

    def test_server_runs_every_submitted_step(self):
        """Served on the chip pool, the wasteful circuit is priced whole
        (the dead square and the ×1 included), no ``optimize`` phase
        is traced, and it still decrypts to ``x + x``."""
        bfv = Bfv(PARAMS, seed=5)
        keys = bfv.keygen(relin_digit_bits=16)
        circuit = _wasteful()
        with FheServer(pool_size=2, result_cache_size=0) as server:
            sid = server.open_session(
                "t", serialize_params(PARAMS),
                relin_key=serialize_relin_key(keys.relin, PARAMS),
            )
            ct = bfv.encrypt(_ENCODER.encode([3] * PARAMS.n), keys.public)
            jid = server.submit(
                sid, JobKind.CIRCUIT, (serialize_ciphertext(ct),),
                payload=circuit, backend="chip_pool",
            )
            wire = server.result(jid)
            price = server.chip_pool._price(server.registry.get(sid),
                                            circuit)
            assert server.job_metrics(jid).cycles == (
                price.tensor + sum(price.tails) + price.copies + price.linear
            )
            assert price.tensor and price.tails  # the dead square is paid
            phases = {s.phase for s in server.job_trace(jid).spans}
            assert "optimize" not in phases
        outs = deserialize_circuit_outputs(wire, PARAMS)
        decoded = _ENCODER.decode(bfv.decrypt(outs["y"], keys.secret))
        assert decoded == [6] * PARAMS.n


class TestLevels:
    def test_unsupported_level_is_rejected_naming_the_supported_one(self):
        """``exact`` is the one level; anything else — the removed
        ``lazy`` and ``none`` included — is a typed error, never a
        silent fallback."""
        builder = CircuitBuilder("one-add")
        x = builder.input("x")
        builder.output("y", builder.add(x, x))
        circuit = builder.build()
        for level in ("lazy", "none"):
            with pytest.raises(ValueError) as error:
                optimize_circuit(circuit, level=level)
            message = str(error.value)
            assert repr(level) in message and repr(LEVEL_EXACT) in message
