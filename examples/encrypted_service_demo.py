"""Multi-tenant FHE serving demo — everything over the wire transport.

Three tenants drive one chip-pool server through a real localhost TCP
socket using the :class:`~repro.service.client.FheClient` transport path
(PR 4) — no in-process polling anywhere:

* **initech** sends raw encrypted traffic (EvalMult, additions, slot
  rotations) as wire bytes with pushed completion callbacks;
* **acme** submits compiled :class:`MiniLogisticRegression` circuits via
  ``submit_circuit`` — the whole multiply-accumulate + cubic-sigmoid
  program travels as one SUBMIT_CIRCUIT frame;
* **globex** submits compiled :class:`MiniCryptoNets` inference circuits
  (conv → square → dense → square → dense, 138 steps).

Every raw result is decrypted client-side and checked against locally
computed :class:`~repro.bfv.Bfv` ground truth; every served circuit is
checked bit-identical against the shared in-process evaluator and its
decrypted predictions against the app's plaintext reference. The pool
report shows the tower-sharded chip execution and the dedupe counters
(acme submits one batch twice), and the closing observability section
prints a live metrics snapshot (per-tenant submits, submit p95, frame
counters — the same numbers the wire ``STATS`` message carries) plus
the chip pool's span-tracing phase-attribution table with its >= 90%
coverage gate (see docs/observability.md).

Run:  python examples/encrypted_service_demo.py
      (``repro-serve --listen PORT`` starts this same transport stack as
      a standalone server — see docs/serving-guide.md)
"""

import random

from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.polymath.primes import ntt_friendly_prime
from repro.service.circuits import evaluate_circuit
from repro.service.client import FheClient
from repro.service.jobs import JobKind
from repro.service.serialization import (
    deserialize_ciphertext,
    deserialize_circuit_outputs,
    serialize_ciphertext,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer
from repro.service.transport import ThreadedTransportServer


def raw_tenant(client: FheClient) -> None:
    """initech: raw ops over the socket, verified against local Bfv."""
    params = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)
    bfv = Bfv(params, seed=2026)
    keys = bfv.keygen(relin_digit_bits=12)
    encoder = BatchEncoder(params)
    rotor = RotationEngine(bfv, keys.secret, digit_bits=12)
    rng = random.Random(7)
    slots = lambda: [rng.randrange(32) for _ in range(params.n)]  # noqa: E731

    sid = client.open_session(
        "initech", serialize_params(params),
        relin_key=serialize_relin_key(keys.relin, params),
        galois_keys=(
            serialize_galois_key(
                rotor.galois_key(pow(3, 1, 2 * params.n)), params
            ),
        ),
    )
    checks = []  # (job_id, expected ciphertext)
    events = []
    for _ in range(3):
        a, b = (bfv.encrypt(encoder.encode(slots()), keys.public)
                for _ in range(2))
        jid = client.submit(
            sid, JobKind.MULTIPLY,
            (serialize_ciphertext(a), serialize_ciphertext(b)),
            on_done=lambda e: events.append(e.status),
        )
        checks.append((jid, bfv.multiply_relin(a, b, keys.relin)))
    for _ in range(2):
        a, b = (bfv.encrypt(encoder.encode(slots()), keys.public)
                for _ in range(2))
        jid = client.submit(
            sid, JobKind.ADD,
            (serialize_ciphertext(a), serialize_ciphertext(b)),
            on_done=lambda e: events.append(e.status),
        )
        checks.append((jid, bfv.add(a, b)))
    a = bfv.encrypt(encoder.encode(slots()), keys.public)
    jid = client.submit(
        sid, JobKind.ROTATE, (serialize_ciphertext(a),), steps=1,
        on_done=lambda e: events.append(e.status),
    )
    checks.append((jid, rotor.rotate_rows(a, 1)))

    for jid, expected in checks:
        got = deserialize_ciphertext(client.result(jid), params)
        want = bfv.decrypt(expected, keys.secret)
        assert bfv.decrypt(got, keys.secret) == want, f"job {jid} diverged"
    assert events == ["done"] * len(checks), events
    print(f"  initech: {len(checks)} raw ops over TCP verified against "
          "local Bfv ground truth, one pushed event each ✓")


def logreg_tenant(client: FheClient) -> None:
    """acme: compiled logistic-regression circuits (submitted twice —
    the repeat shares the first execution via the content-addressed
    result cache, or in-queue dedupe if it lands inside the window)."""
    params = BfvParameters.toy_rns(
        n=16, towers=5, tower_bits=28, t=ntt_friendly_prime(16, 21)
    )
    model = MiniLogisticRegression(params=params, num_features=6, seed=11)
    rng = random.Random(11)
    samples = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    circuit = model.to_circuit(batch=len(samples))
    inputs = tuple(
        serialize_ciphertext(ct) for ct in model.encrypt_features(samples)
    )
    reference = evaluate_circuit(
        model.bfv, model.keys.relin, circuit,
        [deserialize_ciphertext(ct, params) for ct in inputs],
    )

    sid = client.open_session(
        "acme", serialize_params(params),
        relin_key=serialize_relin_key(model.keys.relin, params),
    )
    first = client.submit_circuit(sid, circuit, inputs)
    second = client.submit_circuit(sid, circuit, inputs)  # dedupe window
    payloads = [client.result(first), client.result(second)]
    assert payloads[0] == payloads[1], "dedupe follower diverged"
    outs = deserialize_circuit_outputs(payloads[0], params)
    assert serialize_ciphertext(outs["score"]) == serialize_ciphertext(
        reference["score"]
    ), "served circuit diverged from in-process evaluation"
    predictions = model.predictions_from_score(outs["score"], len(samples))
    assert predictions == model.predict_plain(samples)
    print(f"  acme: logreg circuit ({len(circuit.steps)} steps, "
          f"{len(circuit.tensor_steps)} tensors) served twice over TCP, "
          "bit-identical, one shared execution; predictions "
          f"{predictions} match plaintext ✓")


def cryptonets_tenant(client: FheClient) -> None:
    """globex: compiled CryptoNets inference."""
    params = BfvParameters.toy_rns(
        n=16, towers=4, tower_bits=30, t=ntt_friendly_prime(16, 20)
    )
    model = MiniCryptoNets(params=params, seed=7)
    rng = random.Random(13)
    images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(3)]
    circuit = model.to_circuit()
    inputs = tuple(
        serialize_ciphertext(ct) for ct in model.encrypt_images(images)
    )

    sid = client.open_session(
        "globex", serialize_params(params),
        relin_key=serialize_relin_key(model.keys.relin, params),
    )
    payload = client.result(client.submit_circuit(sid, circuit, inputs))
    outs = deserialize_circuit_outputs(payload, params)
    scores = model.scores_from_outputs(outs, len(images))
    assert scores == model.infer_plain(images)
    classes = model.classify(scores)
    print(f"  globex: cryptonets circuit ({len(circuit.steps)} steps, "
          f"{len(circuit.tensor_steps)} tensors) served over TCP; "
          f"classes {classes} match plaintext ✓")


def print_observability(ts, client: FheClient) -> None:
    """Live stats snapshot + phase attribution, from the same socket."""
    snap = ts.fhe.stats_snapshot()
    submitted = {
        label: int(count)
        for label, count in snap["repro_jobs_submitted_total"].items()
    }
    submit_lat = snap["repro_submit_seconds"][""]
    frames_in = snap["repro_frames_received_total"][""]
    bytes_in = snap["repro_frame_bytes_received_total"][""]
    print(f"\nlive stats (wire STATS also carries "
          f"{len(client.stats().splitlines())} Prometheus lines):")
    print(f"  submits {submitted}, submit p95 "
          f"{submit_lat['p95'] * 1e3:.2f} ms, "
          f"{int(frames_in)} frames / {int(bytes_in)} bytes received")

    rows = ts.fhe.phase_report(backend="chip_pool")
    print("phase attribution (chip pool, % of end-to-end job latency):")
    for row in rows:
        bar = "=" * max(1, round(row["percent"] / 2.5))
        if row["phase"] == "(total)":
            bar = "<- coverage"
        print(f"  {row['phase']:<16} {row['seconds'] * 1e3:>9.2f} ms "
              f"{row['percent']:>5.1f}%  {bar}")
    assert rows[-1]["percent"] >= 90.0, "phase coverage regressed"


def main() -> int:
    print("CoFHEE serving demo: 3 tenants over one TCP chip-pool server")
    with ThreadedTransportServer(FheServer(pool_size=4)) as ts:
        print(f"listener on {ts.host}:{ts.port} (chip pool x4)\n")
        with FheClient(ts.host, ts.port) as client:
            raw_tenant(client)
            logreg_tenant(client)
            cryptonets_tenant(client)
            print_observability(ts, client)
        report = ts.fhe.pool_report()
    chip_jobs = report["fidelity"].get("chip", 0)
    cache = report["result_cache"]
    shared = cache["hits"] + cache["dedupe_hits"]
    print(f"\npool report: {chip_jobs} chip-fidelity jobs, "
          f"{cache['hits']} cache hit(s) + {cache['dedupe_hits']} dedupe "
          f"hit(s), makespan {report['wall_cycles']} of "
          f"{report['total_cycles']} total cycles across "
          f"{report['pool']} workers {report['per_worker_cycles']}")
    assert chip_jobs >= 5  # 3 EvalMult + logreg + cryptonets
    assert shared == 1  # acme's repeat never executed twice
    print("all over-the-wire results verified ✓")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
