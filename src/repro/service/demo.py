"""End-to-end serving demo: three tenants, two backends, one chip pool.

Drives the full serving stack the way a deployment would:

* **initech** sends raw encrypted traffic — EvalMult, additions, and slot
  rotations — as wire bytes, with its evaluation keys registered once;
* **acme** submits compiled logistic-regression circuits;
* **globex** submits compiled CryptoNets-style inference circuits;

and the same 21-job workload is served by both backends. Every raw
result is decrypted client-side and checked against locally computed
:class:`~repro.bfv.Bfv` ground truth, every app circuit's decrypted
output against its model's plaintext reference, and the two backends
must return bit-identical ciphertext bytes. A second pass compares a
chip pool of 1 against a pool of 4 on identical traffic to show the
makespan shrink.

Run:  ``python examples/encrypted_service_demo.py``  (or ``repro-serve``
after ``pip install -e .``).

The console script also fronts the asyncio wire transport:

* ``repro-serve --listen [HOST:]PORT`` starts a TCP listener a remote
  :class:`~repro.service.client.FheClient` can drive;
* ``repro-serve --smoke`` spins up an ephemeral listener, pushes one
  chip-native EvalMult *and* one compiled logistic-regression circuit
  through a real socket with completion callbacks, and asserts both
  results are bit-identical to local ground truth — the transport stage
  of ``tools/run_checks.sh --transport``.

The fully over-the-wire three-tenant demo (raw ops + both app circuits
through one TCP server) lives in ``examples/encrypted_service_demo.py``.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass

from repro.apps.cryptonets import MiniCryptoNets
from repro.apps.logreg import MiniLogisticRegression
from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.eval.tables import print_table as _print_table
from repro.polymath.primes import ntt_friendly_prime
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

BACKENDS = ("chip_pool", "software")

#: Chip-native parameter sets with noise headroom for each app's
#: two-multiplication depth.
LOGREG_PARAMS = BfvParameters.toy_rns(
    n=16, towers=5, tower_bits=28, t=ntt_friendly_prime(16, 21)
)
CRYPTONETS_PARAMS = BfvParameters.toy_rns(
    n=16, towers=4, tower_bits=30, t=ntt_friendly_prime(16, 20)
)


@dataclass
class RawClient:
    """initech's client-side state: keys stay here, only wire bytes leave."""

    params: BfvParameters
    bfv: Bfv
    keys: object
    encoder: BatchEncoder
    rotor: RotationEngine

    @classmethod
    def build(cls, seed: int = 2026) -> "RawClient":
        params = BfvParameters.toy(n=16, log_q=80)
        bfv = Bfv(params, seed=seed)
        keys = bfv.keygen(relin_digit_bits=12)
        encoder = BatchEncoder(params)
        rotor = RotationEngine(bfv, keys.secret, digit_bits=12)
        return cls(params, bfv, keys, encoder, rotor)

    def encrypt_slots(self, values: list[int]):
        return self.bfv.encrypt(self.encoder.encode(values), self.keys.public)

    def decrypt_slots(self, ct) -> list[int]:
        return self.encoder.decode(self.bfv.decrypt(ct, self.keys.secret))


def build_traffic(client: RawClient, seed: int = 7):
    """Generate the 21-job mixed workload ONCE.

    The same operand bytes go to every backend, so results must come back
    bit-identical. Each raw op carries its ground-truth ciphertext
    computed locally with the client's own :class:`~repro.bfv.Bfv`.
    """
    rng = random.Random(seed)
    t = client.params.t
    slots = lambda: [rng.randrange(min(t, 64)) for _ in range(client.params.n)]
    raw_ops = []  # (kind, operand wire bytes, steps, expected ground truth)
    for _ in range(5):
        a, b = client.encrypt_slots(slots()), client.encrypt_slots(slots())
        expected = client.bfv.multiply_relin(a, b, client.keys.relin)
        raw_ops.append((JobKind.MULTIPLY,
                        (serialize_ciphertext(a), serialize_ciphertext(b)),
                        0, expected))
    for _ in range(4):
        a, b = client.encrypt_slots(slots()), client.encrypt_slots(slots())
        raw_ops.append((JobKind.ADD,
                        (serialize_ciphertext(a), serialize_ciphertext(b)),
                        0, client.bfv.add(a, b)))
    for _ in range(2):
        a = client.encrypt_slots(slots())
        raw_ops.append((JobKind.ROTATE, (serialize_ciphertext(a),),
                        1, client.rotor.rotate_rows(a, 1)))
    # App circuits: (tenant, model, circuit, operand wire bytes, check
    # of the decrypted outputs against the model's plaintext reference).
    logreg = MiniLogisticRegression(params=LOGREG_PARAMS, num_features=6,
                                    seed=11)
    cnn = MiniCryptoNets(params=CRYPTONETS_PARAMS, seed=7)
    cnn_circuit = cnn.to_circuit()
    app_jobs = []
    for _ in range(5):
        samples = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        app_jobs.append((
            "acme", logreg, logreg.to_circuit(batch=len(samples)),
            _wire(logreg.encrypt_features(samples)),
            lambda outs, s=samples: logreg.predictions_from_score(
                outs["score"], len(s)) == logreg.predict_plain(s),
        ))
    for _ in range(5):
        images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(3)]
        app_jobs.append((
            "globex", cnn, cnn_circuit, _wire(cnn.encrypt_images(images)),
            lambda outs, im=images: cnn.scores_from_outputs(
                outs, len(im)) == cnn.infer_plain(im),
        ))
    return raw_ops, app_jobs


def _wire(cts) -> tuple[bytes, ...]:
    return tuple(serialize_ciphertext(ct) for ct in cts)


def submit_workload(server: FheServer, client: RawClient, backend: str, traffic):
    """Queue the shared workload on one backend; returns ids to verify."""
    raw_ops, app_jobs = traffic
    sid = server.open_session(
        "initech",
        serialize_params(client.params),
        relin_key=serialize_relin_key(client.keys.relin, client.params),
        galois_keys=(
            serialize_galois_key(
                client.rotor.galois_key(pow(3, 1, 2 * client.params.n)),
                client.params,
            ),
        ),
    )
    raw_checks = []  # (job_id, expected ground-truth ciphertext)
    for kind, operands, steps, expected in raw_ops:
        jid = server.submit(sid, kind, operands, steps=steps, backend=backend)
        raw_checks.append((jid, expected))

    app_checks = []  # (job_id, model, plaintext-reference check)
    sessions: dict[str, str] = {}
    for tenant, model, circuit, operands, check in app_jobs:
        if tenant not in sessions:
            sessions[tenant] = server.open_session(
                tenant, serialize_params(model.params),
                relin_key=serialize_relin_key(model.keys.relin, model.params),
            )
        jid = server.submit(sessions[tenant], JobKind.CIRCUIT, operands,
                            payload=circuit, backend=backend)
        app_checks.append((jid, model, check))
    return raw_checks, app_checks


def verify_backend(server: FheServer, client: RawClient, backend: str,
                   raw_checks, app_checks) -> list[bytes]:
    """Check every result against ground truth; returns result bytes."""
    result_bytes = []
    for jid, expected in raw_checks:
        wire = server.result(jid)  # drives the scheduler as needed
        result_bytes.append(wire)
        got = deserialize_ciphertext(wire, client.params)
        got_pt = client.bfv.decrypt(got, client.keys.secret)
        want_pt = client.bfv.decrypt(expected, client.keys.secret)
        assert got_pt == want_pt, (
            f"{backend}: job {jid} decryption diverged from Bfv ground truth"
        )
    for jid, model, check in app_checks:
        wire = server.result(jid)
        result_bytes.append(wire)
        assert check(deserialize_circuit_outputs(wire, model.params)), (
            f"{backend}: app circuit {jid} diverged from its plaintext "
            "reference"
        )
    print(f"  {backend}: {len(raw_checks)} raw jobs verified against Bfv "
          f"ground truth, {len(app_checks)} app circuits against their "
          "plaintext references ✓")
    return result_bytes


def pool_scaling(client: RawClient, sizes=(1, 4), jobs: int = 12) -> list[dict]:
    """Identical EvalMult traffic on different pool sizes; report makespan."""
    rng = random.Random(99)
    rows = []
    for size in sizes:
        server = FheServer(pool_size=size)
        sid = server.open_session(
            "initech",
            serialize_params(client.params),
            relin_key=serialize_relin_key(client.keys.relin, client.params),
        )
        for _ in range(jobs):
            vals = [rng.randrange(32) for _ in range(client.params.n)]
            a, b = client.encrypt_slots(vals), client.encrypt_slots(vals)
            server.submit(sid, JobKind.MULTIPLY, (a, b), backend="chip_pool")
        server.run()
        pool = server.chip_pool
        rows.append({
            "pool_size": size,
            "jobs": jobs,
            "wall_cycles": pool.wall_cycles,
            "total_cycles": pool.total_cycles,
            "wall_ms": pool.wall_seconds() * 1e3,
        })
    assert rows[-1]["wall_cycles"] < rows[0]["wall_cycles"], (
        "growing the chip pool must shrink the aggregate wall cycles"
    )
    return rows


def load_tenants(path: str) -> tuple[dict[str, str], dict]:
    """Parse a ``--tenants`` file into (auth table, quota table).

    One tenant per line, whitespace-separated::

        tenant token [max_inflight] [rate] [burst]

    Blank lines and ``#`` comments are skipped. The optional numeric
    columns configure the tenant's admission quota (0 disables each);
    ``burst`` defaults to ``ceil(rate)`` when a rate is given.
    """
    import math

    from repro.service.server import TenantQuota

    tenants: dict[str, str] = {}
    quotas: dict[str, TenantQuota] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 2 or len(fields) > 5:
                raise SystemExit(
                    f"{path}:{lineno}: want 'tenant token "
                    f"[max_inflight] [rate] [burst]', got {raw.strip()!r}"
                )
            tenant, token = fields[0], fields[1]
            if tenant in tenants:
                raise SystemExit(f"{path}:{lineno}: duplicate tenant {tenant!r}")
            tenants[tenant] = token
            try:
                max_inflight = int(fields[2]) if len(fields) > 2 else 0
                rate = float(fields[3]) if len(fields) > 3 else 0.0
                burst = (int(fields[4]) if len(fields) > 4
                         else math.ceil(rate))
            except ValueError as exc:
                raise SystemExit(f"{path}:{lineno}: {exc}")
            if max_inflight or rate or burst:
                quotas[tenant] = TenantQuota(
                    max_inflight=max_inflight, rate=rate, burst=burst
                )
    return tenants, quotas


def serve(listen: str, pool_size: int,
          stats_interval: float = 0.0, fleet: int = 0,
          fleet_mode: str = "process", max_inflight: int = 0,
          tenants_file: str | None = None) -> int:
    """Run the asyncio wire transport until interrupted."""
    import asyncio
    import json

    from repro.service.transport import FheTransportServer

    host, _, port_text = listen.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"--listen wants [HOST:]PORT, got {listen!r}")
    tenants = quotas = None
    if tenants_file is not None:
        tenants, quotas = load_tenants(tenants_file)

    async def _stats_logger(server):
        # One structured-log line per interval: JSON so a log pipeline
        # can ingest it without scraping the Prometheus endpoint.
        while True:
            await asyncio.sleep(stats_interval)
            snap = await server.stats_snapshot()
            print(json.dumps({"repro_stats": snap}, sort_keys=True),
                  flush=True)

    async def _serve():
        fhe = FheServer(
            pool_size=pool_size,
            fleet_size=fleet, fleet_mode=fleet_mode,
            default_backend="fleet" if fleet > 0 else "chip_pool",
            quotas=quotas,
        )
        server = FheTransportServer(
            fhe, host=host, port=port, max_inflight=max_inflight,
            tenants=tenants,
        )
        bound_host, bound_port = await server.start()
        engine = (
            f"fleet x{fleet} ({fleet_mode} workers)" if fleet > 0
            else f"chip pool x{pool_size}"
        )
        auth = (
            f", auth for {len(tenants)} tenant(s)" if tenants is not None
            else ""
        )
        print(f"repro-serve: listening on {bound_host}:{bound_port} "
              f"({engine}{auth}, Ctrl-C to stop)", flush=True)
        logger_task = (
            asyncio.ensure_future(_stats_logger(server))
            if stats_interval > 0 else None
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if logger_task is not None:
                logger_task.cancel()
            print("repro-serve: draining in-flight jobs…")
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def transport_smoke(pool_size: int = 2) -> int:
    """One EvalMult and one app circuit through a real localhost socket.

    Uses the sync :class:`~repro.service.client.FheClient` against a
    thread-hosted listener — the full stack a deployment would run, in
    one process: wire serialization, length-prefixed frames, the worker
    thread executor, tower-sharded chip execution, and the pushed
    completion callback. Both results are asserted bit-identical to
    in-process execution; the logistic-regression circuit additionally
    checks its decrypted predictions against the plaintext reference.
    """
    from repro.service.circuits import evaluate_circuit
    from repro.service.client import FheClient
    from repro.service.transport import ThreadedTransportServer

    params = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)
    bfv = Bfv(params, seed=2026)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(params)
    a = bfv.encrypt(encoder.encode(list(range(params.n))), keys.public)
    b = bfv.encrypt(
        encoder.encode(list(range(params.n, 2 * params.n))), keys.public
    )
    expected = serialize_ciphertext(bfv.multiply_relin(a, b, keys.relin))

    # The app-circuit leg: a compiled logistic-regression batch on its
    # own chip-native parameter set (wide enough for two multiplications).
    lr_params = LOGREG_PARAMS
    model = MiniLogisticRegression(params=lr_params, num_features=4, seed=11)
    rng = random.Random(3)
    samples = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
    circuit = model.to_circuit(batch=len(samples))
    feature_cts = model.encrypt_features(samples)
    local = evaluate_circuit(model.bfv, model.keys.relin, circuit, feature_cts)
    expected_score = serialize_ciphertext(local["score"])

    callbacks: list[str] = []
    with ThreadedTransportServer(pool_size=pool_size) as ts:
        print(f"transport smoke: listener on {ts.host}:{ts.port} "
              f"(chip pool x{pool_size})")
        with FheClient(ts.host, ts.port) as client:
            sid = client.open_session(
                "smoke", serialize_params(params),
                relin_key=serialize_relin_key(keys.relin, params),
            )
            jid = client.submit(
                sid, JobKind.MULTIPLY,
                (serialize_ciphertext(a), serialize_ciphertext(b)),
                on_done=lambda event: callbacks.append(event.status),
            )
            wire = client.result(jid)
            lr_sid = client.open_session(
                "smoke-logreg", serialize_params(lr_params),
                relin_key=serialize_relin_key(model.keys.relin, lr_params),
            )
            lr_jid = client.submit_circuit(
                lr_sid, circuit,
                tuple(serialize_ciphertext(ct) for ct in feature_cts),
                on_done=lambda event: callbacks.append(event.status),
            )
            lr_payload = client.result(lr_jid)
        report = ts.fhe.pool_report()
    assert wire == expected, "transport result diverged from Bfv ground truth"
    outs = deserialize_circuit_outputs(lr_payload, lr_params)
    assert serialize_ciphertext(outs["score"]) == expected_score, (
        "served circuit diverged from in-process evaluation"
    )
    predictions = model.predictions_from_score(outs["score"], len(samples))
    assert predictions == model.predict_plain(samples), (
        "served predictions diverged from the plaintext reference"
    )
    assert callbacks == ["done", "done"], (
        f"expected one completion event per job, got {callbacks}"
    )
    assert report["fidelity"].get("chip") == 2, report["fidelity"]
    print("transport smoke: EvalMult over the socket is bit-identical to "
          "local ground truth, 1 completion callback, chip-native ✓")
    print(f"transport smoke: logreg circuit ({len(circuit.steps)} steps, "
          f"{len(circuit.tensor_steps)} tensors) over the socket is "
          f"bit-identical, predictions {predictions} match plaintext ✓")
    return 0


def fleet_smoke(workers: int = 2, mode: str = "process") -> int:
    """EvalMult traffic through a real worker fleet over a real socket.

    Spins up a thread-hosted listener whose default backend is a
    :class:`~repro.service.fleet.FleetBackend` of ``workers`` separate
    worker processes (each a spawned interpreter with its own chip pool
    and engine caches), pushes a small multiply/add mix through the sync
    client, and asserts every result bit-identical to local
    :class:`~repro.bfv.Bfv` ground truth — the fleet stage of
    ``tools/run_checks.sh --fleet``.
    """
    from repro.service.client import FheClient
    from repro.service.transport import ThreadedTransportServer

    params = BfvParameters.toy_rns(n=16, towers=2, tower_bits=20)
    bfv = Bfv(params, seed=2026)
    keys = bfv.keygen(relin_digit_bits=14)
    encoder = BatchEncoder(params)
    rng = random.Random(5)

    fhe = FheServer(
        fleet_size=workers, fleet_mode=mode, default_backend="fleet",
    )
    checks = []  # (job kind, operands, expected ciphertext)
    for i in range(4):
        a = bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(params.n)]), keys.public)
        b = bfv.encrypt(encoder.encode(
            [rng.randrange(16) for _ in range(params.n)]), keys.public)
        if i % 2 == 0:
            checks.append((JobKind.MULTIPLY, (a, b),
                           bfv.multiply_relin(a, b, keys.relin)))
        else:
            checks.append((JobKind.ADD, (a, b), bfv.add(a, b)))

    with ThreadedTransportServer(fhe=fhe) as ts:
        print(f"fleet smoke: listener on {ts.host}:{ts.port} "
              f"(fleet x{workers}, {mode} workers)")
        with FheClient(ts.host, ts.port) as client:
            sid = client.open_session(
                "fleet-smoke", serialize_params(params),
                relin_key=serialize_relin_key(keys.relin, params),
            )
            jids = [
                client.submit(sid, kind, tuple(
                    serialize_ciphertext(ct) for ct in operands
                ))
                for kind, operands, _ in checks
            ]
            for jid, (kind, _, expected) in zip(jids, checks):
                got = deserialize_ciphertext(client.result(jid), params)
                got_pt = bfv.decrypt(got, keys.secret)
                want_pt = bfv.decrypt(expected, keys.secret)
                assert got_pt == want_pt, (
                    f"fleet {kind.value} diverged from Bfv ground truth"
                )
        report = ts.fhe.fleet_report()
    assert report["deaths"] == 0 and report["requeues"] == 0, report
    workers_used = {w["index"] for w in report["workers"] if w["jobs_done"]}
    print(f"fleet smoke: {len(checks)} jobs bit-identical across "
          f"{len(workers_used)} worker process(es), 0 deaths, 0 requeues ✓")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="CoFHEE serving layer: in-process demo, wire-transport "
                    "listener, or transport smoke test.",
    )
    parser.add_argument(
        "--listen", metavar="[HOST:]PORT",
        help="start the asyncio wire transport instead of the demo",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="transport self-test: ephemeral listener, one EvalMult "
             "round-trip, assert bit-identical",
    )
    parser.add_argument(
        "--fleet-smoke", action="store_true",
        help="fleet self-test: ephemeral listener over a 2-process "
             "worker fleet, assert bit-identical",
    )
    parser.add_argument("--pool", type=int, default=4, metavar="N",
                        help="chips in the pool backend (default 4)")
    parser.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="with --listen: serve from a fleet of N worker processes "
             "instead of the in-process chip pool (0 disables)",
    )
    parser.add_argument(
        "--fleet-mode", choices=("process", "thread"), default="process",
        help="fleet worker isolation (default process)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=0, metavar="N",
        help="with --listen: per-connection submit window; floods stall "
             "instead of queueing unboundedly (0 disables)",
    )
    parser.add_argument(
        "--stats-interval", type=float, default=0.0, metavar="N",
        help="with --listen: print a JSON metrics snapshot every N "
             "seconds (0 disables)",
    )
    parser.add_argument(
        "--tenants", metavar="FILE",
        help="with --listen: per-tenant auth + quota table (lines of "
             "'tenant token [max_inflight] [rate] [burst]'); enables "
             "token-checked OPEN_SESSION and quota admission",
    )
    args = parser.parse_args(argv)
    exclusive = [
        flag for flag, on in
        (("--smoke", args.smoke), ("--fleet-smoke", args.fleet_smoke),
         ("--listen", bool(args.listen)))
        if on
    ]
    if len(exclusive) > 1:
        parser.error(f"{' and '.join(exclusive)} are mutually exclusive")
    if args.stats_interval and not args.listen:
        parser.error("--stats-interval requires --listen")
    if (args.fleet or args.max_inflight) and not (args.listen or args.fleet_smoke):
        parser.error("--fleet/--max-inflight require --listen")
    if args.tenants and not args.listen:
        parser.error("--tenants requires --listen")
    if args.smoke:
        return transport_smoke(pool_size=args.pool)
    if args.fleet_smoke:
        return fleet_smoke(workers=args.fleet or 2, mode=args.fleet_mode)
    if args.listen:
        return serve(args.listen, args.pool,
                     stats_interval=args.stats_interval, fleet=args.fleet,
                     fleet_mode=args.fleet_mode,
                     max_inflight=args.max_inflight,
                     tenants_file=args.tenants)
    return run_demo()


def run_demo() -> int:
    print("CoFHEE serving layer demo: 3 tenants x 2 backends over one chip pool")
    client = RawClient.build()
    server = FheServer(pool_size=4)
    traffic = build_traffic(client)

    per_backend_checks = {}
    for backend in BACKENDS:
        per_backend_checks[backend] = submit_workload(
            server, client, backend, traffic
        )

    stats = server.run()
    print(f"\nprocessed {stats.jobs_completed} jobs "
          f"({stats.jobs_failed} failed)")

    print("\nVerification:")
    results = {
        backend: verify_backend(server, client, backend, *checks)
        for backend, checks in per_backend_checks.items()
    }

    # The two backends are bit-exact: same ops, same wire bytes.
    reference = results[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        assert results[backend] == reference, (
            f"{backend} wire bytes diverged from {BACKENDS[0]}"
        )
    print("  all backends returned bit-identical ciphertext bytes ✓")

    _print_table(
        "Throughput by backend",
        server.throughput_rows(),
        ["backend", "pool", "jobs", "wall_s", "jobs_per_s", "wall_cycles"],
    )

    rows = pool_scaling(client)
    _print_table(
        "Chip-pool scaling (identical EvalMult traffic)",
        rows,
        ["pool_size", "jobs", "wall_cycles", "total_cycles", "wall_ms"],
    )
    speedup = rows[0]["wall_cycles"] / rows[-1]["wall_cycles"]
    print(f"\npool x{rows[-1]['pool_size']} makespan is {speedup:.2f}x shorter "
          f"than x{rows[0]['pool_size']} on the same traffic ✓")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
