"""Serving-layer throughput: jobs/sec, makespan, and tower-sharding scaling.

Pushes a fixed mixed workload (EvalMult + additions) through the serving
stack on a **3-tower** parameter set and reports modeled
jobs-per-second for the software baseline and chip pools of 1/2/4 — the serving-layer analogue of the paper's Fig. 6
platform comparison. With tower sharding, every EvalMult fans its RNS
towers out across the pool, so the pool-of-4 makespan must come in at
least 1.5x under the pool-of-1 makespan (PR 1's job-level pool showed no
intra-job scaling at all: towers ran sequentially on one worker).

The wire-transport rows push the same jobs — and the compiled Section
VI-C app circuits (logreg, CryptoNets) — through a real localhost
socket, every payload checked bit-identical against in-process
execution.

Run:  pytest benchmarks/bench_service_throughput.py --benchmark-only -s
      (or with --benchmark-disable for a single smoke pass, as
      tools/run_checks.sh does)
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from repro.eval.tables import print_table

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.service.jobs import JobKind
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer

#: Three chip-native towers: each EvalMult splits into 3 work units.
PARAMS = BfvParameters.toy_rns(n=16, towers=3, tower_bits=20)
N_MULTS = 6
N_ADDS = 6

COLUMNS = [
    "backend", "pool", "jobs", "wall_s", "jobs_per_s",
    "wall_cycles", "batch_makespan", "total_cycles", "chip_jobs",
]


def _traffic():
    """Fixed workload plus per-op ground truth (third tuple element)."""
    bfv = Bfv(PARAMS, seed=31337)
    keys = bfv.keygen(relin_digit_bits=12)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(3)
    ops = []
    for kind, count in ((JobKind.MULTIPLY, N_MULTS), (JobKind.ADD, N_ADDS)):
        for _ in range(count):
            a = bfv.encrypt(
                encoder.encode([rng.randrange(32) for _ in range(PARAMS.n)]),
                keys.public,
            )
            b = bfv.encrypt(
                encoder.encode([rng.randrange(32) for _ in range(PARAMS.n)]),
                keys.public,
            )
            expected = (
                bfv.multiply_relin(a, b, keys.relin)
                if kind is JobKind.MULTIPLY else bfv.add(a, b)
            )
            ops.append((
                kind,
                (serialize_ciphertext(a), serialize_ciphertext(b)),
                serialize_ciphertext(expected),
            ))
    return keys, ops


def _serve(pool_size: int, backend: str, keys, ops) -> list[dict]:
    server = FheServer(pool_size=pool_size)
    sid = server.open_session(
        "bench",
        serialize_params(PARAMS),
        relin_key=serialize_relin_key(keys.relin, PARAMS),
    )
    for kind, operands, _expected in ops:
        server.submit(sid, kind, operands, backend=backend)
    server.run()
    rows = server.throughput_rows()
    if backend == "chip_pool":
        report = server.pool_report()
        for row in rows:
            row["chip_jobs"] = report["fidelity"].get("chip", 0)
            row["batch_makespan"] = report["batch_makespan_cycles"]
    return rows


def test_service_throughput(benchmark):
    keys, ops = _traffic()

    def sweep():
        rows = []
        for pool_size in (1, 2, 4):
            rows.extend(_serve(pool_size, "chip_pool", keys, ops))
        rows.extend(_serve(1, "software", keys, ops))
        return rows

    rows = benchmark(sweep)
    print_table(
        f"Serving throughput ({N_MULTS} EvalMult + {N_ADDS} Add jobs, "
        f"{PARAMS.cofhee_tower_count} towers)",
        rows, COLUMNS,
    )
    by_pool = {r["pool"]: r for r in rows if "pool" in r}
    # Tower sharding: same total work, >= 1.5x shorter makespan on 4
    # chips on the utilization view (max per-worker busy cycles).
    assert by_pool[4]["total_cycles"] == by_pool[1]["total_cycles"]
    assert by_pool[4]["wall_cycles"] * 3 <= by_pool[1]["wall_cycles"] * 2
    # The conservative view sums per-report makespans, and the chip pool
    # reports one job at a time: each EvalMult's key-switch tail is one
    # unit on one worker, so a job's makespan never drops below that
    # tail and this view scales ~1.3x here (56466 -> 42750 cycles), not
    # the ~3.3x it showed while a report covered a whole batch. It must
    # still shrink with every step up in pool size.
    assert (by_pool[4]["batch_makespan"] < by_pool[2]["batch_makespan"]
            < by_pool[1]["batch_makespan"])
    # Every EvalMult ran all of its towers through worker drivers (chip
    # rows must carry the counter; defaulting would hide a dead branch).
    assert all(r["chip_jobs"] == N_MULTS for r in by_pool.values())
    assert all(r["jobs"] == N_MULTS + N_ADDS for r in rows)


# ----------------------------------------------------------------------
# Wire-transport serving: the same workload through a real localhost
# socket — length-prefixed CRC frames, the worker-thread execution pump,
# and pushed completion events instead of polling.
# ----------------------------------------------------------------------


def test_transport_throughput(benchmark):
    from repro.service.client import FheClient
    from repro.service.transport import ThreadedTransportServer

    keys, ops = _traffic()

    def over_the_wire():
        with ThreadedTransportServer(pool_size=4) as ts:
            start = time.perf_counter()
            with FheClient(ts.host, ts.port) as client:
                sid = client.open_session(
                    "bench", serialize_params(PARAMS),
                    relin_key=serialize_relin_key(keys.relin, PARAMS),
                )
                jids = [
                    client.submit(sid, kind, operands)
                    for kind, operands, _expected in ops
                ]
                wires = [client.result(j) for j in jids]
            wall = time.perf_counter() - start
            report = ts.fhe.pool_report()
        return wires, wall, report

    wires, wall, report = benchmark.pedantic(
        over_the_wire, rounds=1, iterations=1
    )
    assert wires == [expected for _, _, expected in ops], (
        "transport results diverged from Bfv ground truth"
    )
    assert report["fidelity"].get("chip") == N_MULTS
    print_table(
        f"Wire-transport serving ({len(ops)} jobs over localhost TCP)",
        [{
            "backend": "chip_pool+tcp",
            "pool": 4,
            "jobs": len(ops),
            "wall_s": wall,
            "jobs_per_s": len(ops) / wall if wall > 0 else float("inf"),
            "batch_makespan": report["batch_makespan_cycles"],
            "total_cycles": report["total_cycles"],
            "chip_jobs": report["fidelity"].get("chip", 0),
        }],
        COLUMNS,
    )


# ----------------------------------------------------------------------
# App circuits over the wire: the Section VI-C applications compiled to
# the circuit encoding and served through a real localhost socket, with
# every payload checked bit-identical against in-process execution.
# ----------------------------------------------------------------------


def _app_circuits():
    """Rows of (label, model, compiled circuit, input wire bytes)."""
    from repro.apps.cryptonets import MiniCryptoNets
    from repro.apps.logreg import MiniLogisticRegression
    from repro.polymath.primes import ntt_friendly_prime

    rng = random.Random(17)
    rows = []

    lr_params = BfvParameters.toy_rns(
        n=16, towers=5, tower_bits=28, t=ntt_friendly_prime(16, 21)
    )
    logreg = MiniLogisticRegression(params=lr_params, num_features=6, seed=11)
    samples = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
    rows.append((
        "logreg", logreg, logreg.to_circuit(batch=len(samples)),
        tuple(serialize_ciphertext(ct)
              for ct in logreg.encrypt_features(samples)),
    ))

    cn_params = BfvParameters.toy_rns(
        n=16, towers=4, tower_bits=30, t=ntt_friendly_prime(16, 20)
    )
    cnn = MiniCryptoNets(params=cn_params, seed=7)
    images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(3)]
    rows.append((
        "cryptonets", cnn, cnn.to_circuit(),
        tuple(serialize_ciphertext(ct) for ct in cnn.encrypt_images(images)),
    ))
    return rows


def test_circuit_transport_throughput(benchmark):
    from repro.service.client import FheClient
    from repro.service.transport import ThreadedTransportServer

    apps = _app_circuits()

    # In-process ground truth per app (same server class, no socket).
    expected = {}
    for label, model, circuit, inputs in apps:
        server = FheServer(pool_size=4)
        sid = server.open_session(
            "truth", serialize_params(model.params),
            relin_key=serialize_relin_key(model.keys.relin, model.params),
        )
        expected[label] = server.result(server.submit(
            sid, JobKind.CIRCUIT, inputs, payload=circuit
        ))

    def over_the_wire():
        results = {}
        with ThreadedTransportServer(pool_size=4) as ts:
            with FheClient(ts.host, ts.port) as client:
                for label, model, circuit, inputs in apps:
                    sid = client.open_session(
                        label, serialize_params(model.params),
                        relin_key=serialize_relin_key(
                            model.keys.relin, model.params
                        ),
                    )
                    start = time.perf_counter()
                    payload = client.result(
                        client.submit_circuit(sid, circuit, inputs)
                    )
                    results[label] = (
                        payload, time.perf_counter() - start, circuit
                    )
            report = ts.fhe.pool_report()
        return results, report

    results, report = benchmark.pedantic(over_the_wire, rounds=1, iterations=1)
    for label, (payload, _wall, _circuit) in results.items():
        assert payload == expected[label], (
            f"{label} over the wire diverged from in-process execution"
        )
    assert report["fidelity"].get("chip") == len(apps)
    print_table(
        "App circuits over localhost TCP (bit-identical to in-process)",
        [
            {
                "backend": f"{label}+tcp",
                "pool": 4,
                "jobs": 1,
                "wall_s": wall,
                "jobs_per_s": 1 / wall if wall > 0 else float("inf"),
                "total_cycles": report["total_cycles"],
                "chip_jobs": report["fidelity"].get("chip", 0),
                "steps": len(circuit.steps),
                "tensors": len(circuit.tensor_steps),
            }
            for label, (_payload, wall, circuit) in results.items()
        ],
        COLUMNS + ["steps", "tensors"],
    )


# ----------------------------------------------------------------------
# Server-side circuit optimization: the same CryptoNets program served
# twice through identical chip pools — once with the optimizer off and
# once at level "lazy" (deferred relinearization). The work (executed
# tensor + key-switch units) must shrink >= 15% and the pool makespan
# must not regress; both servings must decode to the plaintext
# reference scores.
# ----------------------------------------------------------------------

OPTIMIZER_UNIT_GATE = 0.85  # lazy units <= 85% of unoptimized units


def _serve_cryptonets(level: str, cnn, circuit, inputs) -> tuple[dict, dict]:
    """One CryptoNets inference at ``optimizer_level=level``; row + outputs."""
    from repro.service.serialization import deserialize_circuit_outputs

    server = FheServer(pool_size=4, optimizer_level=level)
    sid = server.open_session(
        f"cnn-{level}", serialize_params(cnn.params),
        relin_key=serialize_relin_key(cnn.keys.relin, cnn.params),
    )
    start = time.perf_counter()
    jid = server.submit(sid, JobKind.CIRCUIT, inputs, payload=circuit)
    payload = server.result(jid)
    wall = time.perf_counter() - start
    rewrite = server.job_metrics(jid).rewrite
    report = server.pool_report()
    row = {
        "op": "serve_cryptonets_optimizer",
        "n": cnn.params.n,
        "towers": cnn.params.cofhee_tower_count,
        "engine": f"chip-x4-opt-{level}",
        "jobs": 1,
        "wall_s": round(wall, 3),
        "steps": rewrite["steps_after"],
        "tensor_units": rewrite["tensor_units"],
        "relin_units": rewrite["relin_units"],
        "work_units": rewrite["tensor_units"] + rewrite["relin_units"],
        "makespan_cycles": report["batch_makespan_cycles"],
    }
    return row, deserialize_circuit_outputs(payload, cnn.params)


def test_cryptonets_optimizer_units():
    """Optimized vs unoptimized CryptoNets on identical chip pools.

    Level ``lazy`` turns the per-multiply eager key switches into
    deferred batchable runs, so the served program must execute >= 15%
    fewer tensor + relinearization units than the submitted one — and
    the chip-pool makespan must not regress — while still decoding to
    the plaintext reference scores.
    """
    from repro.apps.cryptonets import MiniCryptoNets
    from repro.polymath.primes import ntt_friendly_prime

    params = BfvParameters.toy_rns(
        n=16, towers=4, tower_bits=30, t=ntt_friendly_prime(16, 20)
    )
    cnn = MiniCryptoNets(params=params, seed=7)
    rng = random.Random(19)
    images = [[rng.randint(-2, 2) for _ in range(36)] for _ in range(3)]
    circuit = cnn.to_circuit()
    inputs = tuple(
        serialize_ciphertext(ct) for ct in cnn.encrypt_images(images)
    )
    expected = cnn.infer_plain(images)

    eager, eager_outs = _serve_cryptonets("none", cnn, circuit, inputs)
    lazy, lazy_outs = _serve_cryptonets("lazy", cnn, circuit, inputs)
    for label, outs in (("unoptimized", eager_outs), ("lazy", lazy_outs)):
        scores = cnn.scores_from_outputs(outs, len(images))
        assert scores == expected, (
            f"{label} CryptoNets serving diverged from plaintext reference"
        )
    saved = 1 - lazy["work_units"] / eager["work_units"]
    lazy["units_saved_pct"] = round(100 * saved, 1)
    print_table(
        f"CryptoNets optimizer ({len(images)} images, "
        f"{len(circuit.steps)} submitted steps)",
        [eager, lazy],
        ["engine", "steps", "tensor_units", "relin_units", "work_units",
         "makespan_cycles", "wall_s"],
    )
    # The optimizer-off serving executes the submitted program verbatim.
    assert eager["steps"] == len(circuit.steps), eager
    # Lazy relinearization sheds >= 15% of the tensor + key-switch work…
    assert (lazy["work_units"]
            <= eager["work_units"] * OPTIMIZER_UNIT_GATE), (
        f"lazy executed {lazy['work_units']} tensor+relin units, "
        f"needed <= {OPTIMIZER_UNIT_GATE}x of eager "
        f"{eager['work_units']}"
    )
    # …and never at the cost of the pool's critical path.
    assert lazy["makespan_cycles"] <= eager["makespan_cycles"], (
        f"lazy makespan {lazy['makespan_cycles']} regressed past "
        f"unoptimized {eager['makespan_cycles']}"
    )
    _merge_bench_rows([eager, lazy])
    print(f"\nlazy relinearization sheds {100 * saved:.0f}% of the "
          f"tensor+relin units with no makespan regression ✓")


# ----------------------------------------------------------------------
# Paper-scale serving: n = 2^13 (the Section VI-B large configuration),
# chip-native towers, tower-sharded across a pool of 4. Slow-marked; run
# via ``tools/run_checks.sh --slow`` or ``pytest ... --slow``.
# ----------------------------------------------------------------------

PAPER_MULTS = 2


@pytest.mark.paper_scale
def test_service_throughput_paper_scale():
    """EvalMult at n = 2^13 through the full serving stack.

    The batched engine is what makes this affordable: the host-side
    tensor, the ground-truth relinearization, and every per-tower mod-q
    cross-check all run vectorized, while the chip pool shards the
    4-tower tensor across its workers.
    """
    params = BfvParameters.toy_rns(n=2**13, towers=4, tower_bits=30)
    bfv = Bfv(params, seed=131)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(params)
    rng = random.Random(8)
    cts = []
    ops = []
    for _ in range(PAPER_MULTS):
        a = bfv.encrypt(
            encoder.encode([rng.randrange(64) for _ in range(params.n)]),
            keys.public,
        )
        b = bfv.encrypt(
            encoder.encode([rng.randrange(64) for _ in range(params.n)]),
            keys.public,
        )
        cts.append((a, b))
        ops.append((JobKind.MULTIPLY, (serialize_ciphertext(a), serialize_ciphertext(b))))

    start = time.perf_counter()
    server = FheServer(pool_size=4)
    sid = server.open_session(
        "paper",
        serialize_params(params),
        relin_key=serialize_relin_key(keys.relin, params),
    )
    jids = [server.submit(sid, kind, operands) for kind, operands in ops]
    wires = [server.result(jid) for jid in jids]
    wall = time.perf_counter() - start

    report = server.pool_report()
    rows = server.throughput_rows()
    for row in rows:
        row["chip_jobs"] = report["fidelity"].get("chip", 0)
        row["batch_makespan"] = report["batch_makespan_cycles"]
    print_table(
        f"Paper-scale serving ({PAPER_MULTS} EvalMult, "
        f"{params.describe()}, wall {wall:.1f}s)",
        rows, COLUMNS,
    )
    # Every tensor executed chip-natively, tower-sharded across workers.
    assert report["fidelity"].get("chip") == PAPER_MULTS
    assert len(report["tower_cycles"]) == params.cofhee_tower_count
    metrics = server.job_metrics(jids[0])
    assert len(set(metrics.tower_workers)) == params.cofhee_tower_count
    # The engine-backed serving stack answers bit-for-bit with local
    # ground truth at paper scale.
    expected = bfv.multiply_relin(cts[0][0], cts[0][1], keys.relin)
    assert wires[0] == serialize_ciphertext(expected)


# ----------------------------------------------------------------------
# Multi-process fleet serving: client and server in SEPARATE
# interpreters — ``repro-serve --fleet N`` spawned as a subprocess, the
# sync client driving it over localhost TCP. Four parameter sets whose
# digests route to four distinct workers, so a fleet of 4 overlaps the
# work a fleet of 1 serializes; the gate is the repo's makespan
# convention (modeled cycles on the busiest worker — worker processes
# execute concurrently, so the busiest worker is the wall time).
# Slow-marked; run via ``tools/run_checks.sh --slow``.
# ----------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"
FLEET_N = 2**12
FLEET_SETS = 4
_CYCLES_LINE = re.compile(
    r'repro_fleet_worker_cycles_total\{[^}]*worker="(\d+)"[^}]*\}\s+'
    r"([0-9.eE+]+)"
)


def _fleet_param_sets(size: int) -> list:
    """Parameter sets whose digests route to ``size`` distinct workers."""
    from repro.service.fleet import route_index
    from repro.service.serialization import params_digest

    chosen = {}
    for towers in (3, 4):
        for bits in range(24, 31):
            params = BfvParameters.toy_rns(
                n=FLEET_N, towers=towers, tower_bits=bits
            )
            slot = route_index(params_digest(params), size)
            chosen.setdefault(slot, params)
            if len(chosen) == size:
                return [chosen[i] for i in range(size)]
    raise AssertionError(
        f"could not spread {size} digests over {size} workers"
    )


def _fleet_traffic(param_sets):
    """One EvalMult per parameter set, with local ground truth."""
    from repro.polymath.fastntt import RnsExactMultiplier

    rng = random.Random(23)
    traffic = []
    for i, params in enumerate(param_sets):
        bfv = Bfv(params, seed=500 + i,
                  multiplier=RnsExactMultiplier(params.n, params.q))
        keys = bfv.keygen(relin_digit_bits=30)
        encoder = BatchEncoder(params)
        a = bfv.encrypt(encoder.encode(
            [rng.randrange(64) for _ in range(256)]), keys.public)
        b = bfv.encrypt(encoder.encode(
            [rng.randrange(64) for _ in range(256)]), keys.public)
        expected = serialize_ciphertext(
            bfv.multiply_relin(a, b, keys.relin)
        )
        traffic.append((params, keys, (
            serialize_ciphertext(a), serialize_ciphertext(b),
        ), expected))
    return traffic


def _spawn_fleet_server(fleet: int) -> tuple[subprocess.Popen, str, int]:
    """``repro-serve --fleet N`` in its own interpreter; parse the bind."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli",
         "--listen", "127.0.0.1:0", "--fleet", str(fleet)],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert proc.stdout is not None
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    raise AssertionError("repro-serve never announced its listen address")


def _drive_fleet(fleet: int, traffic) -> dict:
    """Serve the shared traffic from a separate-interpreter fleet."""
    from repro.service.client import FheClient

    proc, host, port = _spawn_fleet_server(fleet)
    try:
        with FheClient(host, port, timeout=600.0) as client:
            start = time.perf_counter()
            jids = []
            for i, (params, keys, operands, _expected) in enumerate(traffic):
                sid = client.open_session(
                    f"bench{i}", serialize_params(params),
                    relin_key=serialize_relin_key(keys.relin, params),
                )
                jids.append(client.submit(sid, JobKind.MULTIPLY, operands))
            wires = [client.result(j) for j in jids]
            wall = time.perf_counter() - start
            per_worker = {
                int(w): int(float(c))
                for w, c in _CYCLES_LINE.findall(client.stats())
            }
    finally:
        proc.terminate()
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    for wire, (_p, _k, _ops, expected) in zip(wires, traffic):
        assert wire == expected, (
            f"fleet x{fleet} result diverged from Bfv ground truth"
        )
    return {
        "op": "serve_fleet_paper",
        "n": FLEET_N,
        "towers": "3-4",
        "engine": f"fleet-x{fleet}",
        "jobs": len(traffic),
        "wall_s": round(wall, 3),
        "jobs_per_s": round(len(traffic) / wall, 3) if wall > 0 else 0.0,
        "workers_used": len(per_worker),
        "total_cycles": sum(per_worker.values()),
        "makespan_cycles": max(per_worker.values(), default=0),
    }


def _bench_row_key(row: dict) -> tuple:
    """The identity of one benchmark row: ``(op, n, towers, engine)``.

    Keying on ``op`` alone would let one configuration's row clobber
    another's — e.g. the fleet bench's x1 and x4 rows share an op and
    differ only by engine, and a re-run at a different degree must
    replace only its own row.
    """
    return (row.get("op"), row.get("n"), row.get("towers"), row.get("engine"))


def _merge_bench_rows(rows: list[dict]) -> None:
    """Record serving rows in BENCH_kernels.json, keeping foreign rows.

    Only rows whose full ``(op, n, towers, engine)`` identity matches one
    being written are replaced, so the fleet and spill-over benches own
    their configurations without clobbering each other, the kernel rows,
    or sibling rows of the same op.
    """
    keys = {_bench_row_key(row) for row in rows}
    existing = []
    if BENCH_JSON.exists():
        existing = [
            row for row in json.loads(BENCH_JSON.read_text())
            if _bench_row_key(row) not in keys
        ]
    BENCH_JSON.write_text(json.dumps(existing + rows, indent=2) + "\n")


@pytest.mark.paper_scale
def test_fleet_throughput_paper_scale():
    """Fleet of 4 worker processes vs fleet of 1 on identical traffic.

    Four parameter sets, digests spread across all four workers; every
    result checked bit-identical to local ground truth. The fleet of 4
    must serve the traffic with a >= 2x shorter makespan (busiest-worker
    cycles) than the fleet of 1 — the work does not shrink, it spreads.
    """
    param_sets = _fleet_param_sets(FLEET_SETS)
    traffic = _fleet_traffic(param_sets)
    rows = [_drive_fleet(fleet, traffic) for fleet in (1, 4)]
    x1, x4 = rows
    speedup = (
        x1["makespan_cycles"] / x4["makespan_cycles"]
        if x4["makespan_cycles"] else 0.0
    )
    x4["makespan_speedup_vs_x1"] = round(speedup, 2)
    print_table(
        f"Fleet serving ({FLEET_SETS} param sets, separate interpreters, "
        f"n = {FLEET_N})",
        rows,
        ["engine", "jobs", "workers_used", "wall_s", "jobs_per_s",
         "total_cycles", "makespan_cycles"],
    )
    # The single fleet worker served everything; the fleet of 4 spread
    # the digests across every worker.
    assert x1["workers_used"] == 1, x1
    assert x4["workers_used"] == FLEET_SETS, x4
    # Same modeled work either way (the chips don't get faster)...
    assert x4["total_cycles"] == x1["total_cycles"]
    # ...but the busiest worker's share — the fleet's wall time, since
    # workers are concurrent interpreters — drops >= 2x.
    assert x4["makespan_cycles"] * 2 <= x1["makespan_cycles"], (
        f"fleet x4 makespan {x4['makespan_cycles']} not >= 2x better "
        f"than x1 {x1['makespan_cycles']}"
    )
    _merge_bench_rows(rows)
    print(f"\nfleet x4 makespan is {speedup:.2f}x shorter than x1 "
          f"on identical paper-scale traffic ✓")


# ----------------------------------------------------------------------
# Spill-over routing under a skewed tenant mix: one hot tenant supplies
# 80% of the traffic, so digest-pinned routing piles its whole load onto
# one worker while the rest of the fleet idles. The same traffic with
# ``spill_threshold=1`` must spread across the fleet and cut the
# makespan (busiest-worker cycles) by >= 1.3x. Thread-mode workers keep
# this fast enough for the smoke pass; every payload is checked
# bit-identical against local Bfv ground truth either way.
# ----------------------------------------------------------------------

SPILL_FLEET = 4
SPILL_HOT_JOBS = 8
SPILL_COLD_JOBS = 2
SPILL_GATE = 1.3


def _spillover_traffic():
    """A hot tenant (80% of jobs) and a cold tenant, with ground truth.

    The tenants use different tower widths so their digests are
    distinct sessions; the skew — not the digest spread — is what the
    bench exercises.
    """
    rng = random.Random(41)
    tenants = []
    for label, bits, jobs in (
        ("hot", 20, SPILL_HOT_JOBS), ("cold", 21, SPILL_COLD_JOBS)
    ):
        params = BfvParameters.toy_rns(n=16, towers=3, tower_bits=bits)
        bfv = Bfv(params, seed=900 + bits)
        keys = bfv.keygen(relin_digit_bits=12)
        encoder = BatchEncoder(params)
        ops = []
        for _ in range(jobs):
            a = bfv.encrypt(
                encoder.encode([rng.randrange(32) for _ in range(params.n)]),
                keys.public,
            )
            b = bfv.encrypt(
                encoder.encode([rng.randrange(32) for _ in range(params.n)]),
                keys.public,
            )
            ops.append((
                (serialize_ciphertext(a), serialize_ciphertext(b)),
                serialize_ciphertext(bfv.multiply_relin(a, b, keys.relin)),
            ))
        tenants.append((label, params, keys, ops))
    return tenants


def _serve_spillover(spill_threshold: int, tenants) -> dict:
    """Serve the skewed traffic through a thread-mode fleet of 4."""
    server = FheServer(
        fleet_size=SPILL_FLEET, fleet_mode="thread",
        fleet_options={"spill_threshold": spill_threshold},
    )
    with server:
        checks = []
        start = time.perf_counter()
        for label, params, keys, ops in tenants:
            sid = server.open_session(
                label, serialize_params(params),
                relin_key=serialize_relin_key(keys.relin, params),
            )
            for operands, expected in ops:
                checks.append((
                    server.submit(sid, JobKind.MULTIPLY, operands),
                    expected, label,
                ))
        server.run()
        wall = time.perf_counter() - start
        for jid, expected, label in checks:
            assert server.result(jid) == expected, (
                f"{label} tenant diverged from Bfv ground truth at "
                f"spill_threshold={spill_threshold}"
            )
        report = server.fleet_report()
        worker_cycles = dict(server.fleet.worker_cycles)
    assert report["in_flight"] == 0, report
    return {
        "op": "serve_fleet_spillover",
        "n": 16,
        "towers": 3,
        "engine": f"fleet-x{SPILL_FLEET}-"
                  + (f"spill{spill_threshold}" if spill_threshold
                     else "pinned"),
        "jobs": len(checks),
        "hot_jobs": SPILL_HOT_JOBS,
        "wall_s": round(wall, 3),
        "jobs_per_s": round(len(checks) / wall, 3) if wall > 0 else 0.0,
        "workers_used": sum(1 for c in worker_cycles.values() if c),
        "total_cycles": report["total_cycles"],
        "makespan_cycles": report["makespan_cycles"],
        "spillovers": report["routing"]["spill"],
    }


def test_fleet_spillover_skewed_tenant():
    """Spill-over routing vs digest pinning on a hot-tenant skew.

    Identical traffic both times — the work (total cycles) must not
    change; only where it lands does. The gate is the repo's makespan
    convention: busiest-worker cycles, >= 1.3x shorter with spill-over.
    """
    tenants = _spillover_traffic()
    pinned = _serve_spillover(0, tenants)
    spill = _serve_spillover(1, tenants)
    speedup = (
        pinned["makespan_cycles"] / spill["makespan_cycles"]
        if spill["makespan_cycles"] else 0.0
    )
    spill["makespan_speedup_vs_pinned"] = round(speedup, 2)
    print_table(
        f"Spill-over routing ({SPILL_HOT_JOBS}+{SPILL_COLD_JOBS} jobs, "
        f"hot tenant = 80% of traffic, fleet of {SPILL_FLEET})",
        [pinned, spill],
        ["engine", "jobs", "workers_used", "spillovers", "wall_s",
         "total_cycles", "makespan_cycles"],
    )
    # Pinned routing never spills and strands the hot tenant's load on
    # its home worker; spill-over spreads it across the fleet.
    assert pinned["spillovers"] == 0, pinned
    assert spill["spillovers"] >= 1, spill
    assert spill["workers_used"] > pinned["workers_used"], (pinned, spill)
    # Same modeled work either way (the chips don't get faster)...
    assert spill["total_cycles"] == pinned["total_cycles"], (pinned, spill)
    # ...but the busiest worker sheds >= 1.3x of its share.
    assert (spill["makespan_cycles"] * SPILL_GATE
            <= pinned["makespan_cycles"]), (
        f"spill-over makespan {spill['makespan_cycles']} not >= "
        f"{SPILL_GATE}x better than pinned {pinned['makespan_cycles']}"
    )
    _merge_bench_rows([pinned, spill])
    print(f"\nspill-over makespan is {speedup:.2f}x shorter than pinned "
          f"routing on the skewed tenant mix ✓")
