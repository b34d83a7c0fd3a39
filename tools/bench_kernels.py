#!/usr/bin/env python
"""Kernel + serving micro-benchmarks -> BENCH_kernels.json (perf gate).

Measures the batched RNS tower engine against the exact pure-Python path
on the kernels that dominate the software serving path — forward/inverse
negacyclic NTT over a full tower stack and the 3-tower Eq. 4 EvalMult
tensor at the paper's n = 2^12 — plus an end-to-end chip-pool serving
micro-benchmark run twice (engine auto-selected vs ``REPRO_ENGINE=off``).

Every row is machine-readable so the perf trajectory is diffable from PR
to PR:

    {"op", "n", "towers", "engine", "ns_per_op", "speedup_vs_pure_python"}

The script **fails** (exit 1) if the 3-tower n = 2^12 EvalMult speedup
drops below ``GATE_EVALMULT_SPEEDUP`` — the acceptance gate that keeps
the hot path from quietly regressing to per-butterfly Python — or if an
end-to-end serving row falls under its floor
(``GATE_SERVE_SOFTWARE_SPEEDUP`` / ``GATE_SERVE_CHIP_POOL_SPEEDUP``),
the gates that keep serving-layer overhead (scheduling, telemetry,
serialization) from eating the kernel wins.

Run via ``tools/run_checks.sh --bench`` (or directly with
``PYTHONPATH=src python tools/bench_kernels.py``).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.baselines.software import SoftwareBfv  # noqa: E402
from repro.bfv import BatchEncoder, Bfv, BfvParameters  # noqa: E402
from repro.polymath.engine import BatchedRnsEngine  # noqa: E402
from repro.polymath.ntt import NttContext  # noqa: E402
from repro.polymath.rns import RnsBasis, plan_towers  # noqa: E402
from repro.service.jobs import JobKind  # noqa: E402
from repro.service.serialization import (  # noqa: E402
    serialize_ciphertext,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer  # noqa: E402

#: Acceptance gate: engine vs pure-Python on the 3-tower n=2^12 EvalMult.
GATE_EVALMULT_SPEEDUP = 10.0

#: Acceptance gates on the end-to-end serving rows: with the engine on,
#: each serving row must beat the ``REPRO_ENGINE=off`` path by its
#: factor. The software row is pure host arithmetic, so batched tensors,
#: the shared key-switch fold, and warm key-row NTT forms carry almost
#: the whole job; the chip-pool gate is lower because the
#: cycle-accounted chip simulation runs identically either way (the
#: residual Amdahl gap ``tools/profile_serve.py`` itemizes).
GATE_SERVE_SOFTWARE_SPEEDUP = 8.0
GATE_SERVE_CHIP_POOL_SPEEDUP = 4.0

#: Kernel benchmark scale (the paper's small configuration).
KERNEL_N = 2**12
KERNEL_TOWERS = 3
KERNEL_TOWER_BITS = 30

#: Serving micro-benchmark scale (chip-native multi-tower toy set).
SERVE_N = 256
SERVE_TOWERS = 3
SERVE_MULTS = 2
SERVE_ADDS = 2

#: Software-backend serving benchmark scale (host arithmetic only).
SERVE_SW_N = 512

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _best(fn, repeats: int) -> float:
    """Best-of-N wall seconds for one call (first call warms caches)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _row(op, n, towers, engine, seconds, baseline_seconds=None) -> dict:
    return {
        "op": op,
        "n": n,
        "towers": towers,
        "engine": engine,
        "ns_per_op": round(seconds * 1e9, 1),
        "speedup_vs_pure_python": (
            round(baseline_seconds / seconds, 2)
            if baseline_seconds is not None else 1.0
        ),
    }


def bench_kernels() -> list[dict]:
    """NTT + EvalMult kernels: one 'op' = one full tower-stack operation."""
    n, towers = KERNEL_N, KERNEL_TOWERS
    basis = RnsBasis(plan_towers(KERNEL_TOWER_BITS * towers, KERNEL_TOWER_BITS, n))
    engine = BatchedRnsEngine(basis, n)
    refs = [NttContext(n, q) for q in basis.moduli]
    rng = random.Random(17)
    stack_list = [[rng.randrange(q) for _ in range(n)] for q in basis.moduli]
    stack = engine.stack(stack_list)
    fwd = engine.forward(stack)
    fwd_list = fwd.tolist()

    rows = []
    for op, pure_fn, fast_fn in (
        (
            "ntt_forward",
            lambda: [ref.forward(t) for ref, t in zip(refs, stack_list)],
            lambda: engine.forward(stack),
        ),
        (
            "ntt_inverse",
            lambda: [ref.inverse(t) for ref, t in zip(refs, fwd_list)],
            lambda: engine.inverse(fwd),
        ),
    ):
        pure_s = _best(pure_fn, repeats=2)
        fast_s = _best(fast_fn, repeats=5)
        rows.append(_row(op, n, towers, "pure-python", pure_s))
        rows.append(_row(op, n, towers, "batched-rns", fast_s, pure_s))

    # The acceptance-gated row: the full software-path EvalMult tensor.
    Q = basis.modulus
    ca = tuple([rng.randrange(Q) for _ in range(n)] for _ in range(2))
    cb = tuple([rng.randrange(Q) for _ in range(n)] for _ in range(2))
    pure_sw = SoftwareBfv(basis, n, engine="pure")
    fast_sw = SoftwareBfv(basis, n, engine="batched")
    reference = pure_sw.ciphertext_multiply(ca, cb)
    if fast_sw.ciphertext_multiply(ca, cb) != reference:
        raise SystemExit("engine EvalMult diverged from pure-Python — abort")
    pure_s = _best(lambda: pure_sw.ciphertext_multiply(ca, cb), repeats=2)
    fast_s = _best(lambda: fast_sw.ciphertext_multiply(ca, cb), repeats=5)
    rows.append(_row("evalmult_tensor", n, towers, "pure-python", pure_s))
    rows.append(_row("evalmult_tensor", n, towers, "batched-rns", fast_s, pure_s))
    return rows


def _make_traffic(params, keys, n_mults, n_adds, seed=23):
    bfv = Bfv(params, seed=99)
    encoder = BatchEncoder(params)
    rng = random.Random(seed)
    jobs = []
    for kind, count in ((JobKind.MULTIPLY, n_mults), (JobKind.ADD, n_adds)):
        for _ in range(count):
            a = bfv.encrypt(
                encoder.encode([rng.randrange(16) for _ in range(params.n)]),
                keys.public,
            )
            b = bfv.encrypt(
                encoder.encode([rng.randrange(16) for _ in range(params.n)]),
                keys.public,
            )
            jobs.append(
                (kind, (serialize_ciphertext(a), serialize_ciphertext(b)))
            )
    return jobs


def _serve_once(params, keys, jobs, backend) -> float:
    """Wall seconds to drain a mixed workload through one backend."""
    server = FheServer(pool_size=2, result_cache_size=0)
    sid = server.open_session(
        "bench", serialize_params(params),
        relin_key=serialize_relin_key(keys.relin, params),
    )
    for kind, operands in jobs:
        server.submit(sid, kind, operands, backend=backend)
    t0 = time.perf_counter()
    server.run()
    return time.perf_counter() - t0


def bench_serving() -> list[dict]:
    """End-to-end serving, engine-backed vs ``REPRO_ENGINE=off``.

    Two views: the ``software`` backend is pure host arithmetic (the
    engine *is* the serving path there); the ``chip_pool`` backend runs
    the same cycle-accounted chip simulation either way, so its delta
    isolates what the vectorized host tensor + mod-q cross-check save on
    top of an unchanged chip model.
    """
    rows = []
    for op, n, backend, mults, adds in (
        ("serve_job_software", SERVE_SW_N, "software", 2, 2),
        ("serve_job_chip_pool", SERVE_N, "chip_pool", SERVE_MULTS, SERVE_ADDS),
    ):
        params = BfvParameters.toy_rns(n=n, towers=SERVE_TOWERS,
                                       tower_bits=24)
        keys = Bfv(params, seed=99).keygen(relin_digit_bits=20)
        jobs = _make_traffic(params, keys, mults, adds)
        n_jobs = len(jobs)
        fast_s = min(
            _serve_once(params, keys, jobs, backend) for _ in range(2)
        ) / n_jobs
        os.environ["REPRO_ENGINE"] = "off"
        try:
            pure_s = _serve_once(params, keys, jobs, backend) / n_jobs
        finally:
            os.environ.pop("REPRO_ENGINE", None)
        rows.append(_row(op, n, SERVE_TOWERS, "pure-python", pure_s))
        rows.append(_row(op, n, SERVE_TOWERS, "batched-rns", fast_s, pure_s))
    return rows


def _foreign_rows(rows: list[dict], path: Path) -> list[dict]:
    """Rows in ``path`` that other benchmarks own, to carry forward.

    The fleet paper-scale rows from
    ``benchmarks/bench_service_throughput.py`` land in the same file.
    Identity is the full ``(op, n, towers, engine)`` tuple — an op alone
    is not unique (the fleet bench writes two rows per op, and a re-run
    at a different configuration must only replace its own row).
    """
    owned = {(r["op"], r["n"], r["towers"], r["engine"]) for r in rows}
    if not path.exists():
        return []
    try:
        return [
            r for r in json.loads(path.read_text())
            if (r.get("op"), r.get("n"), r.get("towers"), r.get("engine"))
            not in owned
        ]
    except (json.JSONDecodeError, OSError):
        return []


def main() -> int:
    rows = bench_kernels() + bench_serving()
    OUT_PATH.write_text(
        json.dumps(rows + _foreign_rows(rows, OUT_PATH), indent=2) + "\n"
    )
    width = max(len(r["op"]) for r in rows) + 2
    for r in rows:
        print(
            f"{r['op']:<{width}} n={r['n']:<6} towers={r['towers']} "
            f"{r['engine']:<13} {r['ns_per_op'] / 1e6:10.3f} ms/op  "
            f"x{r['speedup_vs_pure_python']}"
        )
    print(f"\nwrote {OUT_PATH}")
    gates = {
        "evalmult_tensor": GATE_EVALMULT_SPEEDUP,
        "serve_job_software": GATE_SERVE_SOFTWARE_SPEEDUP,
        "serve_job_chip_pool": GATE_SERVE_CHIP_POOL_SPEEDUP,
    }
    failed = False
    for r in rows:
        if r["engine"] != "batched-rns" or r["op"] not in gates:
            continue
        speedup, floor = r["speedup_vs_pure_python"], gates[r["op"]]
        if speedup < floor:
            print(
                f"PERF GATE FAILED: {r['op']} speedup {speedup}x < "
                f"{floor}x (engine vs pure-python)",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"perf gate ok: {r['op']} {speedup}x >= {floor}x")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
