#!/usr/bin/env python
"""Kernel micro-benchmarks -> BENCH_kernels.json (perf gate).

Measures the batched RNS tower engine against the exact pure-Python path
on the kernels that dominate the software serving path — forward/inverse
negacyclic NTT over a full tower stack and the 3-tower Eq. 4 EvalMult
tensor at the paper's n = 2^12.

Every row is machine-readable so the perf trajectory is diffable from PR
to PR:

    {"op", "n", "towers", "engine", "ns_per_op", "speedup_vs_pure_python"}

The script **fails** (exit 1) if the 3-tower n = 2^12 EvalMult speedup
drops below ``GATE_EVALMULT_SPEEDUP`` — the acceptance gate that keeps
the hot path from quietly regressing to per-butterfly Python.

Run via ``tools/run_checks.sh --bench`` (or directly with
``PYTHONPATH=src python tools/bench_kernels.py``).
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.software import SoftwareBfv  # noqa: E402
from repro.polymath.engine import BatchedRnsEngine  # noqa: E402
from repro.polymath.ntt import NttContext  # noqa: E402
from repro.polymath.rns import RnsBasis, plan_towers  # noqa: E402

#: Acceptance gate: engine vs pure-Python on the 3-tower n=2^12 EvalMult.
GATE_EVALMULT_SPEEDUP = 10.0

#: Kernel benchmark scale (the paper's small configuration).
KERNEL_N = 2**12
KERNEL_TOWERS = 3
KERNEL_TOWER_BITS = 30

#: Rows this script used to write and no longer does: a regenerated file
#: drops them rather than carrying them forward as foreign rows.
RETIRED_OPS = frozenset({"serve_job_software", "serve_job_chip_pool"})

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

    # The acceptance-gated row: the full software-path EvalMult tensor,
    # against the per-tower pure-Python reference plus CRT recombination.
    Q = basis.modulus
    ca = tuple([rng.randrange(Q) for _ in range(n)] for _ in range(2))
    cb = tuple([rng.randrange(Q) for _ in range(n)] for _ in range(2))
    sw = SoftwareBfv(basis, n)

    def pure():
        _, outputs = sw.tensor_towers(ca, cb)
        return [basis.reconstruct_poly(y.tolist()) for y in outputs]

    if sw.ciphertext_multiply(ca, cb) != pure():
        raise SystemExit("engine EvalMult diverged from pure-Python — abort")
    pure_s = _best(pure, repeats=2)
    fast_s = _best(lambda: sw.ciphertext_multiply(ca, cb), repeats=5)
    rows.append(_row("evalmult_tensor", n, towers, "pure-python", pure_s))
    rows.append(_row("evalmult_tensor", n, towers, "batched-rns", fast_s, pure_s))
    return rows


def _foreign_rows(rows: list[dict], path: Path) -> list[dict]:
    """Rows in ``path`` that other benchmarks own, to carry forward.

    The fleet paper-scale rows from
    ``benchmarks/bench_service_throughput.py`` land in the same file.
    Identity is the full ``(op, n, towers, engine)`` tuple — an op alone
    is not unique (the fleet bench writes two rows per op, and a re-run
    at a different configuration must only replace its own row). Rows
    of :data:`RETIRED_OPS` are nobody's any more and are dropped.
    """
    owned = {(r["op"], r["n"], r["towers"], r["engine"]) for r in rows}
    if not path.exists():
        return []
    try:
        return [
            r for r in json.loads(path.read_text())
            if (r.get("op"), r.get("n"), r.get("towers"), r.get("engine"))
            not in owned and r.get("op") not in RETIRED_OPS
        ]
    except (json.JSONDecodeError, OSError):
        return []


def main() -> int:
    rows = bench_kernels()
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
    failed = False
    for r in rows:
        if r["engine"] != "batched-rns" or r["op"] != "evalmult_tensor":
            continue
        speedup, floor = r["speedup_vs_pure_python"], GATE_EVALMULT_SPEEDUP
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
