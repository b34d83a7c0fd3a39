#!/usr/bin/env python
"""Serving-path phase profiler -> BENCH_serve_phases.json.

Drives a mixed raw-op/app-circuit workload through an **in-process**
:class:`~repro.service.server.FheServer` once per backend and prints the
span-tracing phase-attribution table that
:func:`~repro.service.telemetry.aggregate_phases` folds out of the jobs'
:class:`~repro.service.telemetry.JobTrace` records: wall seconds and
percent of end-to-end job latency per phase, with a ``(total)`` coverage
row saying how much of the measured latency the spans explain.

This is the tool the tracing subsystem exists for: BENCH_kernels.json
says the kernels got 16-27x faster while ``serve_job`` improved ~2-2.6x,
and this table shows where the remaining serving time actually goes
(queue wait? batch planning? the gather barrier? serialization?) per
backend, so the next perf PR can aim at the biggest bar instead of
guessing.

The script **fails** (exit 1) if coverage — the ``(total)`` row's
percent — drops below ``GATE_COVERAGE_PERCENT`` for any profiled
backend: an instrumentation gap (a phase nobody spans anymore) should
break the build, not silently shrink the table.

It also gates the chip-pool **relinearization share**: the combined
``relin_tail`` + ``keyswitch`` seconds as a percent of job *busy* time
(every phase except ``queue_wait`` and ``batch_wait``) must stay at or
below the share recorded in the previous ``BENCH_serve_phases.json``
(read *before* this run overwrites it), plus a small noise slack.
Dividing by busy time rather than latency keeps the gate about the key
switch: a change that only removes waiting shrinks latency and would
otherwise raise the share with no key switch getting slower. Each
table also prints the waiting share, ``queue_wait`` + ``batch_wait`` as
a percent of latency.

Run via ``tools/run_checks.sh --obs`` (smoke scale) or directly with
``PYTHONPATH=src python tools/profile_serve.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bfv import BatchEncoder, Bfv, BfvParameters  # noqa: E402
from repro.service.circuits import CircuitBuilder  # noqa: E402
from repro.service.jobs import JobKind, JobStatus  # noqa: E402
from repro.service.serialization import (  # noqa: E402
    serialize_ciphertext,
    serialize_circuit,
    serialize_params,
    serialize_relin_key,
)
from repro.service.server import FheServer  # noqa: E402

#: Acceptance gate: the recorded phases must explain at least this much
#: of the summed end-to-end job latency, per backend.
GATE_COVERAGE_PERCENT = 90.0

#: Relin-share regression slack, in absolute percentage points: the new
#: chip-pool ``relin_tail + keyswitch`` share may exceed the baseline
#: file's share by at most this much (a fixed absolute slack absorbs
#: timer noise without hiding a real regression back toward per-digit
#: Python folds).
GATE_RELIN_SHARE_SLACK_POINTS = 1.0

#: Phases that are waiting rather than work on the job.
WAIT_PHASES = ("queue_wait", "batch_wait")

BACKENDS = ("software", "chip_pool")

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve_phases.json"


def _mix_circuit():
    """Depth-1 two-input circuit: ``out = square_relin(x) + y``."""
    b = CircuitBuilder("profile-mix")
    x = b.input("x")
    y = b.input("y")
    b.output("out", b.add(b.square_relin(x), y))
    return b.build()


def _make_workload(params, keys, *, mults, adds, circuits, seed=29):
    """A submit-ready mixed job list: ``(kind, operands, payload)``."""
    bfv = Bfv(params, seed=99)
    encoder = BatchEncoder(params)
    rng = random.Random(seed)

    def fresh_ct():
        return serialize_ciphertext(bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(params.n)]),
            keys.public,
        ))

    circuit_wire = serialize_circuit(_mix_circuit())
    jobs = []
    for _ in range(mults):
        jobs.append((JobKind.MULTIPLY, (fresh_ct(), fresh_ct()), None))
    for _ in range(adds):
        jobs.append((JobKind.ADD, (fresh_ct(), fresh_ct()), None))
    for _ in range(circuits):
        jobs.append((JobKind.CIRCUIT, (fresh_ct(), fresh_ct()), circuit_wire))
    rng.shuffle(jobs)
    return jobs


def profile_backend(backend, params, keys, jobs, *, pool_size, max_batch):
    """Run the workload on one backend; return (rows, wall_seconds)."""
    server = FheServer(
        pool_size=pool_size, max_batch=max_batch, result_cache_size=0
    )
    sid = server.open_session(
        "profiler", serialize_params(params),
        relin_key=serialize_relin_key(keys.relin, params),
    )
    t0 = time.perf_counter()
    job_ids = [
        server.submit(sid, kind, operands, payload=payload, backend=backend)
        for kind, operands, payload in jobs
    ]
    server.run()
    wall = time.perf_counter() - t0
    for job_id in job_ids:
        status = server.poll(job_id)
        if status is not JobStatus.DONE:
            raise SystemExit(
                f"profiler job {job_id} on {backend} ended {status}"
            )
        server.result(job_id)  # records the serialize span
    return server.phase_report(backend=backend), wall


def _phase_seconds(rows, backend: str) -> dict[str, float]:
    """Seconds per phase for one backend (``(total)`` excluded).

    ``rows`` may be per-backend rows (no ``backend`` key) or the flat
    JSON rows a previous run wrote.
    """
    return {
        r["phase"]: r["seconds"]
        for r in rows
        if r.get("backend", backend) == backend and r["phase"] != "(total)"
    }


def _relin_share(rows, backend="chip_pool") -> float:
    """Combined relin_tail + keyswitch percent of job busy time.

    Busy time is every phase except :data:`WAIT_PHASES`; phases that
    never ran count as 0.
    """
    seconds = _phase_seconds(rows, backend)
    busy = sum(s for p, s in seconds.items() if p not in WAIT_PHASES)
    relin = seconds.get("relin_tail", 0.0) + seconds.get("keyswitch", 0.0)
    return 100.0 * relin / busy if busy > 0 else 0.0


def _wait_share(rows) -> float:
    """queue_wait + batch_wait as a percent of job latency."""
    return sum(r["percent"] for r in rows if r["phase"] in WAIT_PHASES)


def print_table(backend, rows, wall):
    print(f"\n{backend} backend — phase attribution "
          f"({rows[-1]['spans']} spans, {wall * 1e3:.1f} ms end to end)")
    print(f"  {'phase':<16} {'ms':>10} {'% of job wall':>14} {'spans':>7}")
    for r in rows:
        marker = "=" * max(1, round(r["percent"] / 2.5))
        if r["phase"] == "(total)":
            print(f"  {'-' * 51}")
            marker = ""
        print(
            f"  {r['phase']:<16} {r['seconds'] * 1e3:>10.3f} "
            f"{r['percent']:>13.1f}% {r['spans']:>7}  {marker}"
        )
    print(f"  waiting (queue_wait + batch_wait): {_wait_share(rows):.1f}% "
          "of job latency")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="profile_serve",
        description="phase-attribute the FHE serving path per backend",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload for CI: still gates coverage, skips the JSON",
    )
    parser.add_argument("--pool", type=int, default=4, metavar="W",
                        help="chip pool size (default 4)")
    parser.add_argument("--max-batch", type=int, default=4, metavar="N",
                        help="scheduler batch size (default 4)")
    args = parser.parse_args(argv)

    if args.smoke:
        n, mults, adds, circuits = 64, 2, 2, 1
    else:
        n, mults, adds, circuits = 256, 4, 4, 2
    params = BfvParameters.toy_rns(n=n, towers=3, tower_bits=24)
    keys = Bfv(params, seed=99).keygen(relin_digit_bits=20)
    jobs = _make_workload(params, keys, mults=mults, adds=adds,
                          circuits=circuits)

    # Read the previous run's relin share BEFORE overwriting the file:
    # it is the regression baseline for this run.
    baseline_share = None
    if not args.smoke and OUT_PATH.exists():
        try:
            baseline_share = _relin_share(json.loads(OUT_PATH.read_text()))
        except (json.JSONDecodeError, OSError, KeyError, TypeError):
            baseline_share = None

    all_rows = []
    failures = []
    for backend in BACKENDS:
        rows, wall = profile_backend(
            backend, params, keys, jobs,
            pool_size=args.pool, max_batch=args.max_batch,
        )
        print_table(backend, rows, wall)
        coverage = rows[-1]["percent"]
        if coverage < GATE_COVERAGE_PERCENT:
            failures.append((backend, coverage))
        all_rows.extend({"backend": backend, **r} for r in rows)

    relin_failed = False
    if not args.smoke:
        share = _relin_share(all_rows)
        OUT_PATH.write_text(json.dumps(all_rows, indent=2) + "\n")
        print(f"\nwrote {OUT_PATH}")
        if baseline_share is not None:
            ceiling = baseline_share + GATE_RELIN_SHARE_SLACK_POINTS
            if share > ceiling:
                print(
                    f"RELIN SHARE GATE FAILED: chip_pool relin_tail + "
                    f"keyswitch now {share:.2f}% of job busy time > baseline "
                    f"{baseline_share:.2f}% + {GATE_RELIN_SHARE_SLACK_POINTS}"
                    " points slack",
                    file=sys.stderr,
                )
                relin_failed = True
            else:
                print(
                    f"relin share gate ok: chip_pool relin_tail + keyswitch "
                    f"{share:.2f}% of busy time <= baseline "
                    f"{baseline_share:.2f}% "
                    f"+ {GATE_RELIN_SHARE_SLACK_POINTS} points"
                )
    for backend, coverage in failures:
        print(
            f"COVERAGE GATE FAILED: {backend} phases explain "
            f"{coverage:.1f}% < {GATE_COVERAGE_PERCENT}% of job latency",
            file=sys.stderr,
        )
    if failures or relin_failed:
        return 1
    print(
        f"coverage gate ok: all backends >= {GATE_COVERAGE_PERCENT}% "
        "of end-to-end job latency attributed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
