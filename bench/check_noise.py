#!/usr/bin/env python3
"""Does the benchmark repeat? Two alternating sets of runs of one code.

    python3 bench/check_noise.py [--runs N] [--seconds S] [--workload NAME]

Set A and set B are runs of the *same* code with different seeds,
interleaved (A1 B1 A2 B2 ...) so that slow drift of the host lands on
both. For every end-to-end metric x workload it prints each set's
median, the spread of each set (distance between the first and third
quartile over the median, as ``statistics.quantiles(values, n=4)``
gives them), the gap between the two medians in the metric's *worse*
direction, and the bound from ``BENCHMARK.json``. Exit status is
non-zero when any gap or spread exceeds its bound; ``setup_s`` is held
to its gap only.

The uncalibrated latency median of each run (``host.raw_latency_p50_ms``,
never gated) is carried alongside, so the table shows what the paired
calibration buys.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import host  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

RAW = "host.raw_latency_p50_ms"


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """One fresh-interpreter run; returns ``{metric: value}``."""
    result = run.run_child(workload, argparse.Namespace(
        seed=seed, seconds=seconds, trace=0, quick=False
    ))
    if result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['problems']}")
    values = {n: m["value"] for n, m in result["metrics"].items()}
    values[RAW] = result["host"]["raw_latency_p50_ms"]
    return values


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worse_gap(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set and workload (>= 3)")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--out", default="",
                        help="also write every run's values to this file")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    contract = json.loads((host.ROOT / "BENCHMARK.json").read_text())
    metrics = contract["end_to_end"]
    names = args.workload or [w["name"] for w in contract["workloads"]]

    sets: dict[str, dict[str, list[dict]]] = {
        name: {"A": [], "B": []} for name in names
    }
    for index in range(args.runs):
        for label, base in (("A", 100), ("B", 200)):
            for name in names:
                values = one_run(name, base + index, args.seconds)
                sets[name][label].append(values)
                print(f"# {label}{index + 1} {name} "
                      f"latency_mean_ms={values['latency_mean_ms']:.2f}",
                      file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))

    failures = 0
    header = (f"{'workload':<24} {'metric':<22} {'median A':>12} "
              f"{'median B':>12} {'spread A':>9} {'spread B':>9} "
              f"{'gap':>8} {'bound':>6}")
    print(header)
    rows = metrics + [{"name": RAW, "better": "lower", "bound": None}]
    for name in names:
        for metric in rows:
            key = metric["name"]
            a = [values[key] for values in sets[name]["A"]]
            b = [values[key] for values in sets[name]["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = max(worse_gap(med_a, med_b, metric["better"]),
                      worse_gap(med_b, med_a, metric["better"]))
            bound = metric["bound"]
            verdict = ""
            if bound is not None:
                over = gap > bound or (
                    key != "setup_s" and max(spread(a), spread(b)) > bound
                )
                if over:
                    failures += 1
                    verdict = "  OVER"
            print(f"{name:<24} {key:<22} {med_a:>12.4f} {med_b:>12.4f} "
                  f"{spread(a):>9.4f} {spread(b):>9.4f} {gap:>8.4f} "
                  f"{'' if bound is None else format(bound, '6.3f')}"
                  f"{verdict}")
    print(f"{failures} metric x workload pair(s) over bound")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
