#!/usr/bin/env python3
"""Host-calibrated layered serving benchmark: the one command.

    python3 bench/run.py                      # all four workloads
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh child interpreter (pinned hash seed, one
math thread), verifies every result, and reports every metric by name
with its unit plus a host fingerprint. The last line of standard output
is one JSON object: for a single ``--workload`` it has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

Exit status is non-zero when any result was wrong, failed or refused,
or when the source tree the benchmark measures is not there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import host  # noqa: E402  (stdlib only)
import spec  # noqa: E402  (stdlib only)

CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="",
                        help="one workload by name (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="sets the wave-scale factor: seconds / 24")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=(0, 1),
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="toy ring degree (tests only; not comparable)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """Runs inside the fresh interpreter: measure one workload."""
    sys.path.insert(0, str(host.ROOT / "src"))
    import workloads

    workload = spec.BY_NAME[args.workload]
    scale = args.seconds / spec.REFERENCE_SECONDS
    if args.trace:
        import ladder

        result = ladder.run_traced(workload, args.seed, scale, args.quick)
    else:
        result = workloads.run_end_to_end(
            workload, args.seed, scale, args.quick
        )
    result["fingerprint"] = host.fingerprint(scale, result.pop("cal_samples"))
    print(json.dumps(result))
    return 0


def run_child(workload: str, args: argparse.Namespace) -> dict:
    """Measure one workload in a fresh, pinned interpreter."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    proc = subprocess.run(
        command, env=host.child_env(), cwd=str(host.ROOT),
        stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"workload {workload} child exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_report(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']} "
          f"shape={result.get('shape')}")
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:>16.6f} {metric['unit']}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_frac':<{width}}  {failed_frac:>16.6f} "
          f"({result['failed']} of {result['attempted']})")
    for problem in result.get("problems", []):
        print(f"  PROBLEM: {problem}")
    for key, value in sorted(result.get("host", {}).items()):
        print(f"  {'host.' + key:<{width}}  {value:>16.6f}")
    if "counts" in result:
        print("  counts: " + json.dumps(result["counts"], sort_keys=True))
    print("  fingerprint: "
          + json.dumps(result.get("fingerprint", {}), sort_keys=True))


def cross_check_digests(results: list[dict]) -> list[str]:
    """Same job, same bytes: compare result digests across workloads."""
    seen: dict[str, tuple[str, str]] = {}
    problems = []
    for result in results:
        for key, digest in result.get("digests", {}).items():
            first = seen.setdefault(key, (result["workload"], digest))
            if first[1] != digest:
                problems.append(
                    f"job {key}: {first[0]} and {result['workload']} "
                    "served different bytes"
                )
    return problems


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    forbidden = host.forbidden_env_set()
    if forbidden:
        print("refusing to run with " + ", ".join(forbidden) + " set: the "
              "benchmark measures the shipped configuration",
              file=sys.stderr)
        return 2
    if not (host.ROOT / "src" / "repro" / "service" / "server.py").exists():
        print(f"no source tree under {host.ROOT / 'src'}: nothing to measure",
              file=sys.stderr)
        return 2
    if args.workload and args.workload not in spec.BY_NAME:
        print(f"unknown workload {args.workload!r}; have "
              f"{', '.join(spec.BY_NAME)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(spec.BY_NAME)
    results = [run_child(name, args) for name in names]
    for result in results:
        print_report(result)
    problems = cross_check_digests(results)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    failed = sum(r["failed"] for r in results) + len(problems)
    if args.workload:
        print(contract_line(results[0]))
    else:
        print(json.dumps({
            "correct": failed == 0,
            "workloads": {r["workload"]: r["metrics"] for r in results},
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
