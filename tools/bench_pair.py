#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload, in alternating pairs.

    python3 tools/bench_pair.py REV_A REV_B --workload W --pairs N [--seed S]

Each revision is exported with ``git archive`` into a fresh temporary
directory (never the working tree: a checkout with build leftovers can
read differently from the clean copy the benchmark itself runs). Pair
``i`` runs ``bench/run.py --workload W --seed S+i`` once from each
export, ``A`` first on even pairs and ``B`` first on odd ones, so slow
drift of the host lands on both sides alike. Printed per end-to-end
metric: every pair's two values, both medians, the change of the
medians, the interquartile range of ``A``'s runs, and in how many pairs
``B`` read lower and higher than ``A``. Exit status is non-zero when a
run failed or reported a wrong result. Stdlib only; nothing under
``bench/`` is touched.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 600


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a", help="baseline revision (e.g. HEAD~1)")
    parser.add_argument("rev_b", help="revision compared with it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs S+i")
    return parser.parse_args(argv)


def export(rev: str, into: Path) -> Path:
    """``rev``'s committed files, unpacked into a fresh ``into``."""
    into.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` child's final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{tree.name} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def end_to_end(tree: Path) -> list[tuple[str, str]]:
    """``(name, better)`` of each end-to-end metric ``tree`` declares."""
    declared = json.loads((tree / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in declared["end_to_end"]]


def quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def report(metrics, runs_a, runs_b) -> None:
    pairs = len(runs_a)
    print(f"{'metric':<22} " + " ".join(
        f"{'pair ' + str(i):>25}" for i in range(pairs)))
    for name, better in metrics:
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        print(f"{name:<22} " + " ".join(
            f"{x:>12.7g}/{y:<12.7g}" for x, y in zip(a, b)))
        med_a, med_b = statistics.median(a), statistics.median(b)
        change = (med_b - med_a) / med_a * 100 if med_a else 0.0
        lower = sum(y < x for x, y in zip(a, b))
        higher = sum(y > x for x, y in zip(a, b))
        spread = quartile_spread(a) if pairs > 1 else 0.0
        print(f"{'':<22} median A {med_a:.7g}  B {med_b:.7g}  "
              f"({change:+.1f}%)  A IQR {spread:.3g}  "
              f"B lower {lower}/{pairs}, higher {higher}/{pairs}  "
              f"({better} is better)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("--pairs must be >= 1")
    scratch = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    try:
        tree_a = export(args.rev_a, scratch / "a")
        tree_b = export(args.rev_b, scratch / "b")
        runs_a, runs_b, ok = [], [], True
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("A", tree_a, runs_a), ("B", tree_b, runs_b)]
            for side, tree, runs in order if i % 2 == 0 else order[::-1]:
                result = run_once(tree, args.workload, seed)
                runs.append(result)
                ok = ok and result["correct"] and result["failed"] == 0
                print(f"pair {i} {side} seed {seed}: correct "
                      f"{result['correct']}, failed {result['failed']} of "
                      f"{result['attempted']}", flush=True)
        print(f"\n{args.workload}: A = {args.rev_a}, B = {args.rev_b}, "
              f"{args.pairs} pairs (values A/B)")
        report(end_to_end(tree_a), runs_a, runs_b)
        return 0 if ok else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
