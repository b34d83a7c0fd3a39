"""Path setup and the shared ``--quick`` smoke runs for the bench's tests.

Run with ``python -m pytest bench/tests -q`` from the repo root (the
root ``pyproject.toml`` puts ``src`` on the path; this file adds
``bench``). Outside tier-1's ``testpaths`` on purpose: these tests gate
the benchmark, not the library.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spec  # noqa: E402


def run_bench(*args: str) -> subprocess.CompletedProcess:
    """``python3 bench/run.py ARGS`` from the repo root, as the driver does."""
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def smoke():
    """Toy-``n`` runs of all four workloads, a second seed, and a trace.

    Launched two at a time (the host has two cores); the numbers are
    meaningless under that load and no test looks at a timing's value.
    """
    first = spec.WORKLOADS[0].name
    jobs = {
        (w.name, "1", "0"): None for w in spec.WORKLOADS
    } | {(first, "2", "0"): None, (first, "1", "1"): None}

    def launch(key):
        name, seed, trace = key
        return run_bench("--quick", "--seconds", "1", "--workload", name,
                         "--seed", seed, "--trace", trace)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for key, proc in zip(jobs, pool.map(launch, jobs)):
            jobs[key] = proc
    return jobs
