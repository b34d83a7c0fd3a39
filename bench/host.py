"""Host fingerprint, child-environment pinning and /proc accounting.

Stdlib only (numpy's version is read lazily for the fingerprint), so the
parent ``run.py`` can import this before it knows whether ``src/`` is
there at all.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment switches that change what the serving stack executes; a
#: run with any of them set would not measure the shipped configuration.
FORBIDDEN_ENV = ("REPRO_ENGINE", "REPRO_TRACE", "REPRO_FAULT")

#: Pinned in every child interpreter: one hash seed (dict/set order can
#: change allocation patterns) and one math thread (the host has two
#: cores and the fleet workload wants both for its workers).
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}


def forbidden_env_set() -> list[str]:
    return [name for name in FORBIDDEN_ENV if os.environ.get(name)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, existing]))
    return env


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess), or ``unknown``.

    The driver's checkout is not a git repository, so ``unknown`` is an
    expected value there.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(scale: float, cal_samples: list[float]) -> dict:
    """What a reader needs to judge whether two runs are comparable."""
    import numpy

    from calib import CAL_REF_S, percentile

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "cal_ref_s": CAL_REF_S,
        "wave_scale": scale,
        "pinned_env": PINNED_ENV,
        **{
            f"host.cal_ms_p{pct}": percentile(cal_samples, pct) * 1e3
            for pct in (10, 50, 90)
        },
    }


# ----------------------------------------------------------------------
# CPU and memory accounting for the harness process and its workers
# ----------------------------------------------------------------------


def _task_cpu_seconds(pid: int) -> float:
    """CPU seconds of every thread of ``pid``.

    ``schedstat`` counts on-CPU nanoseconds per task; ``stat``'s
    utime+stime are 10 ms ticks, which a 150 ms wave would quantise to
    7 %, so it is only the fallback for kernels built without schedstats.
    """
    total_ns = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total_ns += int(fh.read().split()[0])
        return total_ns / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def cpu_seconds() -> tuple[float, float]:
    """``(harness, workers)`` CPU seconds consumed so far.

    The harness process reads its own clock (all threads, ns); worker
    processes (``multiprocessing.active_children()`` — the fleet) are
    read through ``/proc``.
    """
    workers = sum(
        _task_cpu_seconds(child.pid)
        for child in multiprocessing.active_children()
        if child.pid is not None
    )
    return time.process_time(), workers


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live workers (MiB)."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = sum(
        _vm_hwm_kb(child.pid)
        for child in multiprocessing.active_children()
        if child.pid is not None
    )
    return (own_kb + workers_kb) / 1024.0
