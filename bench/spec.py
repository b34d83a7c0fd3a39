"""The workload table: names, shapes and reasons (no ``repro`` import).

``run.py``'s parent process and ``check_noise.py`` read this without
loading the library; the child-side procedure is in ``workloads.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``run_seconds`` of BENCHMARK.json: the ``--seconds`` the driver passes
#: and the default everywhere else.
RUN_SECONDS = 10
#: ``--seconds`` at which the wave and build counts below apply as
#: written (wave-scale factor 1.0); the factor is ``seconds / 24``.
REFERENCE_SECONDS = 24.0
#: Waves never drop below this, whatever the factor.
MIN_WAVES = 24
MIN_BUILDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stack: str  # "inproc" | "tcp" | "fleet"
    kind: str  # "evalmult" | "dense16"
    width: int  # W: jobs per wave
    waves: int  # at wave-scale 1.0
    builds: int  # cold builds behind setup_s, at wave-scale 1.0

    @property
    def tenants(self) -> int:
        """The fleet workload has one tenant per worker process."""
        return 2 if self.stack == "fleet" else 1

    @property
    def per_tenant(self) -> int:
        """Jobs of each tenant in one wave."""
        return self.width // self.tenants


WORKLOADS = (
    Workload(
        "evalmult_inproc_serial",
        "EvalMult+relin one at a time through in-process FheServer: the "
        "execute path alone (codec, Bfv, chip model); bypasses batching, "
        "transport and fleet",
        stack="inproc", kind="evalmult", width=1, waves=140, builds=16,
    ),
    Workload(
        "evalmult_tcp_wave4",
        "Same jobs, 4 at once over one FheClient TCP connection: adds "
        "frames/CRC/event push and siblings contending for a batch, so "
        "scheduler and batching waits show here and not on inproc_serial",
        stack="tcp", kind="evalmult", width=4, waves=34, builds=16,
    ),
    Workload(
        "evalmult_fleet_wave2",
        "Two tenants routed to two worker processes, 2 jobs at once: adds "
        "the worker hop, key replication and real parallelism on 2 cores",
        stack="fleet", kind="evalmult", width=2, waves=110, builds=10,
    ),
    Workload(
        "dense16_inproc_serial",
        "A packed 16-feature dense layer as a circuit (mul_relin, 4 "
        "rotate+add, mul_const, add_const): ~70% Galois key switch, so a "
        "gain for tensors that costs rotations shows",
        stack="inproc", kind="dense16", width=1, waves=36, builds=10,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def scaled(workload: Workload, scale: float) -> tuple[int, int]:
    """``(waves, builds)`` at a wave-scale factor."""
    return (
        max(MIN_WAVES, round(workload.waves * scale)),
        max(MIN_BUILDS, round(workload.builds * scale)),
    )
