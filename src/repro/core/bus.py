"""AHB-Lite interconnect model (Section III-G1).

CoFHEE uses a parameterized AHB-Lite crossbar — 10 manager x 11 subordinate
ports, 152-byte total width, 0.07 mm^2 in 55 nm — chosen over the heavy
crossbars of F1 for its low area and signal count. Three managers matter
for performance: the MDMC, the DMA, and the ARM CM0; the bus lets them
reach *different* SRAM banks in the same cycle (Section III-F: "the bus
architecture allows the MDMC, DMA, and ARM CM0 to access memories in
parallel"), while accesses to the same bank port serialize.

The model provides cycle-costed single and 8-beat burst transfers plus a
per-cycle arbitration check used by the MDMC/DMA overlap logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.errors import BusError
from repro.core.memory import MemoryMap
from repro.core.timing import BURST_BEATS, BURST_OVERHEAD


@dataclass
class BusStats:
    """Transfer counters (for utilization reporting and the power model)."""

    single_transfers: int = 0
    burst_transfers: int = 0
    beats: int = 0
    conflicts: int = 0

    def reset(self) -> None:
        self.single_transfers = 0
        self.burst_transfers = 0
        self.beats = 0
        self.conflicts = 0


class AhbLiteBus:
    """The 10x11 AHB-Lite crossbar.

    Args:
        memory_map: the chip's SRAM map (subordinates).
        managers: names of manager ports; defaults to the fabricated set.
    """

    #: Fabricated configuration (Section III-G1).
    DEFAULT_MANAGERS = (
        "MDMC_A",
        "MDMC_B",
        "MDMC_C",
        "MDMC_D",  # MDMC operand/result lanes
        "DMA_RD",
        "DMA_WR",
        "CM0_I",
        "CM0_D",
        "SPI",
        "UART",
    )

    def __init__(self, memory_map: MemoryMap, managers: tuple[str, ...] | None = None):
        self.memory_map = memory_map
        self.managers = managers or self.DEFAULT_MANAGERS
        self.stats = BusStats()
        # Per-"cycle" port reservations: (bank name, port) -> manager.
        self._reservations: dict[tuple[str, int], str] = {}

    @property
    def manager_count(self) -> int:
        return len(self.managers)

    @property
    def subordinate_count(self) -> int:
        # Each dual-port bank is two subordinate windows ("treating them as
        # two distinct address spaces at the bus level"): 3x2 DP + 4 SP +
        # CM0 SRAM = 11, the fabricated 10x11 crossbar.
        windows = sum(b.ports for b in self.memory_map.data_banks)
        return windows + 1  # + CM0 SRAM window

    # -- cycle-level arbitration ------------------------------------------

    def begin_cycle(self) -> None:
        """Clear port reservations at a cycle boundary."""
        self._reservations.clear()

    def claim(self, manager: str, bank_name: str, port: int) -> bool:
        """Try to reserve a bank port for this cycle.

        Returns False (and counts a conflict) if another manager holds it —
        the serialization the paper avoids by giving the MDMC dual-port
        banks and the DMA the third bank.
        """
        if manager not in self.managers:
            raise BusError(f"unknown manager {manager!r}")
        key = (bank_name, port)
        holder = self._reservations.get(key)
        if holder is not None and holder != manager:
            self.stats.conflicts += 1
            return False
        self._reservations[key] = manager
        return True

    # -- costed transfers --------------------------------------------------

    def single_read(self, address: int) -> tuple[int, int]:
        """One AHB single transfer. Returns ``(value, cycles)``."""
        bank, _, word = self.memory_map.decode(address)
        self.stats.single_transfers += 1
        self.stats.beats += 1
        return bank.read(word), 1 + bank.read_latency

    def single_write(self, address: int, value: int) -> int:
        """One AHB single write. Returns cycle cost."""
        bank, _, word = self.memory_map.decode(address)
        bank.write(word, value)
        self.stats.single_transfers += 1
        self.stats.beats += 1
        return 1

    def burst_read(self, address: int, beats: int) -> tuple[list[int], int]:
        """Incrementing burst read. Returns ``(values, cycles)``."""
        words, cycles = self.burst_read_words(address, beats)
        return words.tolist(), cycles

    def burst_read_words(self, address: int, beats: int) -> tuple[np.ndarray, int]:
        """:meth:`burst_read` returning the bank's word array (a copy).

        Bursts are split into 8-beat AHB INCR8 segments, each paying one
        re-arbitration cycle (the ``n/8`` overhead visible in Table V's
        pointwise timings).
        """
        bank, _, word = self.memory_map.decode(address)
        words = bank.read_words(word, beats)
        segments = -(-beats // BURST_BEATS)
        self.stats.burst_transfers += segments
        self.stats.beats += beats
        return words, beats + segments * BURST_OVERHEAD + bank.read_latency

    def burst_write(self, address: int, values: "Sequence[int] | np.ndarray") -> int:
        """Incrementing burst write (a list of ints or a word array).

        Returns the cycle cost.
        """
        bank, _, word = self.memory_map.decode(address)
        bank.write_block(word, values)
        segments = -(-len(values) // BURST_BEATS)
        self.stats.burst_transfers += segments
        self.stats.beats += len(values)
        return len(values) + segments * BURST_OVERHEAD

    # -- reporting ----------------------------------------------------------

    def crossbar_description(self) -> str:
        return (
            f"AHB-Lite {self.manager_count}x{self.subordinate_count} crossbar, "
            f"128-bit data, burst length {BURST_BEATS}"
        )
