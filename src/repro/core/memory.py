"""On-chip SRAM model: 3 dual-port + 5 single-port banks (1 MB total).

Section V-A: "there are 68 memory instances, out of which 48 (16x2096) are
dual-port, and 16 (32x8192) plus 4 (32x4096) are single-port". The physical
instances compose into the logical banks the architecture uses
(Section III-A): three dual-port banks and five single-port banks, each
8192 words of 128 bits (one full n = 2^13 polynomial), except the smaller
bank backing the ARM CM0. Dual-port banks expose two bus ports with
distinct base addresses ("treating them as two distinct address spaces at
the bus level").

The model enforces per-cycle port limits so the MDMC's claim of II = 1 —
two operand fetches and two result stores per cycle during NTT — is
actually checkable, and tracks access counts for the power model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.errors import MemoryFault

WORD_BITS = 128
WORD_MASK = (1 << WORD_BITS) - 1
_U64_MAX = (1 << 64) - 1


@dataclass
class SramStats:
    """Access counters consumed by the power model."""

    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0


class SramBank:
    """One logical SRAM bank of 128-bit words.

    The words live in one numpy array. Its dtype is ``uint64`` while
    every stored word fits 64 bits, which is the whole life of a bank
    under a word-sized modulus. The first write of a wider word (a
    ``PMUL`` 128-bit product, or residues of a modulus >= 2^64) promotes
    the bank, once, to ``object`` dtype holding exact Python integers.

    Args:
        name: bank identifier (e.g. ``"DP0"``).
        words: capacity in 128-bit words.
        ports: 1 for single-port, 2 for dual-port.
        read_latency: cycles from address to data (~4 ns path -> 2 cycles
            of a 250 MHz pipeline, per Section III-D).
    """

    def __init__(self, name: str, words: int, ports: int, read_latency: int = 2):
        if ports not in (1, 2):
            raise ValueError(f"ports must be 1 or 2, got {ports}")
        if words < 1:
            raise ValueError(f"bank must have at least one word, got {words}")
        self.name = name
        self.words = words
        self.ports = ports
        self.read_latency = read_latency
        self.data = np.zeros(words, dtype=np.uint64)
        self.stats = SramStats()

    @property
    def dual_port(self) -> bool:
        return self.ports == 2

    @property
    def bits(self) -> int:
        return self.words * WORD_BITS

    @property
    def bytes(self) -> int:
        return self.bits // 8

    def read(self, addr: int) -> int:
        self._check(addr)
        self.stats.reads += 1
        return int(self.data[addr])

    def write(self, addr: int, value: int) -> None:
        self._check(addr)
        if value < 0 or value > WORD_MASK:
            raise MemoryFault(
                f"{self.name}: value does not fit in a {WORD_BITS}-bit word"
            )
        if value > _U64_MAX:
            self._promote()
        self.stats.writes += 1
        self.data[addr] = value

    def read_block(self, addr: int, count: int) -> list[int]:
        """Burst read ``count`` consecutive words."""
        return self.read_words(addr, count).tolist()

    def read_words(self, addr: int, count: int) -> np.ndarray:
        """Burst read as a word array: a copy in the bank's dtype."""
        self._check(addr)
        self._check(addr + count - 1)
        self.stats.reads += count
        return self.data[addr : addr + count].copy()

    def write_block(self, addr: int, values: "Sequence[int] | np.ndarray") -> None:
        """Burst write consecutive words (a list of ints or a word array)."""
        if not len(values):
            return
        self._check(addr)
        self._check(addr + len(values) - 1)
        words = self._as_words(values)
        if words.dtype == object:
            self._promote()
        self.stats.writes += len(words)
        self.data[addr : addr + len(words)] = words

    def accesses_per_cycle(self) -> int:
        """Operand fetch/store slots available each cycle."""
        return self.ports

    def _as_words(self, values: "Sequence[int] | np.ndarray") -> np.ndarray:
        """Range-check ``values`` as 128-bit words; ``uint64`` where they fit.

        An integer array is returned as it is, for the store into the
        bank to widen: an unsigned one needs no check at all, a signed
        one only a sign check. Anything else is checked exactly as
        Python integers.
        """
        if isinstance(values, np.ndarray) and values.dtype.kind in "ui":
            if values.dtype.kind == "i" and values.min() < 0:
                raise MemoryFault(f"{self.name}: negative word")
            return values
        words = np.array(values, dtype=object)
        lo, hi = words.min(), words.max()
        if lo < 0 or hi > WORD_MASK:
            raise MemoryFault(
                f"{self.name}: value does not fit in a {WORD_BITS}-bit word"
            )
        return words if hi > _U64_MAX else words.astype(np.uint64)

    def _promote(self) -> None:
        """Widen the bank to exact Python-integer words (idempotent)."""
        if self.data.dtype != object:
            self.data = self.data.astype(object)

    def _check(self, addr: int) -> None:
        if addr < 0 or addr >= self.words:
            raise MemoryFault(
                f"{self.name}: address {addr} out of range [0, {self.words})"
            )

    def __repr__(self) -> str:
        kind = "dual-port" if self.dual_port else "single-port"
        return f"SramBank({self.name}, {self.words}x{WORD_BITS}b, {kind})"


@dataclass
class MemoryMap:
    """The chip's logical bank set and ARM Cortex-M style address map.

    Attributes:
        dual_port: the three ping-pong banks (NTT input/output + DMA
            staging buffer, Section III-F).
        single_port: four polynomial buffers plus the twiddle-factor bank.
        cm0_sram: the Cortex-M0 instruction/data memory.
    """

    dual_port: list[SramBank] = field(default_factory=list)
    single_port: list[SramBank] = field(default_factory=list)
    cm0_sram: SramBank | None = None

    #: SRAM region base (ARM Cortex-M memory map convention, Section III-G1).
    SRAM_BASE = 0x2000_0000
    #: Configuration registers live at 0x4002_0000 - 0x4002_FFFF (Table II).
    GPCFG_BASE = 0x4002_0000

    @classmethod
    def default(cls, poly_words: int = 8192) -> "MemoryMap":
        """The fabricated configuration (Section III-A / Table VIII):
        3 dual-port banks + 4 single-port data banks (one of which holds
        the twiddle factors) of one n=2^13 polynomial each, plus the
        4096-word CM0 memory — 5 single-port SRAMs in total, ~1 MB."""
        dp = [SramBank(f"DP{i}", poly_words, ports=2) for i in range(3)]
        sp = [SramBank(f"SP{i}", poly_words, ports=1) for i in range(3)]
        sp.append(SramBank("TWD", poly_words, ports=1))  # twiddle factors
        cm0 = SramBank("CM0", 4096, ports=1)
        return cls(dual_port=dp, single_port=sp, cm0_sram=cm0)

    @property
    def banks(self) -> list[SramBank]:
        extra = [self.cm0_sram] if self.cm0_sram is not None else []
        return self.dual_port + self.single_port + extra

    @property
    def data_banks(self) -> list[SramBank]:
        return self.dual_port + self.single_port

    def bank(self, name: str) -> SramBank:
        for b in self.banks:
            if b.name == name:
                return b
        raise MemoryFault(f"no bank named {name!r}")

    def total_data_bytes(self) -> int:
        return sum(b.bytes for b in self.data_banks)

    def base_address(self, name: str, port: int = 0) -> int:
        """Bus base address of a bank port.

        Dual-port banks occupy two address windows (one per port), matching
        the paper's "assigning different base addresses to each port".
        """
        offset = 0
        for b in self.banks:
            windows = b.ports
            if b.name == name:
                if port >= windows:
                    raise MemoryFault(f"{name} has no port {port}")
                return self.SRAM_BASE + (offset + port) * 0x10_0000
            offset += windows
        raise MemoryFault(f"no bank named {name!r}")

    @cached_property
    def _windows(self) -> tuple[tuple[SramBank, int], ...]:
        """``(bank, port)`` of each address window, in map order: built
        once, since the bank lists are fixed after construction."""
        return tuple((b, port) for b in self.banks for port in range(b.ports))

    def decode(self, address: int) -> tuple[SramBank, int, int]:
        """Map a bus address to ``(bank, port, word_index)``."""
        if address < self.SRAM_BASE:
            raise MemoryFault(f"address {address:#x} below SRAM region")
        window, offset = divmod(address - self.SRAM_BASE, 0x10_0000)
        if window >= len(self._windows):
            raise MemoryFault(f"address {address:#x} beyond mapped SRAM")
        bank, port = self._windows[window]
        return bank, port, offset // (WORD_BITS // 8)

    def reset_stats(self) -> None:
        for b in self.banks:
            b.stats.reset()
