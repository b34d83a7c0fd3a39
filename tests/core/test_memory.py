"""Unit tests for the SRAM bank model and memory map."""

import numpy as np
import pytest

from repro.core.bus import AhbLiteBus
from repro.core.errors import MemoryFault
from repro.core.memory import MemoryMap, SramBank, WORD_BITS


class TestSramBank:
    def test_read_write(self):
        bank = SramBank("T", 16, ports=1)
        bank.write(3, 0xDEAD)
        assert bank.read(3) == 0xDEAD

    def test_out_of_range(self):
        bank = SramBank("T", 16, ports=1)
        with pytest.raises(MemoryFault, match="out of range"):
            bank.read(16)
        with pytest.raises(MemoryFault):
            bank.write(-1, 0)

    def test_word_width_enforced(self):
        bank = SramBank("T", 16, ports=2)
        bank.write(0, (1 << WORD_BITS) - 1)  # max 128-bit word fits
        with pytest.raises(MemoryFault, match="128-bit"):
            bank.write(0, 1 << WORD_BITS)

    def test_block_ops(self):
        bank = SramBank("T", 16, ports=1)
        bank.write_block(4, [1, 2, 3])
        assert bank.read_block(4, 3) == [1, 2, 3]

    def test_block_bounds(self):
        bank = SramBank("T", 16, ports=1)
        with pytest.raises(MemoryFault):
            bank.write_block(14, [1, 2, 3])

    def test_stats_counting(self):
        bank = SramBank("T", 16, ports=1)
        bank.write_block(0, [5] * 8)
        bank.read_block(0, 8)
        bank.read(0)
        assert bank.stats.writes == 8
        assert bank.stats.reads == 9

    def test_ports_validation(self):
        with pytest.raises(ValueError):
            SramBank("T", 16, ports=3)

    def test_capacity_properties(self):
        bank = SramBank("T", 8192, ports=2)
        assert bank.bytes == 8192 * 16
        assert bank.accesses_per_cycle() == 2


@pytest.fixture(params=["uint64", "object"])
def bank(request):
    """A 16-word bank in each storage dtype: untouched (``uint64``), or
    promoted by a word wider than 64 bits parked in its last slot."""
    bank = SramBank("T", 16, ports=1)
    if request.param == "object":
        bank.write(15, 1 << 100)
    assert bank.data.dtype == request.param
    return bank


class TestBankBoundaries:
    """Every dtype keeps the 128-bit word contract."""

    def test_out_of_range_address(self, bank):
        for op in (
            lambda: bank.read(16),
            lambda: bank.write(16, 1),
            lambda: bank.read_block(14, 3),
            lambda: bank.write_block(14, [1, 2, 3]),
            lambda: bank.write_block(-1, [1]),
        ):
            with pytest.raises(MemoryFault, match="out of range"):
                op()

    @pytest.mark.parametrize("bad", [-1, 1 << WORD_BITS])
    def test_unrepresentable_word_faults(self, bank, bad):
        before = bank.read_block(0, 16)
        with pytest.raises(MemoryFault):
            bank.write(0, bad)
        with pytest.raises(MemoryFault):
            bank.write_block(0, [1, bad, 2])
        assert bank.read_block(0, 16) == before

    def test_negative_array_faults(self, bank):
        with pytest.raises(MemoryFault):
            bank.write_block(0, np.array([1, -1], dtype=np.int64))

    def test_wide_word_promotes_and_reads_back_exactly(self, bank):
        wide = (1 << 64) + 1
        bank.write(0, wide)
        bank.write_block(1, [wide + 1, 7])
        assert bank.data.dtype == object
        assert bank.read(0) == wide
        assert bank.read_block(0, 3) == [wide, wide + 1, 7]

    def test_block_reads_return_python_ints(self, bank):
        bank.write_block(0, np.arange(4, dtype=np.uint64))
        for words in (
            bank.read_block(0, 16),
            AhbLiteBus(_map_with(bank)).burst_read(MemoryMap.SRAM_BASE, 16)[0],
        ):
            assert [type(w) for w in words] == [int] * 16
            assert words[:4] == [0, 1, 2, 3]


def _map_with(bank: SramBank) -> MemoryMap:
    """A memory map whose only (hence first-decoded) bank is ``bank``."""
    return MemoryMap(single_port=[bank])


class TestMemoryMap:
    def test_fabricated_inventory(self):
        """3 DP + 4 SP data banks (one = twiddles) + CM0 (Section III-A)."""
        mm = MemoryMap.default()
        assert len(mm.dual_port) == 3
        assert len(mm.single_port) == 4
        assert mm.cm0_sram is not None
        assert mm.bank("TWD").ports == 1

    def test_total_memory_about_1mb(self):
        """'It is possible to increase the total memory size from 1 MB
        (currently used)' — 7 data banks x 128 KiB = 896 KiB + CM0."""
        mm = MemoryMap.default()
        total = mm.total_data_bytes() + mm.cm0_sram.bytes
        assert 900 * 1024 <= total <= 1024 * 1024

    def test_dual_port_two_address_windows(self):
        mm = MemoryMap.default()
        p0 = mm.base_address("DP0", port=0)
        p1 = mm.base_address("DP0", port=1)
        assert p0 != p1
        bank0, port0, _ = mm.decode(p0)
        bank1, port1, _ = mm.decode(p1)
        assert bank0 is bank1 and (port0, port1) == (0, 1)

    def test_single_port_has_one_window(self):
        mm = MemoryMap.default()
        with pytest.raises(MemoryFault, match="no port"):
            mm.base_address("SP0", port=1)

    def test_decode_word_offset(self):
        mm = MemoryMap.default()
        addr = mm.base_address("SP1") + 5 * 16  # word 5 (16 bytes/word)
        bank, _, word = mm.decode(addr)
        assert bank.name == "SP1" and word == 5

    def test_decode_below_sram_region(self):
        mm = MemoryMap.default()
        with pytest.raises(MemoryFault):
            mm.decode(0x1000_0000)

    def test_unknown_bank(self):
        mm = MemoryMap.default()
        with pytest.raises(MemoryFault, match="no bank"):
            mm.bank("DP9")

    def test_reset_stats(self):
        mm = MemoryMap.default()
        mm.bank("DP0").write(0, 1)
        mm.reset_stats()
        assert mm.bank("DP0").stats.writes == 0

    def test_gpcfg_range_convention(self):
        """Config registers at 0x4002_0000 (ARM Cortex-M convention)."""
        assert MemoryMap.GPCFG_BASE == 0x4002_0000
        assert MemoryMap.SRAM_BASE == 0x2000_0000
