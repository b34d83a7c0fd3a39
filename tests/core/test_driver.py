"""Unit tests for the host driver: modes, composed ops, RNS, large n."""

import pytest

from repro.core.chip import ChipConfig, CoFHEE
from repro.core.driver import CofheeDriver, OperationReport
from repro.core.errors import CapacityError, ConfigError
from repro.core.fifo import FifoStats
from repro.core.isa import Opcode
from repro.polymath import kernels
from repro.polymath.ntt import reference_negacyclic_multiply
from repro.polymath.primes import ntt_friendly_prime
from repro.polymath.rns import RnsBasis, plan_towers

N = 64
Q = ntt_friendly_prime(N, 40)


@pytest.fixture
def drv():
    driver = CofheeDriver(CoFHEE())
    driver.program(Q, N)
    return driver


class TestBringUp:
    def test_program_loads_twiddles_and_allocates(self, drv):
        assert len(drv.buffer_names) >= 6
        # Numeric order, not string order: P10 comes after P9.
        assert drv.buffer_names[:12] == [f"P{i}" for i in range(12)]
        assert drv.chip.programmed_q == Q

    def test_reprogram_at_new_degree_reallocates_in_numeric_order(self, drv):
        """A new degree re-carves the banks; the names stay P0…Pk."""
        drv.program(ntt_friendly_prime(2048, 40), 2048)
        assert drv.buffer_names == [f"P{i}" for i in range(6 * 8192 // 2048)]
        drv.program(Q, N)
        assert drv.buffer_names == [f"P{i}" for i in range(6 * 8192 // N)]

    def test_unknown_buffer(self, drv):
        with pytest.raises(ConfigError, match="unknown buffer"):
            drv.buffer_address("P9999")

    def test_load_length_check(self, drv):
        with pytest.raises(ConfigError, match="expected 64"):
            drv.load_polynomial("P0", [1, 2, 3])

    def test_buffers_partition_banks(self, drv):
        """Buffers at degree 64 pack many slots per 8192-word bank:
        6 data banks (3 DP + 3 SP; the 4th SP holds twiddles)."""
        assert len(drv.buffer_names) == 6 * (8192 // N)

    def test_oversize_degree_needs_large_path(self):
        driver = CofheeDriver(CoFHEE(ChipConfig(poly_words=64)))
        with pytest.raises(CapacityError, match="large"):
            driver.program(ntt_friendly_prime(128, 40), 128)


class TestExecutionModes:
    @pytest.mark.parametrize("mode", ["direct", "fifo", "cm0"])
    def test_all_modes_compute_identically(self, mode, rng):
        driver = CofheeDriver(CoFHEE(), mode=mode)
        driver.program(Q, N)
        a = [rng.randrange(Q) for _ in range(N)]
        b = [rng.randrange(Q) for _ in range(N)]
        driver.load_polynomial("P0", a)
        driver.load_polynomial("P1", b)
        driver.polynomial_multiply("P0", "P1", "P2")
        got, _ = driver.read_polynomial("P2")
        assert got == reference_negacyclic_multiply(a, b, Q)

    def test_mode_io_ordering(self, rng):
        """direct > fifo > cm0 in host-link time (Section III-I)."""
        ios = {}
        for mode in ("direct", "fifo", "cm0"):
            driver = CofheeDriver(CoFHEE(ChipConfig(fidelity="timing")),
                                  mode=mode)
            driver.program(Q, N)
            cmds = [driver.ntt_command("P0", "P1") for _ in range(8)]
            ios[mode] = driver.execute(cmds).io_seconds
        assert ios["direct"] > ios["fifo"] > ios["cm0"]

    def test_fifo_chunks_beyond_depth(self):
        """More than 32 commands stream through the FIFO in chunks."""
        driver = CofheeDriver(CoFHEE(ChipConfig(fidelity="timing")))
        driver.program(Q, N)
        cmds = [driver.ntt_command("P0", "P1") for _ in range(40)]
        report = driver.execute(cmds)
        assert report.commands == 40
        assert driver.chip.fifo.stats.pushes == 40

    def test_bad_mode(self, drv):
        with pytest.raises(ValueError, match="mode"):
            drv.execute([], mode="telepathy")


class TestComposedOps:
    def test_polynomial_multiply(self, drv, rng):
        a = [rng.randrange(Q) for _ in range(N)]
        b = [rng.randrange(Q) for _ in range(N)]
        drv.load_polynomial("P0", a)
        drv.load_polynomial("P1", b)
        report = drv.polynomial_multiply("P0", "P1", "P2")
        got, _ = drv.read_polynomial("P2")
        assert got == reference_negacyclic_multiply(a, b, Q)
        assert report.cycles == drv.chip.timing.polymul_cycles(N)

    def test_ciphertext_multiply_tensor(self, drv, rng):
        ca = tuple([rng.randrange(Q) for _ in range(N)] for _ in range(2))
        cb = tuple([rng.randrange(Q) for _ in range(N)] for _ in range(2))
        for name, coeffs in zip(("P0", "P1", "P2", "P3"), (*ca, *cb)):
            drv.load_polynomial(name, coeffs)
        report, (y0n, y1n, y2n) = drv.ciphertext_multiply(
            "P0", "P1", "P2", "P3", "P4", "P5"
        )
        y0, _ = drv.read_polynomial(y0n)
        y1, _ = drv.read_polynomial(y1n)
        y2, _ = drv.read_polynomial(y2n)
        m00 = reference_negacyclic_multiply(ca[0], cb[0], Q)
        m01 = reference_negacyclic_multiply(ca[0], cb[1], Q)
        m10 = reference_negacyclic_multiply(ca[1], cb[0], Q)
        m11 = reference_negacyclic_multiply(ca[1], cb[1], Q)
        assert y0 == m00
        assert y1 == [(a + b) % Q for a, b in zip(m01, m10)]
        assert y2 == m11
        assert report.cycles == drv.chip.timing.ciphertext_mult_cycles(N, 1)

    def test_ciphertext_multiply_command_mix(self, drv, rng):
        """Algorithm 3's op mix: 4 NTT + 4 Hadamard + 1 add + 3 iNTT."""
        drv.load_polynomial("P0", [1] * N)
        report, _ = drv.ciphertext_multiply("P0", "P0", "P0", "P0", "P1", "P2")
        kinds = [p.kind for p in report.trace.phases]
        assert kinds.count("dit_butterfly") == 4
        assert kinds.count("hadamard") == 4
        assert kinds.count("pointwise_add") == 1
        assert kinds.count("dif_butterfly") == 3
        assert kinds.count("const_mult") == 3


Q30 = ntt_friendly_prime(N, 30)


def _hazard_streams(d: CofheeDriver) -> dict[str, list]:
    """Command streams with every kind of buffer hazard."""
    mul, add = Opcode.PMODMUL, Opcode.PMODADD
    return {
        "polymul": [d.ntt_command("P0", "P0"), d.ntt_command("P1", "P1"),
                    d.pointwise_command(mul, "P0", "P2", y="P1"),
                    d.intt_command("P2", "P2")],
        # P1 is read a level in and then overwritten by a command that
        # depends on nothing: the writer joins the reader's level.
        "write_after_read": [
            d.ntt_command("P0", "P0"),
            d.pointwise_command(mul, "P0", "P2", y="P1"),
            d.ntt_command("P3", "P1"),
        ],
        # The PMODMUL group writes P1, which the PMODADD after it in the
        # same level reads: every read of a level precedes its stores.
        "same_level_write_after_read": [
            d.ntt_command("P0", "P0"),
            d.pointwise_command(mul, "P0", "P2", y="P0"),
            d.pointwise_command(add, "P0", "P4", y="P1"),
            d.pointwise_command(mul, "P0", "P1", y="P3"),
        ],
        "aliased": [d.ntt_command("P0", "P0"), d.ntt_command("P0", "P0"),
                    d.pointwise_command(mul, "P0", "P1", y="P0"),
                    d.pointwise_command(add, "P1", "P1", y="P1"),
                    d.intt_command("P1", "P0")],
        "pointwise": [
            d.pointwise_command(Opcode.CMODMUL, "P0", "P4", constant=Q30 - 5),
            d.pointwise_command(Opcode.PMODSUB, "P1", "P5", y="P4"),
            d.pointwise_command(Opcode.PMODSQR, "P2", "P2"),
            d.pointwise_command(Opcode.CMODMUL, "P3", "P0", constant=7),
        ],
    }


class TestWarmStreams:
    """A word-sized stream's later runs go through the MDMC's compiled
    program and charge its first run's counters; the data and every figure stay
    those of the per-command path."""

    @staticmethod
    def _driver(warm: bool) -> CofheeDriver:
        driver = CofheeDriver(CoFHEE())
        driver.program(Q30, N)
        if not warm:
            driver._stream_key = lambda commands, mode: None
        return driver

    def test_algorithm3_program(self):
        """The twiddle table's check, then 4 NTT -> 4 PMODMUL -> 2 iNTT and
        1 PMODADD -> 1 iNTT, each level ending with its last group."""
        driver = self._driver(True)
        driver.ciphertext_multiply(*driver.buffer_names[:6])
        (stream,) = driver._streams.values()
        (program,) = stream.programs.values()
        lib = kernels._lib
        assert [(g.op, g.rows, g.last) for g in program._groups] == [
            (lib.OP_CHECK, 1, False), (lib.OP_NTT, 4, True),
            (lib.OP_PMODMUL, 4, True), (lib.OP_INTT, 2, False),
            (lib.OP_PMODADD, 1, True), (lib.OP_INTT, 1, True),
        ]

    def test_algorithm3_commands_are_built_once_per_modulus(self):
        """Later towers reuse the stream's command tuple and the key read
        from it; another modulus builds its own, and programming the
        first again (the twiddles downloaded anew) finds the first's."""
        driver = self._driver(True)
        names = tuple(driver.buffer_names[:6])
        driver.ciphertext_multiply(*names)
        (commands,) = driver._alg3.values()
        driver.ciphertext_multiply(*names)
        assert list(driver._alg3.values()) == [commands]
        assert driver._keys[id(commands), N][0] is commands
        q29 = ntt_friendly_prime(N, 29)
        driver.program(q29, N)
        driver.ciphertext_multiply(*names)
        assert len(driver._alg3) == 2
        other = driver._alg3[((q29, N), *names)]
        assert other != commands  # the iNTTs carry q29's n^-1
        driver.program(Q30, N)
        driver.ciphertext_multiply(*names)
        assert driver._alg3[((Q30, N), *names)] is commands
        assert len(driver._alg3) == 2 and len(driver._streams) == 1

    @pytest.mark.parametrize("name", [
        "polymul", "write_after_read", "same_level_write_after_read",
        "aliased", "pointwise",
    ])
    def test_warm_runs_equal_per_command_runs(self, name, rng):
        warm, cold = self._driver(True), self._driver(False)
        for _ in range(3):
            data = [[rng.randrange(Q30) for _ in range(N)] for _ in range(6)]
            got = []
            for driver in (warm, cold):
                driver.chip.fifo.stats = FifoStats()
                for i, coeffs in enumerate(data):
                    driver.load_polynomial(f"P{i}", coeffs)
                report = driver.execute(_hazard_streams(driver)[name], label=name)
                words = [driver.read_polynomial(f"P{i}")[0] for i in range(6)]
                banks = [(b.stats.reads, b.stats.writes)
                         for b in driver.chip.memory_map.banks]
                got.append((report, words, banks, vars(driver.chip.pe.stats),
                            vars(driver.chip.bus.stats),
                            vars(driver.link.stats),
                            vars(driver.chip.fifo.stats)))
            assert got[0] == got[1]
        assert len(warm._streams) == 1

    def test_per_command_paths_are_not_memoized(self, drv):
        """A 40-bit modulus, another mode or another fidelity."""
        drv.polynomial_multiply("P0", "P1", "P2")
        drv.polynomial_multiply("P0", "P1", "P2", mode="direct")
        timing = CofheeDriver(CoFHEE(ChipConfig(fidelity="timing")))
        timing.program(Q30, N)
        timing.polynomial_multiply("P0", "P1", "P2")
        pmul = self._driver(True)
        pmul.pointwise(Opcode.PMUL, "P0", "P1", y="P2")
        assert not (drv._streams or timing._streams or pmul._streams)


class TestRnsPath:
    def test_big_modulus_tensor(self, rng):
        driver = CofheeDriver(CoFHEE())
        basis = RnsBasis(plan_towers(78, 40, N))
        big_q = basis.modulus
        ca = tuple([rng.randrange(big_q) for _ in range(N)] for _ in range(2))
        cb = tuple([rng.randrange(big_q) for _ in range(N)] for _ in range(2))
        towers, reports = zip(*(
            driver.ciphertext_multiply_tower(ca, cb, q) for q in basis.moduli
        ))
        results = [basis.reconstruct_poly([tw[j] for tw in towers])
                   for j in range(3)]
        assert results[0] == reference_negacyclic_multiply(ca[0], cb[0], big_q)
        assert results[2] == reference_negacyclic_multiply(ca[1], cb[1], big_q)
        assert sum(r.cycles for r in reports) == \
            2 * driver.chip.timing.ciphertext_mult_cycles(N, 1)
        # Loads/readbacks accounted.
        assert all(r.io_seconds > 0 for r in reports)


class TestLargeN:
    def test_on_chip_n_rejected(self, drv):
        with pytest.raises(ConfigError, match="fits on chip"):
            drv.large_ntt_report(N)

    def test_n_2_14_is_ii2_no_io(self):
        driver = CofheeDriver(CoFHEE(ChipConfig(fidelity="timing")))
        report = driver.large_ntt_report(2**14)
        assert report.io_seconds == 0
        assert report.cycles == driver.chip.timing.ntt_cycles(2**14)

    def test_n_2_15_pays_host_io(self):
        driver = CofheeDriver(CoFHEE(ChipConfig(fidelity="timing")))
        report = driver.large_ntt_report(2**15)
        assert report.io_seconds > report.compute_seconds


class TestReportMerge:
    def test_merge_concatenates(self, drv):
        drv.load_polynomial("P0", [1] * N)
        r1 = drv.ntt("P0", "P1")
        r2 = drv.intt("P1", "P2")
        merged = OperationReport.merge("seq", [r1, r2], drv.chip.power_model)
        assert merged.cycles == r1.cycles + r2.cycles
        assert merged.commands == 2
