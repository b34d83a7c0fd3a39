"""Integration: chip model vs software baseline vs pure-math reference.

Three independently-implemented execution paths must agree bit-exactly on
the ciphertext tensor: the cycle-level chip driver (bank-resident data,
shared twiddle table, 6-buffer schedule), the SEAL-style software baseline
(per-tower NTT-domain evaluation), and the schoolbook reference.
"""

import random

import pytest

from repro.baselines.software import SoftwareBfv
from repro.core.chip import ChipConfig, CoFHEE
from repro.core.driver import CofheeDriver
from repro.polymath.ntt import reference_negacyclic_multiply
from repro.polymath.rns import RnsBasis, plan_towers

N = 128


@pytest.fixture(scope="module")
def basis():
    return RnsBasis(plan_towers(78, 40, N))


@pytest.fixture(scope="module")
def ciphertexts(basis):
    rng = random.Random(404)
    big_q = basis.modulus
    ca = tuple([rng.randrange(big_q) for _ in range(N)] for _ in range(2))
    cb = tuple([rng.randrange(big_q) for _ in range(N)] for _ in range(2))
    return ca, cb


class TestThreeWayAgreement:
    def test_chip_vs_software_vs_schoolbook(self, basis, ciphertexts):
        ca, cb = ciphertexts
        big_q = basis.modulus
        driver = CofheeDriver(CoFHEE())
        towers = [driver.ciphertext_multiply_tower(ca, cb, q)[0]
                  for q in basis.moduli]
        chip_result = [basis.reconstruct_poly([tw[j] for tw in towers])
                       for j in range(3)]
        sw_result = SoftwareBfv(basis, N).ciphertext_multiply(ca, cb)
        reference = [
            reference_negacyclic_multiply(ca[0], cb[0], big_q),
            [
                (x + y) % big_q
                for x, y in zip(
                    reference_negacyclic_multiply(ca[0], cb[1], big_q),
                    reference_negacyclic_multiply(ca[1], cb[0], big_q),
                )
            ],
            reference_negacyclic_multiply(ca[1], cb[1], big_q),
        ]
        assert chip_result == sw_result == reference


class TestFidelityEquivalence:
    def test_pe_and_vector_fidelity_identical(self, rng):
        """The per-butterfly Barrett path and the batched path are the
        same machine."""
        from repro.polymath.primes import ntt_friendly_prime

        q = ntt_friendly_prime(64, 40)
        a = [rng.randrange(q) for _ in range(64)]
        b = [rng.randrange(q) for _ in range(64)]
        outputs = {}
        for fidelity in ("pe", "vector"):
            driver = CofheeDriver(CoFHEE(ChipConfig(fidelity=fidelity)))
            driver.program(q, 64)
            driver.load_polynomial("P0", a)
            driver.load_polynomial("P1", b)
            report = driver.polynomial_multiply("P0", "P1", "P2")
            outputs[fidelity] = (driver.read_polynomial("P2")[0], report.cycles)
        assert outputs["pe"] == outputs["vector"]

    def test_timing_fidelity_same_cycles(self):
        """Timing-only mode reports identical cycle counts (data-free)."""
        from repro.polymath.primes import ntt_friendly_prime

        q = ntt_friendly_prime(64, 40)
        cycles = {}
        for fidelity in ("vector", "timing"):
            driver = CofheeDriver(CoFHEE(ChipConfig(fidelity=fidelity)))
            driver.program(q, 64)
            driver.load_polynomial("P0", [1] * 64)
            cycles[fidelity] = driver.polynomial_multiply("P0", "P0", "P1").cycles
        assert cycles["vector"] == cycles["timing"]


@pytest.mark.slow
class TestPaperScaleFunctional:
    def test_full_n_2_12_ntt_roundtrip(self):
        """One functional NTT/iNTT pair at the silicon-optimized degree."""
        from repro.polymath.primes import ntt_friendly_prime

        rng = random.Random(1)
        n = 2**12
        q = ntt_friendly_prime(n, 109)
        driver = CofheeDriver(CoFHEE())
        driver.program(q, n)
        a = [rng.randrange(q) for _ in range(n)]
        driver.load_polynomial("P0", a)
        driver.ntt("P0", "P1")
        driver.intt("P1", "P2")
        got, _ = driver.read_polynomial("P2")
        assert got == a
