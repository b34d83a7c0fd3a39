"""Golden chip statistics: the Algorithm 3 replay against a checked-in snapshot.

Each case programs a fresh chip, loads four operand polynomials (wide
random integers, so the driver's mod-q reduction runs), replays the
12-command ciphertext multiplication stream, then issues one ``PMUL``
(plain 128-bit products, which widen the destination bank whenever a
product exceeds 64 bits). Everything the chip model reports is compared
against ``chip_golden.json``:

* a digest of every output word;
* ``trace.cycles`` of both operations;
* PE ``multiplies``/``adds``/``subs``/``butterflies``;
* per-bank SRAM ``reads``/``writes``;
* bus ``beats``/``burst_transfers``.

The moduli cover the word-sized vector kernels (20 and 30 bits), a 60-bit
modulus (64-bit words, scalar walk) and a 109-bit one (banks promoted to
exact Python integers). ``pe`` fidelity runs on the small degrees.

Every ``vector`` case also runs twice on one driver, with
``chip.reset_stats()`` between, and the second run must match the same
snapshot entry: on the word-sized moduli the driver has then seen the
stream and computes it warm (one kernel call per hazard-ordered group,
the first run's counters charged again).

Regenerate the snapshot (only when a change is *meant* to move the
model's statistics) with::

    PYTHONPATH=src python tests/core/test_chip_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.chip import ChipConfig, CoFHEE
from repro.core.driver import CofheeDriver
from repro.core.isa import Opcode
from repro.polymath.primes import ntt_friendly_prime

SNAPSHOT = Path(__file__).with_name("chip_golden.json")
DEGREES = (8, 64, 1024, 4096)
#: q = 1 mod 2 * 4096, so every modulus runs a full NTT at every degree.
MODULI = {bits: ntt_friendly_prime(4096, bits) for bits in (20, 30, 60, 109)}
CASES = [
    (fidelity, n, bits)
    for n in DEGREES
    for bits in MODULI
    for fidelity in (("vector", "pe") if n <= 64 else ("vector",))
]


def _digest(words: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, words)).encode()).hexdigest()


def run_case(fidelity: str, n: int, bits: int,
             driver: CofheeDriver | None = None) -> dict:
    """Replay Algorithm 3 plus one PMUL (on a fresh chip, or ``driver``'s);
    return every reported statistic."""
    q = MODULI[bits]
    driver = driver or CofheeDriver(CoFHEE(ChipConfig(fidelity=fidelity)))
    chip = driver.chip
    driver.program(q, n)
    rng = random.Random(f"chip-golden/{n}/{bits}")
    a0, a1, b0, b1, t0, t1 = driver.buffer_names[:6]
    for name in (a0, a1, b0, b1):
        driver.load_polynomial(name, [rng.getrandbits(112) for _ in range(n)])
    mult, outs = driver.ciphertext_multiply(a0, a1, b0, b1, t0, t1)
    words = [driver.read_polynomial(name)[0] for name in outs]
    pmul = driver.pointwise(Opcode.PMUL, outs[0], a0, y=outs[1])
    words.append(driver.read_polynomial(a0)[0])
    assert all(isinstance(w, int) for w in words[-1])
    pe = chip.pe.stats
    return {
        "outputs": [_digest(w) for w in words],
        "cycles": [mult.cycles, pmul.cycles],
        "pe": [pe.multiplies, pe.adds, pe.subs, pe.butterflies],
        "banks": {
            b.name: [b.stats.reads, b.stats.writes]
            for b in chip.memory_map.banks
        },
        "bus": [chip.bus.stats.beats, chip.bus.stats.burst_transfers],
    }


def _key(fidelity: str, n: int, bits: int) -> str:
    return f"{fidelity}/n={n}/q{bits}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("fidelity,n,bits", CASES)
def test_replay_matches_snapshot(golden, fidelity, n, bits):
    assert run_case(fidelity, n, bits) == golden[_key(fidelity, n, bits)]


@pytest.mark.parametrize(
    "fidelity,n,bits", [case for case in CASES if case[0] == "vector"]
)
def test_second_run_on_one_driver_matches_snapshot(golden, fidelity, n, bits):
    driver = CofheeDriver(CoFHEE(ChipConfig(fidelity=fidelity)))
    run_case(fidelity, n, bits, driver)
    driver.chip.reset_stats()
    assert run_case(fidelity, n, bits, driver) == golden[_key(fidelity, n, bits)]
    assert len(driver._streams) == (bits <= 30)  # the one warm stream


def test_snapshot_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(
        {_key(*case): run_case(*case) for case in CASES}, indent=1,
        sort_keys=True,
    ) + "\n")
