"""Property: a warm command stream is its cold run, to the last counter.

``CofheeDriver.execute`` runs each word-sized Algorithm 3 stream per
command once, then computes later runs of the same stream with the
MDMC's compiled program, one kernel call, and charges the counters the
first run recorded. Here a pool of drivers serves jobs of random residues on
30-bit moduli, every tower on its home chip (a one-chip pool alternates
all the moduli on one memo), with one operand word at or above the
modulus, beside a twin pool whose drivers run every stream per command.
After every tower the two pools must agree on the outputs, every
``OperationReport`` field, every chip counter and every word of every
bank. The same holds one level up, for served EvalMults:
result bytes, job cycles, each worker's busy cycles and reprograms, and
every chip counter; and after a twiddle word changes, when the stream
runs per command.
"""

import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.core.chip import CoFHEE
from repro.core.driver import CofheeDriver
from repro.polymath import kernels
from repro.polymath.primes import next_smaller_ntt_prime, ntt_friendly_prime
from repro.service.jobs import JobKind
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_relin_key,
)
from repro.service.server import FheServer

#: 30-bit moduli NTT-friendly at every degree drawn (q = 1 mod 2048).
MODULI = [ntt_friendly_prime(1024, 30)]
while len(MODULI) < 3:
    MODULI.append(next_smaller_ntt_prime(MODULI[-1], 1024))


def _pool(size: int, warm: bool) -> list[CofheeDriver]:
    drivers = [CofheeDriver(CoFHEE()) for _ in range(size)]
    if not warm:
        for driver in drivers:
            driver._stream_key = lambda commands, mode: None
    return drivers


def _state(driver: CofheeDriver) -> tuple:
    """Every counter the chip keeps, its banks' words and the driver's
    reprogram count."""
    chip = driver.chip
    holders = [b.stats for b in chip.memory_map.banks] + [
        chip.pe.stats, chip.bus.stats, chip.spi.stats, chip.uart.stats,
        chip.fifo.stats,
    ]
    return (
        [[getattr(h, f.name) for f in fields(h)] for h in holders],
        chip.mdmc.total_cycles, chip.mdmc.commands_executed,
        chip.fifo.take_interrupt(), len(chip.fifo), driver.reprograms,
        [b.data.tolist() for b in chip.memory_map.banks],
    )


def _poke_before_each_stream(driver: CofheeDriver, pokes: list) -> None:
    """Before each stream, write ``pokes[0]``'s word ``(buffer, index,
    word)`` through the bus: after a tower's loads, before its run."""
    execute = driver.execute

    def poked(commands, label="sequence", mode=None):
        buffer, index, word = pokes[0]
        driver.chip.bus.single_write(
            driver.buffer_address(buffer) + 16 * index, word)
        return execute(commands, label, mode)

    driver.execute = poked


@given(
    n=st.sampled_from([16, 64, 1024]),
    pool_size=st.sampled_from([1, 4]),
    towers=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    word=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=12, deadline=None)
def test_warm_streams_equal_cold_ones(n, pool_size, towers, seed, word):
    """Each tower's operands hold one word in ``[q, 2^64)``, written
    through the bus after the loads, which both paths must reduce."""
    rng = np.random.default_rng(seed)
    warm, cold = _pool(pool_size, True), _pool(pool_size, False)
    pokes = [None]
    for driver in warm + cold:
        _poke_before_each_stream(driver, pokes)
    for _ in range(3):  # the first job runs cold on both pools
        for tower, q in enumerate(MODULI[:towers]):
            a, b = (rng.integers(0, q, (2, n), dtype=np.uint64)
                    for _ in range(2))
            home = tower % pool_size
            pokes[0] = (f"P{rng.integers(4)}", int(rng.integers(n)),
                        q + word % (2**64 - q))
            got, got_report = warm[home].ciphertext_multiply_tower_words(
                a, b, q)
            want, want_report = cold[home].ciphertext_multiply_tower_words(
                a, b, q)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert got_report == want_report
            assert _state(warm[home]) == _state(cold[home])
    assert all(len(d._streams) == 1 for d in warm[:towers])


@pytest.mark.parametrize("pool_size", [1, 4])
def test_served_jobs_charge_what_per_command_pools_charge(pool_size):
    params = BfvParameters.toy_rns(64, 3, 30)
    bfv = Bfv(params, seed=41)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(params)
    rng = random.Random(41)
    cts = [
        serialize_ciphertext(bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(params.n)]),
            keys.public,
        ))
        for _ in range(4)
    ]
    seen = []
    for warm in (True, False):
        server = FheServer(pool_size=pool_size, result_cache_size=0)
        if not warm:
            for worker in server.chip_pool.workers:
                worker.driver._stream_key = lambda commands, mode: None
        session = server.open_session(
            "t", params, relin_key=serialize_relin_key(keys.relin, params),
        )
        results = []
        for i in range(6):
            job_id = server.submit(
                session, JobKind.MULTIPLY, (cts[i % 4], cts[(i + 1) % 4]),
            )
            results.append((
                server.result(job_id), server.job_metrics(job_id).cycles,
            ))
        seen.append((
            results,
            [(w.busy_cycles, w.driver.reprograms, _state(w.driver))
             for w in server.chip_pool.workers],
        ))
    assert seen[0] == seen[1]


def test_a_changed_twiddle_word_runs_the_stream_per_command():
    """A warm run checks the twiddle rows its program was compiled from:
    after one word of the table changes, the stream runs per command,
    with the outputs, report and every counter of a per-command driver
    holding the same table. Programmed again, it runs warm again."""
    n, q = 64, MODULI[0]
    rng = np.random.default_rng(7)
    a, b = (rng.integers(0, q, (2, n), dtype=np.uint64) for _ in range(2))
    (warm,), (cold,) = _pool(1, True), _pool(1, False)
    per_command = []
    execute = warm._execute
    warm._execute = lambda *args: per_command.append(args) or execute(*args)
    for driver in (warm, cold):
        driver.ciphertext_multiply_tower_words(a, b, q)  # the cold run
        entry = driver.chip.memory_map.base_address("TWD") + 16
        value, _ = driver.chip.bus.single_read(entry)
        driver.chip.bus.single_write(entry, (value + 1) % q)
    for runs, reprogram in ((2, False), (2, True)):
        if reprogram:
            warm.program(q, n)
            cold.program(q, n)
        got, got_report = warm.ciphertext_multiply_tower_words(a, b, q)
        want, want_report = cold.ciphertext_multiply_tower_words(a, b, q)
        assert len(per_command) == runs
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got_report == want_report
        assert _state(warm) == _state(cold)


def test_a_warm_tower_is_one_kernel_call(monkeypatch):
    """Loads and readback are numpy's, and the whole stream is one
    ``replay``: no kernel call per issue group."""
    n, q = 1024, MODULI[0]
    rng = np.random.default_rng(11)
    (driver,) = _pool(1, True)
    calls = []
    lib = kernels._lib

    class Spy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lib, name)

    for run in range(3):
        if run == 1:  # after the cold run
            monkeypatch.setattr(kernels, "_lib", Spy())
        a, b = (rng.integers(0, q, (2, n), dtype=np.uint32) for _ in range(2))
        driver.ciphertext_multiply_tower_words(a, b, q)
    assert calls == ["replay"] * 2
