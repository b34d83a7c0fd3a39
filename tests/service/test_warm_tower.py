"""A warm chip tower is one ``replay`` call, loads and cross-check included.

The chip pool runs each tensor tower as
``CofheeDriver.ciphertext_multiply_tower_checked``: after the stream's
first run, one ``ntt.c`` call stores the four operand rows into the
banks mod ``q``, runs Algorithm 3 and compares the three output rows
with the engine's. Here a warmed served EvalMult makes three such calls
and none of the per-command host paths; the in-kernel compare catches
one expected word off by one and one output bank word flipped, in any
row; an operand word at or above ``q`` lands in the bank as
``residue_words`` reduces it; and a warm unit equals its per-command
twin in its verdict, report, every counter and every bank word. So does
a warm stream over rows that overlap at any offset, which the program
keeps as merged regions of its scratch.
"""

from __future__ import annotations

import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.driver as driver_module
import repro.core.mdmc as mdmc_module
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.core.chip import CoFHEE
from repro.core.driver import CofheeDriver
from repro.core.isa import Command, Opcode
from repro.core.mdmc import GROUPED_OPCODES
from repro.core.memory import SramBank
from repro.polymath import kernels, rns
from repro.polymath.primes import next_smaller_ntt_prime, ntt_friendly_prime
from repro.service.backends import ChipPoolBackend
from repro.service.jobs import JobKind, JobStatus
from repro.service.serialization import (
    serialize_ciphertext,
    serialize_relin_key,
)
from repro.service.server import FheServer

PARAMS = BfvParameters.toy_rns(64, 3, 30)

#: 30-bit moduli NTT-friendly at every degree used here.
MODULI = [ntt_friendly_prime(1024, 30)]
MODULI.append(next_smaller_ntt_prime(MODULI[0], 1024))


@pytest.fixture(scope="module")
def tenant():
    bfv = Bfv(PARAMS, seed=53)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(PARAMS)
    rng = random.Random(53)
    cts = [
        serialize_ciphertext(bfv.encrypt(
            encoder.encode([rng.randrange(16) for _ in range(PARAMS.n)]),
            keys.public,
        ))
        for _ in range(4)
    ]
    return keys, cts


def _server(keys, pool_size: int):
    server = FheServer(pool_size=pool_size, result_cache_size=0)
    session = server.open_session(
        "t", PARAMS, relin_key=serialize_relin_key(keys.relin, PARAMS),
    )
    return server, session


def test_a_warm_served_evalmult_is_three_replays(tenant, monkeypatch):
    """Three towers on their own home chips (so no twiddle downloads),
    three ``replay`` calls, and no per-command load, readback, bank
    block access or host reduction."""
    keys, cts = tenant
    server, session = _server(keys, 3)
    server.result(server.submit(session, JobKind.MULTIPLY, cts[:2]))
    calls, real = [], kernels._lib

    class Spy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(real, name)

    def banned(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} on a warm tower")
        return call

    monkeypatch.setattr(kernels, "_lib", Spy())
    for owner, name in ((CofheeDriver, "load_polynomial"),
                        (CofheeDriver, "read_words"),
                        (SramBank, "write_block"), (SramBank, "read_words"),
                        (driver_module, "residue_words"),
                        (mdmc_module, "residue_words"),
                        (rns, "residue_words")):
        monkeypatch.setattr(owner, name, banned(name))
    job = server.submit(session, JobKind.MULTIPLY, cts[2:])
    server.result(job)
    assert calls.count("replay") == 3
    assert not {"load_polynomial", "read_words", "write_block",
                "residue_words"} & set(calls)


def test_one_chip_builds_each_modulus_commands_once(tenant, monkeypatch):
    """A one-chip pool (a fleet worker's) takes turns on the three
    moduli, downloading the twiddles at every switch, yet builds each
    modulus's Algorithm 3 commands and stream key once."""
    keys, cts = tenant
    server, session = _server(keys, 1)
    (worker,) = server.chip_pool.workers
    driver = worker.driver
    built, ntt_command = [], CofheeDriver.ntt_command

    def counted(self, src, dst):
        built.append(self.programmed)
        return ntt_command(self, src, dst)

    monkeypatch.setattr(CofheeDriver, "ntt_command", counted)
    server.result(server.submit(session, JobKind.MULTIPLY, cts[:2]))
    commands, keys_seen = dict(driver._alg3), dict(driver._keys)
    for pair in (cts[1:3], cts[2:]):
        server.result(server.submit(session, JobKind.MULTIPLY, pair))
    moduli = {(q, PARAMS.n) for q in PARAMS.q_basis.moduli}
    assert len(built) == 4 * 3 and set(built) == moduli
    assert {names[0] for names in commands} == moduli
    assert driver._alg3 == commands and all(
        driver._alg3[names] is stream for names, stream in commands.items())
    assert len(keys_seen) == 3 and all(
        driver._keys[k][1] is key for k, (_, key) in keys_seen.items())
    assert server.pool_report()["reprograms"] == [9]


def test_a_wrong_expected_word_fails_the_job_warm(tenant, monkeypatch):
    """One word of the engine's rows off by one, on a warmed pool: the
    job fails with "datapath fault" and charges the busy cycles a
    per-command pool charges for the same failure. Two chips, so one
    alternates two moduli."""
    keys, cts = tenant
    tower_operands = ChipPoolBackend._tower_operands

    def off_by_one(*args):
        operands, expected = tower_operands(*args)
        expected = expected.copy()
        expected[2, 1, -1] = (int(expected[2, 1, -1]) + 1) % MODULI[0]
        return operands, expected

    seen = []
    for warm in (True, False):
        server, session = _server(keys, 2)
        for worker in server.chip_pool.workers:
            if not warm:
                worker.driver._stream_key = lambda commands, mode: None
        server.result(server.submit(session, JobKind.MULTIPLY, cts[:2]))
        with monkeypatch.context() as m:
            m.setattr(ChipPoolBackend, "_tower_operands",
                      staticmethod(off_by_one))
            job = server.submit(session, JobKind.MULTIPLY, cts[1:3])
            with pytest.raises(RuntimeError, match="datapath fault"):
                server.result(job)
        assert server.status(job) is JobStatus.FAILED
        seen.append([w.busy_cycles for w in server.chip_pool.workers])
    assert seen[0] == seen[1]


def _program(q: int, n: int, rows: int):
    """A program of only a LOAD group (the first ``rows`` rows of a
    bank) and an EXPECT group (the rows after them), and that bank."""
    bank = np.zeros(2 * rows * n + 3, np.uint64)
    program = kernels.Replay(
        q, n, [], [], [(bank, 1 + r * n) for r in range(rows)],
        [(bank, 1 + (rows + r) * n) for r in range(rows)],
    )
    return program, bank


@pytest.mark.parametrize("n", [16, 64])
def test_the_compare_reads_every_output_row(n):
    """A flipped bank word in any checked row, first word or last, is a
    mismatch, as is an expected word off by one."""
    q, rows = MODULI[0], 3
    rng = np.random.default_rng(n)
    program, bank = _program(q, n, rows)
    want = rng.integers(0, q, (rows, n), dtype=np.uint32)
    inputs = np.zeros((rows, n), np.uint32)
    bank[1 + rows * n : 1 + 2 * rows * n] = want.ravel()
    assert program(inputs, want) is True
    for row in range(rows):
        for word in (0, n - 1):
            at = 1 + (rows + row) * n + word
            bank[at] ^= np.uint64(1)
            assert program(inputs, want) is False
            bank[at] ^= np.uint64(1)
            wrong = want.copy()
            wrong[row, word] += 1
            assert program(inputs, wrong) is False
    assert program(inputs, want) is True


@pytest.mark.parametrize("n", [16, 64])
def test_operand_words_are_reduced_as_residue_words_reduces_them(n):
    """Loaded rows of words in ``[0, 2^32)`` (mostly above a 30-bit
    ``q``), all ``2^32 - 1``, or all below ``q``, read from a strided
    stack, land in the bank as ``residue_words``' words."""
    q, rows = MODULI[1], 4
    rng = np.random.default_rng(n)
    stacks = [
        rng.integers(0, 1 << 32, (rows, 3, n), dtype=np.uint32),
        np.full((rows, 3, n), (1 << 32) - 1, np.uint32),
        rng.integers(0, q, (rows, 3, n), dtype=np.uint32),
    ]
    for stack in stacks:
        program, bank = _program(q, n, rows)
        inputs = stack[:, 1]  # rows 3 n words apart
        assert program(inputs, np.zeros((rows, n), np.uint32)) is True
        loaded = bank[1 : 1 + rows * n].reshape(rows, n)
        for got, row in zip(loaded, inputs):
            want = rns.residue_words(row.astype(np.uint64), q)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_host_rows_of_the_wrong_shape_are_refused():
    program, _ = _program(MODULI[0], 16, 2)
    good = np.zeros((2, 16), np.uint32)
    for bad in (good[:1], good.astype(np.uint64), np.zeros((2, 32))[:, ::2],
                None):
        with pytest.raises(ValueError):
            program(bad, good)
        with pytest.raises(ValueError):
            program(good, bad)


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


@pytest.mark.parametrize("n", [16, 1024])
def test_warm_units_equal_per_command_units(n):
    """Two moduli alternating on one driver, operands with words at or
    above ``q``, expected rows right or with one word wrong: the warm
    driver's verdict, report, counters and bank words are its
    per-command twin's after every unit."""
    rng = np.random.default_rng(n)
    warm, cold, oracle = (CofheeDriver(CoFHEE()) for _ in range(3))
    cold._stream_key = lambda commands, mode: None
    for unit in range(6):
        q = MODULI[unit % 2]
        operands = rng.integers(0, 1 << 32, (4, n), dtype=np.uint32)
        operands[:, ::3] %= np.uint32(q)
        outs, _ = oracle.ciphertext_multiply_tower_words(
            operands[:2].astype(np.uint64) % np.uint64(q),
            operands[2:].astype(np.uint64) % np.uint64(q), q)
        expected = np.array(outs, dtype=np.uint32)
        if unit % 3 == 2:
            expected[unit % 3, int(rng.integers(n))] ^= 1
        got = warm.ciphertext_multiply_tower_checked(operands, expected, q)
        want = cold.ciphertext_multiply_tower_checked(operands, expected, q)
        assert got == want
        assert got[0] is (unit % 3 != 2)
        assert _state(warm) == _state(cold)
    assert len(warm._streams) == 1 and not cold._streams


@given(
    n=st.sampled_from([16, 64]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_streams_over_overlapping_rows_equal_per_command_runs(n, seed, length):
    """Random streams of every grouped opcode over rows of two banks at
    offsets that overlap (0, 1, n/2, n - 1, n, ...), on banks holding
    words at and above ``q``: each warm run's report, counters and bank
    words are the per-command twin's."""
    rng = random.Random(seed)
    q = MODULI[0]
    warm, cold = CofheeDriver(CoFHEE()), CofheeDriver(CoFHEE())
    cold._stream_key = lambda commands, mode: None
    for driver in (warm, cold):
        driver.program(q, n)
    mm = warm.chip.memory_map
    offsets = (0, 1, 3, n // 2, n - 1, n, n + 1, 2 * n - 3)

    def address(bank: str) -> int:
        return mm.base_address(bank) + 16 * rng.choice(offsets)

    ops = sorted(GROUPED_OPCODES, key=lambda op: op.value)
    commands = []
    for _ in range(length):
        op = rng.choice(ops)
        commands.append(Command(
            op, n=n, x_addr=address(rng.choice(("DP0", "DP1"))),
            y_addr=address(rng.choice(("DP0", "DP1")))
            if op.needs_y_operand else 0,
            twiddle_addr=mm.base_address("TWD") if op.needs_twiddles else 0,
            out_addr=address(rng.choice(("DP0", "DP1"))),
            constant=warm.chip.n_inverse if op is Opcode.INTT
            else rng.randrange(q) if op is Opcode.CMODMUL else 0,
        ))
    words = 3 * n
    for run in range(3):
        data = [[rng.randrange(1 << 40 if run == 1 else q)
                 for _ in range(words)] for _ in range(2)]
        for driver in (warm, cold):
            for bank, values in zip(("DP0", "DP1"), data):
                driver.chip.bus.burst_write(mm.base_address(bank), values)
        reports = [d.execute(commands, label="random") for d in (warm, cold)]
        assert reports[0] == reports[1]
        assert _state(warm) == _state(cold)
    assert len(warm._streams) == 1
