"""The served EvalMult's host work, pinned: kernel calls and memory.

A served ``multiply_relin`` takes its operands from the wire (word-backed
polynomials) and returns packed bytes. At the benchmark's parameters (n =
2^12, three 30-bit towers of q, 30-bit relinearization digits) each change
of representation is one ``ntt.c`` kernel: the operands' entry onto the
tensor basis, the tensor's NTTs and products, one scale-and-round, one
tower-to-digit split, the key switch, and one pack per result.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.polymath import kernels
from repro.service.serialization import (
    deserialize_ciphertext,
    serialize_ciphertext,
)

#: The warm call's kernels, in order.
CALLS = [
    "centre", "ntt", "tensor", "ntt",  # entry, Eq. 4 tensor
    "scale_round",  # round(t/q c) on q's towers
    "digits", "ntt", "keyswitch", "ntt",  # relinearization
    "pack", "pack",  # the result's two components
]

#: Bound on the warm call's traced peak, above what it held before.
PEAK_BYTES = 0.75 * 2**20


@pytest.fixture(scope="module")
def served():
    params = BfvParameters.toy_rns(n=4096, towers=3, tower_bits=30)
    bfv = Bfv(params, seed=5)
    keys = bfv.keygen(relin_digit_bits=30)
    encoder = BatchEncoder(params)
    rng = np.random.default_rng(5)
    wire = [
        serialize_ciphertext(bfv.encrypt(
            encoder.encode(rng.integers(0, 16, params.n).tolist()),
            keys.public,
        ))
        for _ in range(2)
    ]

    def job():
        a, b = (deserialize_ciphertext(w, params) for w in wire)
        return lambda: [p.pack() for p in
                        bfv.multiply_relin(a, b, keys.relin).polys]

    want = job()()  # warms the engines, the key's NTT rows and the tables
    return job, want


def test_a_warm_evalmult_is_eleven_kernel_calls(served, monkeypatch):
    job, want = served
    run, calls, real = job(), [], kernels._lib

    class Spy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(real, name)

    monkeypatch.setattr(kernels, "_lib", Spy())
    assert run() == want
    assert calls == CALLS


def test_a_warm_evalmult_peaks_below_its_bound(served):
    job, want = served
    run = job()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak - before <= PEAK_BYTES
