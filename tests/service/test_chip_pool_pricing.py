"""The chip pool's per-job accounting, pinned on every execution path.

A job on chip-native moduli replays each Eq. 4 tensor tower by tower on
the towers' home chips, then charges the rotations' automorphism copies
to the lead worker, each key-switch tail to the then-least-loaded worker
(relinearizations first, then rotations in step order) and the linear
passes to the lead, last. Any other job is priced whole on the lead from
:class:`~repro.core.timing.TimingModel`. These tests serve the same job
sequence — every raw op and one circuit mixing every step kind — through
pools of 1 and 3 on four parameter sets, one per path:

* ``toy_rns(16, 3, 30)``: chip-native, the tensor's reference rows come
  from the scheme's engine;
* ``toy(16, 60)``: a chip-native 60-bit tower, cross-checked against
  :meth:`~repro.baselines.software.SoftwareBfv.tensor_towers`;
* ``toy(16, 140)``: wider than the chip's Q register, so modeled, as
  the two CoFHEE towers ``from_paper`` would plan;
* a bare ``BfvParameters(n, q, t)`` with no bases: modeled.

Every job's ``cycles``, ``makespan_cycles``, ``worker``, ``fidelity``,
``tower_cycles``, ``relin_cycles`` and ``model_seconds``, and each
worker's busy cycles, are pinned to recorded values. Run this file as a
script to print the values the code gives now.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.software import SoftwareBfv
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.rotation import RotationEngine
from repro.polymath.primes import ntt_friendly_prime
from repro.service.backends import ChipPoolBackend
from repro.service.circuits import CircuitBuilder, rotation_exponents
from repro.service.jobs import Job, JobKind, JobStatus
from repro.service.registry import SessionRegistry

PARAMS = {
    "rns3x30": BfvParameters.toy_rns(16, 3, 30),
    "tower60": BfvParameters.toy(16, 60),
    "tower140": BfvParameters.toy(16, 140),
    "bare60": BfvParameters(
        n=16, q=ntt_friendly_prime(16, 60), t=ntt_friendly_prime(16, 12)
    ),
}
POOLS = (1, 3)


def _mixed_circuit():
    b = CircuitBuilder("mixed")
    x, y = b.input("x"), b.input("y")
    three = b.scalar(3)
    bias = b.plain([i % 5 for i in range(16)])
    r = b.mul_relin(x, y)
    r = b.rotate_rows(r, 1)
    r = b.rotate_columns(r)
    r = b.mac_const(r, x, three)
    r = b.add_const(r, bias)
    r = b.relinearize(b.mul(r, y))
    r = b.sub(r, x)
    r = b.mul_const(r, three)
    b.output("out", b.square_relin(r))
    return b.build()


MIXED = _mixed_circuit()

#: (label, kind, operand indices, rotate steps / circuit)
JOBS = (
    ("multiply", JobKind.MULTIPLY, (0, 1), None),
    ("square", JobKind.SQUARE, (0,), None),
    ("add", JobKind.ADD, (0, 1), None),
    ("sub", JobKind.SUB, (0, 1), None),
    ("rotate+1", JobKind.ROTATE, (0,), 1),
    ("rotate-1", JobKind.ROTATE, (0,), -1),
    ("mixed", JobKind.CIRCUIT, (0, 1), MIXED),
)


def _registry_and_operands(params):
    bfv = Bfv(params, seed=45)
    keys = bfv.keygen(relin_digit_bits=20)
    rotor = RotationEngine(bfv, keys.secret)
    encoder = BatchEncoder(params)
    rng = random.Random(45)
    cts = [
        bfv.encrypt(
            encoder.encode([rng.randrange(8) for _ in range(params.n)]),
            keys.public,
        )
        for _ in range(2)
    ]
    row = CircuitBuilder("rotations")
    x = row.input("x")
    row.output("y", row.rotate_rows(row.rotate_rows(
        row.rotate_columns(x), 1), -1))
    exponents = set(rotation_exponents(row.build(), params))
    exponents |= set(rotation_exponents(MIXED, params))
    registry = SessionRegistry()
    session = registry.open_session(
        "t", params, relin=keys.relin,
        galois=tuple(rotor.galois_key(e) for e in sorted(exponents)),
    )
    return registry, session, cts


def _serve(params_name, pool_size):
    """Serve the job sequence on a fresh pool; returns (jobs, busy)."""
    registry, session, cts = _registry_and_operands(PARAMS[params_name])
    pool = ChipPoolBackend(pool_size=pool_size)
    rows = {}
    for label, kind, operands, extra in JOBS:
        job = Job(
            session_id=session.session_id, tenant="t", kind=kind,
            operands=[cts[i] for i in operands],
            steps=extra if kind is JobKind.ROTATE else 0,
            payload=extra if kind is JobKind.CIRCUIT else None,
        )
        pool.execute_batch(0, [job], registry)
        assert job.status is JobStatus.DONE, job.error
        m = job.metrics
        rows[label] = (
            m.cycles, m.makespan_cycles, m.worker, m.fidelity,
            m.tower_cycles, m.relin_cycles, m.model_seconds,
        )
    return rows, [w.busy_cycles for w in pool.workers]


#: (params, pool) -> ({job: (cycles, makespan, worker, fidelity,
#: tower_cycles, relin_cycles, model_seconds)}, per-worker busy cycles),
#: recorded before the chip pool's two pricing paths were merged.
RECORDED = {
    ("rns3x30", 1): ({
        "multiply": (9189, 9189, 0, "chip",
            (1143, 1143, 1143), 5760, 3.6756e-05),
        "square": (9189, 9189, 0, "chip",
            (1143, 1143, 1143), 5760, 3.6756e-05),
        "add": (222, 222, 0, "model", (), 0, 8.88e-07),
        "sub": (222, 222, 0, "model", (), 0, 8.88e-07),
        "rotate+1": (6752, 6752, 0, "model", (), 0, 2.7008e-05),
        "rotate-1": (6752, 6752, 0, "model", (), 0, 2.7008e-05),
        "mixed": (42070, 42070, 0, "chip",
            (3429, 3429, 3429), 30784, 0.00016828),
    }, [74396]),
    ("rns3x30", 3): ({
        "multiply": (9189, 6903, 0, "chip",
            (1143, 1143, 1143), 5760, 3.6756e-05),
        "square": (9189, 6903, 1, "chip",
            (1143, 1143, 1143), 5760, 3.6756e-05),
        "add": (222, 222, 2, "model", (), 0, 8.88e-07),
        "sub": (222, 222, 2, "model", (), 0, 8.88e-07),
        "rotate+1": (6752, 6752, 2, "model", (), 0, 2.7008e-05),
        "rotate-1": (6752, 6752, 0, "model", (), 0, 2.7008e-05),
        "mixed": (42070, 16096, 2, "chip",
            (3429, 3429, 3429), 30784, 0.00016828),
    }, [24905, 24142, 25349]),
    ("tower60", 1): ({
        "multiply": (2451, 2451, 0, "chip", (1143,), 1308, 9.804e-06),
        "square": (2451, 2451, 0, "chip", (1143,), 1308, 9.804e-06),
        "add": (74, 74, 0, "model", (), 0, 2.96e-07),
        "sub": (74, 74, 0, "model", (), 0, 2.96e-07),
        "rotate+1": (1688, 1688, 0, "model", (), 0, 6.752e-06),
        "rotate-1": (1688, 1688, 0, "model", (), 0, 6.752e-06),
        "mixed": (11062, 11062, 0, "chip", (3429,), 7300, 4.4248e-05),
    }, [19488]),
    ("tower60", 3): ({
        "multiply": (2451, 1308, 1, "chip", (1143,), 1308, 9.804e-06),
        "square": (2451, 1308, 2, "chip", (1143,), 1308, 9.804e-06),
        "add": (74, 74, 1, "model", (), 0, 2.96e-07),
        "sub": (74, 74, 2, "model", (), 0, 2.96e-07),
        "rotate+1": (1688, 1688, 1, "model", (), 0, 6.752e-06),
        "rotate-1": (1688, 1688, 2, "model", (), 0, 6.752e-06),
        "mixed": (11062, 4230, 1, "chip", (3429,), 7300, 4.4248e-05),
    }, [6196, 7300, 5992]),
    ("tower140", 1): ({
        "multiply": (7350, 7350, 0, "model", (), 0, 2.94e-05),
        "square": (7350, 7350, 0, "model", (), 0, 2.94e-05),
        "add": (148, 148, 0, "model", (), 0, 5.92e-07),
        "sub": (148, 148, 0, "model", (), 0, 5.92e-07),
        "rotate+1": (6362, 6362, 0, "model", (), 0, 2.5448e-05),
        "rotate-1": (6362, 6362, 0, "model", (), 0, 2.5448e-05),
        "mixed": (35440, 35440, 0, "model", (), 0, 0.00014176),
    }, [63160]),
    ("tower140", 3): ({
        "multiply": (7350, 7350, 0, "model", (), 0, 2.94e-05),
        "square": (7350, 7350, 1, "model", (), 0, 2.94e-05),
        "add": (148, 148, 2, "model", (), 0, 5.92e-07),
        "sub": (148, 148, 2, "model", (), 0, 5.92e-07),
        "rotate+1": (6362, 6362, 2, "model", (), 0, 2.5448e-05),
        "rotate-1": (6362, 6362, 2, "model", (), 0, 2.5448e-05),
        "mixed": (35440, 35440, 0, "model", (), 0, 0.00014176),
    }, [42790, 7350, 13020]),
    ("bare60", 1): ({
        "multiply": (2451, 2451, 0, "model", (), 0, 9.804e-06),
        "square": (2451, 2451, 0, "model", (), 0, 9.804e-06),
        "add": (74, 74, 0, "model", (), 0, 2.96e-07),
        "sub": (74, 74, 0, "model", (), 0, 2.96e-07),
        "rotate+1": (1688, 1688, 0, "model", (), 0, 6.752e-06),
        "rotate-1": (1688, 1688, 0, "model", (), 0, 6.752e-06),
        "mixed": (11062, 11062, 0, "model", (), 0, 4.4248e-05),
    }, [19488]),
    ("bare60", 3): ({
        "multiply": (2451, 2451, 0, "model", (), 0, 9.804e-06),
        "square": (2451, 2451, 1, "model", (), 0, 9.804e-06),
        "add": (74, 74, 2, "model", (), 0, 2.96e-07),
        "sub": (74, 74, 2, "model", (), 0, 2.96e-07),
        "rotate+1": (1688, 1688, 2, "model", (), 0, 6.752e-06),
        "rotate-1": (1688, 1688, 2, "model", (), 0, 6.752e-06),
        "mixed": (11062, 11062, 0, "model", (), 0, 4.4248e-05),
    }, [13513, 2451, 3524]),
}


@pytest.mark.parametrize("pool_size", POOLS)
@pytest.mark.parametrize("params_name", list(PARAMS))
def test_accounting_is_pinned(params_name, pool_size):
    rows, busy = _serve(params_name, pool_size)
    want_rows, want_busy = RECORDED[params_name, pool_size]
    assert rows == want_rows
    assert busy == want_busy
    assert sum(r[0] for r in rows.values()) == sum(busy)


def test_each_path_is_covered():
    """The four sets take the paths their names claim."""
    fidelity = {
        name: {RECORDED[name, 1][0][label][3] for label in ("multiply", "add")}
        for name in PARAMS
    }
    assert fidelity == {
        "rns3x30": {"chip", "model"},
        "tower60": {"chip", "model"},
        "tower140": {"model"},
        "bare60": {"model"},
    }


@pytest.mark.parametrize("params_name, references", [
    ("rns3x30", 0), ("tower60", 5), ("tower140", 0), ("bare60", 0),
])
def test_wide_towers_are_checked_against_the_software_reference(
        params_name, references, monkeypatch):
    """Only the 60-bit chip-native tower, which the engine's 30-bit rows
    cannot hold, computes its tensor reference with ``SoftwareBfv``: once
    per tensor (multiply, square and the mixed circuit's three)."""
    calls = []
    tensor_towers = SoftwareBfv.tensor_towers

    def counted(self, *args):
        calls.append(args)
        return tensor_towers(self, *args)

    monkeypatch.setattr(SoftwareBfv, "tensor_towers", counted)
    _serve(params_name, 1)
    assert len(calls) == references


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {(name, pool): _serve(name, pool)
         for name in PARAMS for pool in POOLS},
        width=79,
    )
