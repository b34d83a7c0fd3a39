"""Seed-generated traffic: parameter sets, keys, ciphertext pools, jobs.

Everything a workload sends is made here from ``--seed`` and nothing
else, and every job carries the plaintext its result must decrypt to,
computed in the slot domain without touching a ciphertext. The serving
stack only ever receives the wire bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bfv import BatchEncoder, Bfv, BfvParameters, RotationEngine
from repro.bfv.rotation import slot_permutation
from repro.service.circuits import (
    Circuit,
    CircuitBuilder,
    evaluate_circuit,
    rotation_exponents,
)
from repro.service.fleet import route_index
from repro.service.serialization import (
    deserialize_ciphertext,
    deserialize_circuit_outputs,
    params_digest,
    serialize_ciphertext,
    serialize_circuit,
    serialize_circuit_outputs,
    serialize_galois_key,
    serialize_params,
    serialize_relin_key,
)

#: Paper parameter set of every workload: n = 2^12, three 30-bit towers.
PAPER_N = 2**12
#: ``--quick`` (tests only): same shape at a toy degree.
QUICK_N = 64
TOWERS = 3
TOWER_BITS = 30
RELIN_DIGIT_BITS = 30

#: The dense layer sums 16 adjacent slots: four rotate-and-add rounds.
DENSE_ROUNDS = 4
DENSE_SCALE = 3


@dataclass(frozen=True)
class Job:
    """One unit of traffic: operands by pool index, plus its reference."""

    tenant: int
    a: int
    b: int

    @property
    def key(self) -> str:
        """Seed-stable identity, equal across workloads for tenant 0."""
        return f"{self.tenant}:{self.a}x{self.b}"


@dataclass
class Tenant:
    """A client: its keys stay here, the server sees only the wire forms."""

    name: str
    params: BfvParameters
    bfv: Bfv
    keys: object
    encoder: BatchEncoder
    slots: list[list[int]]
    cts: list
    wire: list[bytes]
    params_wire: bytes
    relin_wire: bytes
    galois_wire: tuple[bytes, ...] = ()

    def decrypt_slots(self, ct) -> list[int]:
        return self.encoder.decode(self.bfv.decrypt(ct, self.keys.secret))


def paper_params(quick: bool, tower_bits: int = TOWER_BITS) -> BfvParameters:
    return BfvParameters.toy_rns(
        n=QUICK_N if quick else PAPER_N, towers=TOWERS, tower_bits=tower_bits
    )


def second_tenant_params(quick: bool, fleet_size: int = 2) -> BfvParameters:
    """First of ``tower_bits`` 29, 28, 27 that routes to the other worker."""
    home = route_index(params_digest(paper_params(quick)), fleet_size)
    for bits in (29, 28, 27):
        params = paper_params(quick, bits)
        if route_index(params_digest(params), fleet_size) != home:
            return params
    raise RuntimeError("no second parameter set routes to the other worker")


def make_tenant(name: str, params: BfvParameters, seed: int, index: int,
                pool_size: int) -> Tenant:
    """Keys and a ciphertext pool, reproducible from ``(seed, index)``."""
    rng = random.Random(f"cofhee-bench/{seed}/{index}")
    bfv = Bfv(params, seed=seed * 1009 + index)
    keys = bfv.keygen(relin_digit_bits=RELIN_DIGIT_BITS)
    encoder = BatchEncoder(params)
    slots = [
        [rng.randrange(16) for _ in range(params.n)] for _ in range(pool_size)
    ]
    cts = [bfv.encrypt(encoder.encode(s), keys.public) for s in slots]
    return Tenant(
        name=name, params=params, bfv=bfv, keys=keys, encoder=encoder,
        slots=slots, cts=cts, wire=[serialize_ciphertext(c) for c in cts],
        params_wire=serialize_params(params),
        relin_wire=serialize_relin_key(keys.relin, params),
    )


def pool_size_for(jobs: int) -> int:
    """Smallest pool whose ordered pairs cover ``jobs`` distinct jobs.

    Every job of a run is a different ordered pair, so no submit can hit
    the server's result cache or dedupe against a sibling, whatever the
    cache's capacity; the pool is only as large as that needs, because
    each ciphertext costs the harness ~0.1 s to encrypt at paper ``n``.
    """
    size = 2
    while size * (size - 1) < jobs:
        size += 1
    return size


def job_order(seed: int, tenant: int, jobs: int) -> list[Job]:
    """The first ``jobs`` ordered pairs in seed-shuffled *shell* order.

    Shell ``m`` holds the pairs whose larger index is ``m``, shuffled by
    the seed; shells are concatenated. A run that needs fewer jobs uses
    a prefix of the same sequence over a smaller pool, so job ``i`` is
    the same job in every workload of one seed.
    """
    order: list[Job] = []
    shell = 1
    while len(order) < jobs:
        pairs = [Job(tenant, k, shell) for k in range(shell)]
        pairs += [Job(tenant, shell, k) for k in range(shell)]
        random.Random(f"cofhee-bench/{seed}/{tenant}/shell/{shell}").shuffle(
            pairs
        )
        order.extend(pairs)
        shell += 1
    return order[:jobs]


# ----------------------------------------------------------------------
# EvalMult + relinearization
# ----------------------------------------------------------------------


class EvalMult:
    """Raw EvalMult + relinearization on two pool ciphertexts."""

    name = "evalmult"
    #: Raw ops carry no circuit.
    circuit_wire: bytes | None = None

    def __init__(self, tenant: Tenant):
        self.tenant = tenant

    def expected(self, job: Job) -> list[int]:
        tenant, t = self.tenant, self.tenant.params.t
        return [
            x * y % t
            for x, y in zip(tenant.slots[job.a], tenant.slots[job.b])
        ]

    def reference(self, job: Job) -> bytes:
        """In-process ``Bfv`` ground truth, as the bytes a server returns."""
        tenant = self.tenant
        return serialize_ciphertext(tenant.bfv.multiply_relin(
            tenant.cts[job.a], tenant.cts[job.b], tenant.keys.relin
        ))

    def slots(self, payload: bytes) -> list[int]:
        tenant = self.tenant
        return tenant.decrypt_slots(
            deserialize_ciphertext(payload, tenant.params)
        )


# ----------------------------------------------------------------------
# dense16: one packed 16-feature dense layer (Section VI-C) as a circuit
# ----------------------------------------------------------------------


class Dense16:
    """``y = 3 * sum_{k<16} rot_k(x * w) + bias`` over packed slots.

    Building it generates the tenant's Galois keys (the four row
    rotations by 1, 2, 4, 8) and the slot permutations the plaintext
    reference needs.
    """

    name = "dense16"

    def __init__(self, tenant: Tenant, seed: int):
        rng = random.Random(f"cofhee-bench/{seed}/bias")
        self.tenant = tenant
        # The bias is drawn as plaintext *coefficients* of two bytes
        # each (the codec writes minimal-width integers), so the
        # circuit's wire size is the same for every seed.
        t = tenant.params.t
        bias_poly = tenant.encoder.ring(
            [256 + rng.randrange(t - 256) for _ in range(tenant.params.n)]
        )
        self.bias = tenant.encoder.decode(bias_poly)
        b = CircuitBuilder("dense16")
        x, w = b.input("x"), b.input("w")
        acc = b.mul_relin(x, w)
        for k in range(DENSE_ROUNDS):
            acc = b.add(acc, b.rotate_rows(acc, 2**k))
        acc = b.mul_const(acc, b.scalar(DENSE_SCALE))
        acc = b.add_const(acc, b.plain(bias_poly.coeffs))
        b.output("y", acc)
        self.circuit: Circuit = b.build()
        self.circuit_wire = serialize_circuit(self.circuit)
        self.rotor = RotationEngine(
            tenant.bfv, tenant.keys.secret, digit_bits=RELIN_DIGIT_BITS
        )
        tenant.galois_wire = tuple(
            serialize_galois_key(self.rotor.galois_key(e), tenant.params)
            for e in rotation_exponents(self.circuit, tenant.params)
        )
        self._perms = [
            slot_permutation(
                tenant.encoder, pow(3, 2**k, 2 * tenant.params.n)
            )
            for k in range(DENSE_ROUNDS)
        ]

    def expected(self, job: Job) -> list[int]:
        tenant, t = self.tenant, self.tenant.params.t
        acc = [
            x * y % t
            for x, y in zip(tenant.slots[job.a], tenant.slots[job.b])
        ]
        for perm in self._perms:
            acc = [(v + acc[perm[i]]) % t for i, v in enumerate(acc)]
        return [(DENSE_SCALE * v + c) % t for v, c in zip(acc, self.bias)]

    def reference(self, job: Job) -> bytes:
        """In-process ``evaluate_circuit`` ground truth as served bytes."""
        tenant = self.tenant
        return serialize_circuit_outputs(evaluate_circuit(
            tenant.bfv, tenant.keys.relin, self.circuit,
            [tenant.cts[job.a], tenant.cts[job.b]],
            galois=self.rotor.galois_key,
        ))

    def slots(self, payload: bytes) -> list[int]:
        outputs = deserialize_circuit_outputs(payload, self.tenant.params)
        return self.tenant.decrypt_slots(outputs["y"])
