"""App circuits: multi-step encrypted programs the service can execute.

A :class:`Circuit` is the one thing a backend executes: a small SSA
register program over ciphertexts whose description travels to the
server (the tf-encrypted "computation travels, runtime schedules" model)
and is expanded by the backends into per-op / per-tower work units. The
paper's Section VI-C applications (logistic regression, CryptoNets)
compile themselves to circuits, and a raw homomorphic op is served as
its one-step circuit (:func:`repro.service.jobs.raw_op_circuit`).

**Register model.** A circuit has named ciphertext inputs, a table of
plaintext constants, a step list, and named outputs. Registers are
append-only: input ``i`` occupies register ``i``, and step ``k`` writes
register ``num_inputs + k`` — so a step can only reference values that
already exist, the step list is its own topological order, and the
dependency edges the chip-pool scheduler needs fall out of the indices.

**Step ops** (the Section VI-C building blocks):

======================  =====================================================
``OP_ADD``              ``dst = a + b`` (ct+ct)
``OP_SUB``              ``dst = a - b`` (ct+ct)
``OP_ADD_CONST``        ``dst = a + const`` (packed plaintext)
``OP_MUL_CONST``        ``dst = a * const`` (packed plaintext or scalar)
``OP_MAC_CONST``        ``dst = acc + a * const`` (the ct*pt multiply-
                        accumulate every dense/conv layer is made of)
``OP_MUL_RELIN``        ``dst = relinearize(a * b)`` (Eq. 4 tensor + relin)
``OP_SQUARE_RELIN``     ``dst = relinearize(a^2)`` (the CryptoNets
                        activation)
``OP_ROTATE_ROWS``      ``dst = rotate_rows(a, steps)`` (Galois automorphism
                        ``x -> x^(3^steps)``; signed step immediate)
``OP_ROTATE_COLUMNS``   ``dst = rotate_columns(a)`` (row swap, ``x ->
                        x^(2n-1)``)
``OP_MUL``              ``dst = a * b`` (Eq. 4 tensor only — the result
                        stays degree 3 until an ``OP_RELINEARIZE``)
``OP_SQUARE``           ``dst = a^2`` (tensor only, degree-3 result)
``OP_RELINEARIZE``      ``dst = relinearize(a)`` (the key switch a split
                        tensor defers)
======================  =====================================================

The split tensor ops (``OP_MUL``/``OP_SQUARE``/``OP_RELINEARIZE``) let
a client write the key switch as its own step: linear combinations of
degree-2 products run on the degree-3 tensors directly and one
relinearization closes the tree. Degree bookkeeping is static (sizes
are fully determined by the step list), so :func:`validate_circuit`
proves at admission time that every tensor or rotation operand and
every output is degree 2 where the scheme requires it.

Constants come in two kinds: ``CONST_SCALAR`` (a signed integer applied
with :meth:`~repro.bfv.scheme.Bfv.multiply_scalar` — layer weights) and
``CONST_PLAIN`` (an already-encoded plaintext polynomial mod ``t`` —
SIMD-packed biases). Scalars multiply only; packed plaintexts add or
multiply.

The wire encoding lives in :mod:`repro.service.serialization`
(``serialize_circuit`` / ``deserialize_circuit``, tag ``0x07``) and is
specified byte-for-byte in ``docs/wire-protocol.md``. Circuits that use
only the original seven ops still encode (and content-address) as
version 1; any of the five new ops switches the body to version 2, and
a packed plaintext constant to version 3 — see :func:`wire_version`.
Secret keys still never appear: a circuit references the session's
*evaluation* keys only (relinearization keys for the tensor ops, Galois
keys for the rotation steps).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bfv.keys import GaloisKey
from repro.bfv.params import BfvParameters
from repro.bfv.rotation import apply_galois_with_key
from repro.bfv.scheme import Bfv, Ciphertext
from repro.polymath.poly import Polynomial, PolynomialRing
from repro.service.telemetry import JobTrace

#: Version byte of the circuit *body* encoding (independent of the outer
#: wire envelope version): decoders reject unknown values, so the format
#: can evolve without repurposing byte layouts. Version 2 added the
#: rotation and split tensor ops; version 3 carries every op and sends a
#: plain constant as declared-width packed words (wire constant kind 2)
#: instead of one length-prefixed integer per coefficient (kind 1, which
#: only versions 1 and 2 carry). Encoders emit the lowest version whose
#: op set and constant kinds cover a circuit (see :func:`wire_version`),
#: so circuits without a plain constant keep their version-1 or
#: version-2 bytes and content addresses.
CIRCUIT_VERSION = 3

OP_ADD = 0x01
OP_SUB = 0x02
OP_ADD_CONST = 0x03
OP_MUL_CONST = 0x04
OP_MAC_CONST = 0x05
OP_MUL_RELIN = 0x06
OP_SQUARE_RELIN = 0x07
OP_ROTATE_ROWS = 0x08
OP_ROTATE_COLUMNS = 0x09
OP_MUL = 0x0A
OP_SQUARE = 0x0B
OP_RELINEARIZE = 0x0C

#: op -> (human name, argument layout). ``r`` = register index,
#: ``c`` = constant-table index, ``s`` = signed 16-bit immediate
#: (rotation step count; two's complement on the wire). Arity and
#: argument meaning are fixed per op; decoders reject anything else.
OP_SPECS: dict[int, tuple[str, str]] = {
    OP_ADD: ("add", "rr"),
    OP_SUB: ("sub", "rr"),
    OP_ADD_CONST: ("add_const", "rc"),
    OP_MUL_CONST: ("mul_const", "rc"),
    OP_MAC_CONST: ("mac_const", "rrc"),
    OP_MUL_RELIN: ("mul_relin", "rr"),
    OP_SQUARE_RELIN: ("square_relin", "r"),
    OP_ROTATE_ROWS: ("rotate_rows", "rs"),
    OP_ROTATE_COLUMNS: ("rotate_columns", "r"),
    OP_MUL: ("mul", "rr"),
    OP_SQUARE: ("square", "r"),
    OP_RELINEARIZE: ("relinearize", "r"),
}

#: Ops a version-1 body may carry; anything else forces version 2.
V1_OPS = frozenset({
    OP_ADD, OP_SUB, OP_ADD_CONST, OP_MUL_CONST, OP_MAC_CONST,
    OP_MUL_RELIN, OP_SQUARE_RELIN,
})

#: Ops that run the Eq. 4 tensor (and expand into tower work units).
TENSOR_OPS = frozenset({OP_MUL_RELIN, OP_SQUARE_RELIN, OP_MUL, OP_SQUARE})

#: Ops that run a relinearization key switch (need the session relin key).
RELIN_OPS = frozenset({OP_MUL_RELIN, OP_SQUARE_RELIN, OP_RELINEARIZE})

#: Ops that apply a Galois automorphism (need session Galois keys).
ROTATION_OPS = frozenset({OP_ROTATE_ROWS, OP_ROTATE_COLUMNS})

CONST_SCALAR = 0
CONST_PLAIN = 1

#: Wire scalars are signed 64-bit; plenty for layer weights, and small
#: enough that every implementation agrees on the encoding.
_SCALAR_LIMIT = 2**63

#: Rotation step immediates are signed 16-bit (two's complement u16 on
#: the wire) — any slot amount for every supported ring dimension.
_STEP_LIMIT = 2**15

#: A plain constant holds one coefficient per slot of the ring, and the
#: largest supported ring dimension is ``2 * _STEP_LIMIT``. Decoders
#: refuse a longer constant before they read its coefficients.
MAX_PLAIN_COEFFS = 2 * _STEP_LIMIT


class CircuitError(ValueError):
    """A structurally invalid circuit (bad ops, indices, or names)."""


@dataclass(frozen=True)
class CircuitConst:
    """One entry of a circuit's plaintext constant table.

    ``kind == CONST_SCALAR`` carries a signed integer in ``scalar``;
    ``kind == CONST_PLAIN`` carries the coefficients of an
    already-encoded plaintext polynomial mod ``t`` in ``coeffs``.
    """

    kind: int
    scalar: int = 0
    coeffs: tuple[int, ...] = ()


@dataclass(frozen=True)
class CircuitStep:
    """One SSA step: ``op`` applied to ``args``, writing the next register.

    ``args`` follows the op's layout in :data:`OP_SPECS` — register
    indices for ``r`` positions, constant-table indices for ``c``, and
    signed immediates for ``s``.
    """

    op: int
    args: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """A validated encrypted program (see the module docstring).

    Instances are immutable and deterministic to serialize, so a
    circuit's wire bytes double as its content address for the server's
    result cache and in-queue dedupe.
    """

    name: str
    inputs: tuple[str, ...]
    consts: tuple[CircuitConst, ...]
    steps: tuple[CircuitStep, ...]
    outputs: tuple[tuple[str, int], ...]  # (name, register)

    def __post_init__(self):
        validate_circuit(self)

    @property
    def num_registers(self) -> int:
        return len(self.inputs) + len(self.steps)

    @property
    def uses_relin(self) -> bool:
        """Whether execution needs the session's relinearization key."""
        return any(step.op in RELIN_OPS for step in self.steps)

    @property
    def uses_rotations(self) -> bool:
        """Whether execution needs session Galois keys."""
        return any(step.op in ROTATION_OPS for step in self.steps)

    @property
    def tensor_steps(self) -> tuple[int, ...]:
        """Indices of the steps that run the Eq. 4 tensor."""
        return tuple(
            i for i, step in enumerate(self.steps) if step.op in TENSOR_OPS
        )

    def op_counts(self) -> dict[str, int]:
        """The Section VI-C op mix of one execution (for the cost models).

        ``ct_ct_mults`` counts Eq. 4 tensor executions; ``relins`` and
        ``rotations`` count the key-switch tails separately, because the
        split ops decouple them from the tensors.
        """
        counts = {
            "ct_ct_adds": 0, "ct_pt_mults": 0, "ct_ct_mults": 0,
            "relins": 0, "rotations": 0,
        }
        for step in self.steps:
            if step.op in (OP_ADD, OP_SUB, OP_ADD_CONST):
                counts["ct_ct_adds"] += 1
            elif step.op == OP_MUL_CONST:
                counts["ct_pt_mults"] += 1
            elif step.op == OP_MAC_CONST:
                counts["ct_pt_mults"] += 1
                counts["ct_ct_adds"] += 1
            elif step.op in ROTATION_OPS:
                counts["rotations"] += 1
            elif step.op == OP_RELINEARIZE:
                counts["relins"] += 1
            else:  # tensor ops
                counts["ct_ct_mults"] += 1
                if step.op in RELIN_OPS:
                    counts["relins"] += 1
        return counts


def rotation_exponent(params: BfvParameters, op: int, steps: int = 0) -> int:
    """The Galois element a rotation step key-switches under.

    Row rotation by ``k`` slots applies ``x -> x^(3^k mod 2n)`` (negative
    ``k`` wraps mod ``n/2``); the column swap applies ``x -> x^(2n-1)``.
    Raises :class:`CircuitError` for a row rotation that is a no-op at
    this ring dimension (``steps % (n/2) == 0``) — a no-op needs no key
    and should not be in the program.
    """
    if op == OP_ROTATE_COLUMNS:
        return 2 * params.n - 1
    half = params.n // 2
    amount = steps % half
    if amount == 0:
        raise CircuitError(
            f"rotate_rows by {steps} is a no-op at n = {params.n} "
            f"(step count must be nonzero mod {half})"
        )
    return pow(3, amount, 2 * params.n)


def rotation_exponents(circuit: Circuit, params: BfvParameters) -> tuple[int, ...]:
    """Sorted distinct Galois exponents the circuit's rotations need."""
    exps: set[int] = set()
    for step in circuit.steps:
        if step.op == OP_ROTATE_ROWS:
            exps.add(rotation_exponent(params, step.op, step.args[1]))
        elif step.op == OP_ROTATE_COLUMNS:
            exps.add(rotation_exponent(params, step.op))
    return tuple(sorted(exps))


def wire_version(circuit: Circuit) -> int:
    """The lowest circuit-body version whose op set and constant kinds
    cover this circuit.

    A plain constant needs version 3 (its packed kind-2 form), whatever
    the ops. Otherwise version 1 carries the original seven ops and
    version 2 the rest. Emitting the lowest sufficient version keeps the
    wire bytes of circuits without a plain constant — and therefore
    their content addresses, cache keys, and dedupe identities — stable
    across the version-2 and version-3 format bumps.
    """
    if any(const.kind == CONST_PLAIN for const in circuit.consts):
        return 3
    if all(step.op in V1_OPS for step in circuit.steps):
        return 1
    return 2


def validate_circuit(circuit: Circuit) -> None:
    """Raise :class:`CircuitError` unless the circuit is well-formed.

    Checks: non-empty unique input/output names, known op codes, correct
    argument counts, every register reference pointing at an
    already-defined register, every constant reference inside the table,
    add-of-scalar rejected (scalars multiply only), rotation step
    immediates signed-16-bit and nonzero, static ciphertext degrees
    (tensor and rotation operands and outputs must be size 2 — a split
    tensor must relinearize before those), and at least one step and
    one output.
    """
    if not circuit.name:
        raise CircuitError("circuit needs a name")
    if not circuit.inputs:
        raise CircuitError("circuit needs at least one ciphertext input")
    if len(set(circuit.inputs)) != len(circuit.inputs):
        raise CircuitError(f"duplicate input names in {circuit.inputs}")
    if any(not name for name in circuit.inputs):
        raise CircuitError("input names must be non-empty")
    if not circuit.steps:
        raise CircuitError("circuit needs at least one step")
    if not circuit.outputs:
        raise CircuitError("circuit needs at least one named output")
    # Wire representability: every table index travels as a u16.
    if circuit.num_registers > 0xFFFF:
        raise CircuitError(
            f"circuit has {circuit.num_registers} registers; the wire "
            "encoding carries at most 65535"
        )
    if len(circuit.consts) > 0xFFFF:
        raise CircuitError(
            f"circuit has {len(circuit.consts)} constants; the wire "
            "encoding carries at most 65535"
        )
    if len(circuit.outputs) > 0xFFFF:
        raise CircuitError(
            f"circuit has {len(circuit.outputs)} outputs; the wire "
            "encoding carries at most 65535"
        )
    for const in circuit.consts:
        if const.kind == CONST_SCALAR:
            if not -_SCALAR_LIMIT <= const.scalar < _SCALAR_LIMIT:
                raise CircuitError(
                    f"scalar constant {const.scalar} exceeds 64 signed bits"
                )
        elif const.kind == CONST_PLAIN:
            if not const.coeffs:
                raise CircuitError("packed plaintext constant is empty")
            if len(const.coeffs) > MAX_PLAIN_COEFFS:
                raise CircuitError(
                    f"packed plaintext constant has {len(const.coeffs)} "
                    f"coefficients; at most {MAX_PLAIN_COEFFS} are supported"
                )
            if min(const.coeffs) < 0:
                raise CircuitError("packed plaintext coefficients are mod t")
        else:
            raise CircuitError(f"unknown constant kind {const.kind}")
    defined = len(circuit.inputs)
    degrees = [2] * defined
    for i, step in enumerate(circuit.steps):
        spec = OP_SPECS.get(step.op)
        if spec is None:
            raise CircuitError(f"step {i}: unknown op code 0x{step.op:02x}")
        name, layout = spec
        if len(step.args) != len(layout):
            raise CircuitError(
                f"step {i} ({name}): takes {len(layout)} args, "
                f"got {len(step.args)}"
            )
        reg_degrees = []
        for arg, role in zip(step.args, layout):
            if role == "r":
                if not 0 <= arg < defined:
                    raise CircuitError(
                        f"step {i} ({name}): register {arg} is not defined "
                        f"yet ({defined} registers exist)"
                    )
                reg_degrees.append(degrees[arg])
            elif role == "s":
                if not -_STEP_LIMIT <= arg < _STEP_LIMIT:
                    raise CircuitError(
                        f"step {i} ({name}): step count {arg} exceeds 16 "
                        "signed bits"
                    )
                if arg == 0:
                    raise CircuitError(
                        f"step {i} ({name}): rotation by 0 steps is a no-op"
                    )
            else:
                if not 0 <= arg < len(circuit.consts):
                    raise CircuitError(
                        f"step {i} ({name}): constant {arg} is outside the "
                        f"table of {len(circuit.consts)}"
                    )
                const = circuit.consts[arg]
                if step.op == OP_ADD_CONST and const.kind != CONST_PLAIN:
                    raise CircuitError(
                        f"step {i}: add_const needs a packed plaintext "
                        "constant (scalars multiply only)"
                    )
        # Static degree discipline: the scheme's multiply/square and the
        # Galois automorphism key switch only accept 2-component inputs.
        if step.op in TENSOR_OPS and any(d != 2 for d in reg_degrees):
            raise CircuitError(
                f"step {i} ({name}): tensor operands must be degree-2 "
                "ciphertexts (relinearize deferred products first)"
            )
        if step.op in ROTATION_OPS and reg_degrees[0] != 2:
            raise CircuitError(
                f"step {i} ({name}): rotation operands must be degree-2 "
                "ciphertexts (relinearize deferred products first)"
            )
        if step.op in (OP_MUL, OP_SQUARE):
            degrees.append(3)
        elif step.op in RELIN_OPS:  # fused or deferred key switch
            degrees.append(2)
        else:
            degrees.append(max(reg_degrees))
        defined += 1
    seen_out: set[str] = set()
    for name, reg in circuit.outputs:
        if not name:
            raise CircuitError("output names must be non-empty")
        if name in seen_out:
            raise CircuitError(f"duplicate output name {name!r}")
        seen_out.add(name)
        if not 0 <= reg < circuit.num_registers:
            raise CircuitError(
                f"output {name!r} references register {reg}, but only "
                f"{circuit.num_registers} exist"
            )
        if degrees[reg] != 2:
            raise CircuitError(
                f"output {name!r} is a degree-{degrees[reg]} ciphertext; "
                "relinearize deferred products before the output"
            )


# ----------------------------------------------------------------------
# Builder (what the apps compile themselves with)
# ----------------------------------------------------------------------


class CircuitBuilder:
    """Incremental circuit construction with constant deduplication.

    Register handles are plain ints, so building reads like the
    straight-line program it encodes::

        b = CircuitBuilder("affine")
        x = b.input("x")
        y = b.add_const(b.mul_const(x, b.scalar(3)), b.plain([1, 0, 0, 0]))
        b.output("y", y)
        circuit = b.build()
    """

    def __init__(self, name: str):
        self.name = name
        self._inputs: list[str] = []
        self._consts: list[CircuitConst] = []
        self._const_index: dict[tuple, int] = {}
        self._steps: list[CircuitStep] = []
        self._outputs: list[tuple[str, int]] = []

    # -- declarations ---------------------------------------------------

    def input(self, name: str) -> int:
        """Declare a named ciphertext input; returns its register."""
        if self._steps:
            raise CircuitError("declare every input before the first step")
        self._inputs.append(name)
        return len(self._inputs) - 1

    def scalar(self, value: int) -> int:
        """Intern a scalar constant; returns its table index."""
        key = (CONST_SCALAR, value)
        if key not in self._const_index:
            self._const_index[key] = len(self._consts)
            self._consts.append(CircuitConst(kind=CONST_SCALAR, scalar=value))
        return self._const_index[key]

    def plain(self, coeffs: Sequence[int]) -> int:
        """Intern a packed plaintext constant; returns its table index."""
        key = (CONST_PLAIN, tuple(coeffs))
        if key not in self._const_index:
            self._const_index[key] = len(self._consts)
            self._consts.append(
                CircuitConst(kind=CONST_PLAIN, coeffs=tuple(coeffs))
            )
        return self._const_index[key]

    # -- steps ----------------------------------------------------------

    def _step(self, op: int, *args: int) -> int:
        self._steps.append(CircuitStep(op=op, args=tuple(args)))
        return len(self._inputs) + len(self._steps) - 1

    def add(self, a: int, b: int) -> int:
        return self._step(OP_ADD, a, b)

    def sub(self, a: int, b: int) -> int:
        return self._step(OP_SUB, a, b)

    def add_const(self, a: int, const: int) -> int:
        return self._step(OP_ADD_CONST, a, const)

    def mul_const(self, a: int, const: int) -> int:
        return self._step(OP_MUL_CONST, a, const)

    def mac_const(self, acc: int, a: int, const: int) -> int:
        return self._step(OP_MAC_CONST, acc, a, const)

    def mul_relin(self, a: int, b: int) -> int:
        return self._step(OP_MUL_RELIN, a, b)

    def square_relin(self, a: int) -> int:
        return self._step(OP_SQUARE_RELIN, a)

    def rotate_rows(self, a: int, steps: int) -> int:
        """Rotate the packed rows by ``steps`` slots (signed; nonzero)."""
        return self._step(OP_ROTATE_ROWS, a, steps)

    def rotate_columns(self, a: int) -> int:
        """Swap the two packed rows."""
        return self._step(OP_ROTATE_COLUMNS, a)

    def mul(self, a: int, b: int) -> int:
        """Eq. 4 tensor without relinearization (degree-3 result)."""
        return self._step(OP_MUL, a, b)

    def square(self, a: int) -> int:
        """Tensor square without relinearization (degree-3 result)."""
        return self._step(OP_SQUARE, a)

    def relinearize(self, a: int) -> int:
        """Deferred key switch: degree 3 back to degree 2."""
        return self._step(OP_RELINEARIZE, a)

    def output(self, name: str, reg: int) -> None:
        self._outputs.append((name, reg))

    def build(self) -> Circuit:
        """Freeze into a validated :class:`Circuit`."""
        return Circuit(
            name=self.name,
            inputs=tuple(self._inputs),
            consts=tuple(self._consts),
            steps=tuple(self._steps),
            outputs=tuple(self._outputs),
        )


# ----------------------------------------------------------------------
# Evaluation (shared by every backend; bit-identical by construction)
# ----------------------------------------------------------------------

#: Plaintext-ring cache: constants decode once per (n, t), not per job.
@functools.lru_cache(maxsize=64)
def _plain_ring(n: int, t: int) -> PolynomialRing:
    """A plaintext ring per client-chosen ``(n, t)``, LRU-bounded."""
    return PolynomialRing(n, t, allow_non_ntt=True)


def _decode_const(const: CircuitConst, params: BfvParameters) -> Polynomial | int:
    if const.kind == CONST_SCALAR:
        return const.scalar
    if len(const.coeffs) != params.n:
        raise CircuitError(
            f"packed plaintext constant has {len(const.coeffs)} coefficients "
            f"for n = {params.n}"
        )
    # One C-level pass; validate_circuit has already rejected negatives.
    # The scheme lifts the canonical tuple with numpy (Bfv._lift_plaintext).
    if max(const.coeffs) >= params.t:
        raise CircuitError("plaintext constant coefficient exceeds t")
    return Polynomial.from_canonical(_plain_ring(params.n, params.t), const.coeffs)

#: Chip-backend hook: called as ``on_tensor(step_index, a, b, rows)`` after
#: each tensor step, with its two 2-component operand ciphertexts and
#: ``rows``, the scheme's head rows ``(operands, outputs)`` of the tensor
#: (see :meth:`~repro.bfv.scheme.Bfv.multiply`'s ``on_rows``), or ``None``
#: when the scheme had none to share.
TensorHook = Callable[[int, Ciphertext, Ciphertext, "tuple | None"], None]

#: Galois-key resolver: maps a rotation step's Galois exponent to the
#: session's uploaded key (``Session.require_galois`` has this shape).
GaloisResolver = Callable[[int], GaloisKey]


def evaluate_circuit(
    engine: Bfv,
    relin_key,
    circuit: Circuit,
    inputs: Sequence[Ciphertext],
    on_tensor: TensorHook | None = None,
    galois: GaloisResolver | None = None,
    trace: JobTrace | None = None,
) -> dict[str, Ciphertext]:
    """Execute a circuit exactly; returns its named outputs.

    This is the *functional* semantics every backend shares, and what the
    apps' in-process ``infer`` / ``predict`` run, so a served app returns
    bit-identical ciphertexts to local execution. The chip-pool backend
    passes ``on_tensor`` to collect each Eq. 4 tensor's operands and the
    scheme's head rows for tower-sharded chip replay.

    Args:
        engine: the session's evaluation engine.
        relin_key: the session's relinearization key (required only when
            the circuit contains relinearizing steps).
        circuit: the validated program.
        inputs: ciphertexts bound to ``circuit.inputs``, positionally.
        on_tensor: optional per-tensor hook (chip replay), see
            :data:`TensorHook`.
        galois: resolver from Galois exponent to the session's uploaded
            :class:`~repro.bfv.rotation.GaloisKey` (required only when
            the circuit contains rotation steps).
        trace: the job's :class:`~repro.service.telemetry.JobTrace`
            (a fresh one when ``None``). Every relinearization and Galois
            key switch is recorded as a top-level ``keyswitch`` span, the
            work around them as ``execute`` spans.
    """
    if len(inputs) != len(circuit.inputs):
        raise CircuitError(
            f"circuit {circuit.name!r} takes {len(circuit.inputs)} inputs "
            f"({', '.join(circuit.inputs)}), got {len(inputs)}"
        )
    if trace is None:
        trace = JobTrace()
    # Start of the open ``execute`` interval, and whether any work ran
    # in it since the last key switch (the first interval always counts:
    # it covers constant decoding).
    opened = time.perf_counter()
    working = True

    def key_switch(switch, *args) -> Ciphertext:
        nonlocal opened, working
        start = time.perf_counter()
        if working:
            trace.mark("execute", opened, start)
        value = switch(*args)
        opened = time.perf_counter()
        working = False
        trace.mark("keyswitch", start, opened)
        return value

    params = engine.params
    consts = [_decode_const(c, params) for c in circuit.consts]
    regs: list[Ciphertext] = list(inputs)
    for i, step in enumerate(circuit.steps):
        working = True
        if step.op == OP_ADD:
            value = engine.add(regs[step.args[0]], regs[step.args[1]])
        elif step.op == OP_SUB:
            value = engine.sub(regs[step.args[0]], regs[step.args[1]])
        elif step.op == OP_ADD_CONST:
            value = engine.add_plain(regs[step.args[0]], consts[step.args[1]])
        elif step.op == OP_MUL_CONST:
            value = _mul_const(engine, regs[step.args[0]], consts[step.args[1]])
        elif step.op == OP_MAC_CONST:
            term = _mul_const(engine, regs[step.args[1]], consts[step.args[2]])
            value = engine.add(regs[step.args[0]], term)
        elif step.op in TENSOR_OPS:
            a = regs[step.args[0]]
            square = step.op in (OP_SQUARE_RELIN, OP_SQUARE)
            b = a if square else regs[step.args[1]]
            shared: list[tuple] = []
            on_rows = None if on_tensor is None else (
                lambda *rows: shared.append(rows)
            )
            value = (
                engine.square(a, on_rows) if square
                else engine.multiply(a, b, on_rows)
            )
            if on_tensor is not None:
                on_tensor(i, a, b, shared[0] if shared else None)
            if step.op in RELIN_OPS:
                value = key_switch(engine.relinearize, value, relin_key)
        elif step.op == OP_RELINEARIZE:
            value = key_switch(
                engine.relinearize, regs[step.args[0]], relin_key
            )
        elif step.op in ROTATION_OPS:
            a = regs[step.args[0]]
            steps_imm = step.args[1] if step.op == OP_ROTATE_ROWS else 0
            exponent = rotation_exponent(params, step.op, steps_imm)
            if galois is None:
                raise CircuitError(
                    f"circuit {circuit.name!r} contains rotation steps but "
                    "no Galois key resolver was provided"
                )
            value = key_switch(
                apply_galois_with_key, engine, a, galois(exponent)
            )
        else:  # pragma: no cover — validate_circuit rejects unknown ops
            raise CircuitError(f"unknown op code 0x{step.op:02x}")
        regs.append(value)
    if working:
        trace.mark("execute", opened, time.perf_counter())
    return {name: regs[reg] for name, reg in circuit.outputs}


def _mul_const(engine: Bfv, ct: Ciphertext, const: Polynomial | int) -> Ciphertext:
    if isinstance(const, int):
        return engine.multiply_scalar(ct, const)
    return engine.multiply_plain(ct, const)
