"""App circuits: multi-step encrypted programs the service can execute.

Until this module, the wire could only carry *single* homomorphic ops —
the paper's Section VI-C applications (logistic regression, CryptoNets)
ran in-process only, because their hundreds of chained operations had no
encoding. A :class:`Circuit` is that encoding's in-memory form: a small
SSA register program over ciphertexts whose description travels to the
server (the tf-encrypted "computation travels, runtime schedules" model)
and is expanded by the backends into the existing per-op / per-tower
work units.

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
``OP_RELINEARIZE``      ``dst = relinearize(a)`` (the deferred key-switch;
                        consecutive runs batch through
                        :meth:`~repro.bfv.scheme.Bfv.relinearize_many`)
======================  =====================================================

The split tensor ops (``OP_MUL``/``OP_SQUARE``/``OP_RELINEARIZE``) are
what the server-side optimizer (:mod:`repro.service.optimizer`) lowers
``OP_MUL_RELIN`` into when lazy relinearization is enabled: linear
combinations of degree-2 products run on the degree-3 tensors directly
and a single deferred relinearization closes the tree. Degree bookkeeping
is static (sizes are fully determined by the step list), so
:func:`validate_circuit` proves at admission time that every tensor or
rotation operand and every output is degree 2 where the scheme requires
it.

Constants come in two kinds: ``CONST_SCALAR`` (a signed integer applied
with :meth:`~repro.bfv.scheme.Bfv.multiply_scalar` — layer weights) and
``CONST_PLAIN`` (an already-encoded plaintext polynomial mod ``t`` —
SIMD-packed biases). Scalars multiply only; packed plaintexts add or
multiply.

The wire encoding lives in :mod:`repro.service.serialization`
(``serialize_circuit`` / ``deserialize_circuit``, tag ``0x07``) and is
specified byte-for-byte in ``docs/wire-protocol.md``. Circuits that use
only the original seven ops still encode (and content-address) as
version 1; any of the five new ops switches the body to version 2 —
see :func:`wire_version`. Secret keys still never appear: a circuit
references the session's *evaluation* keys only (relinearization keys
for the tensor ops, Galois keys for the rotation steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bfv.keys import GaloisKey
from repro.bfv.params import BfvParameters
from repro.bfv.rotation import apply_galois_with_key
from repro.bfv.scheme import Bfv, Ciphertext
from repro.polymath.poly import Polynomial, PolynomialRing

#: Version byte of the circuit *body* encoding (independent of the outer
#: wire envelope version): decoders reject unknown values, so the format
#: can evolve without repurposing byte layouts. Version 2 added the
#: rotation and split tensor ops; encoders emit the lowest version that
#: can carry a circuit (see :func:`wire_version`), so pre-rotation
#: circuits keep their version-1 bytes and content addresses.
CIRCUIT_VERSION = 2

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
        optimizer's lazy relinearization decouples them from the tensors.
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

    def tensor_levels(self) -> dict[int, int]:
        """Dependency depth of every tensor step (step index -> level).

        A tensor step's level is the longest chain of *tensor* steps its
        inputs transitively pass through: level-0 tensors depend only on
        inputs and linear steps, level-1 tensors consume at least one
        level-0 tensor's output, and so on. Rotations and deferred
        relinearizations pass depth through unchanged — they key-switch
        but never tensor.

        One memoized computation (it used to be recomputed independently
        per path); the chip pool's list scheduler honors the finer
        producer edges behind these levels, so a tensor is never planned
        before the tensors its operands were produced by.
        """
        cached = getattr(self, "_tensor_levels", None)
        if cached is None:
            depth = [0] * self.num_registers  # tensor depth of each register
            levels: dict[int, int] = {}
            base = len(self.inputs)
            for i, step in enumerate(self.steps):
                layout = OP_SPECS[step.op][1]
                reg_args = [a for a, c in zip(step.args, layout) if c == "r"]
                d_in = max((depth[a] for a in reg_args), default=0)
                if step.op in TENSOR_OPS:
                    levels[i] = d_in
                    depth[base + i] = d_in + 1
                else:
                    depth[base + i] = d_in
            cached = levels
            object.__setattr__(self, "_tensor_levels", cached)
        return dict(cached)


def register_degrees(circuit: Circuit) -> list[int]:
    """Static ciphertext size (component count) of every register.

    Inputs are fresh encryptions (size 2); tensor steps produce size 3;
    relinearization returns to size 2; linear ops take the componentwise
    maximum of their operands (``Bfv.add``/``sub`` pad); plaintext ops
    and rotations preserve size. Sizes are fully determined by the step
    list, so the scheme's operand requirements are checkable statically.
    """
    degrees = [2] * len(circuit.inputs)
    for step in circuit.steps:
        if step.op in (OP_MUL, OP_SQUARE):
            degrees.append(3)
        elif step.op in RELIN_OPS:  # fused or deferred key switch
            degrees.append(2)
        elif step.op in (OP_ADD, OP_SUB):
            degrees.append(max(degrees[step.args[0]], degrees[step.args[1]]))
        elif step.op == OP_MAC_CONST:
            degrees.append(degrees[step.args[0]])
        else:  # add_const / mul_const / rotations preserve size
            degrees.append(degrees[step.args[0]])
    return degrees


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
    """The lowest circuit-body version that can encode this circuit.

    Emitting the lowest sufficient version keeps pre-rotation circuits'
    wire bytes — and therefore their content addresses, cache keys, and
    dedupe identities — stable across the version-2 format bump.
    """
    if all(step.op in V1_OPS for step in circuit.steps):
        return 1
    return CIRCUIT_VERSION


def validate_circuit(circuit: Circuit) -> None:
    """Raise :class:`CircuitError` unless the circuit is well-formed.

    Checks: non-empty unique input/output names, known op codes, correct
    argument counts, every register reference pointing at an
    already-defined register, every constant reference inside the table,
    add-of-scalar rejected (scalars multiply only), rotation step
    immediates signed-16-bit and nonzero, static ciphertext degrees
    (tensor and rotation operands and outputs must be size 2 — a lazy
    circuit must relinearize before those), and at least one step and
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
            if any(c < 0 for c in const.coeffs):
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
_PLAIN_RINGS: dict[tuple[int, int], PolynomialRing] = {}


def _plain_ring(params: BfvParameters) -> PolynomialRing:
    key = (params.n, params.t)
    if key not in _PLAIN_RINGS:
        _PLAIN_RINGS[key] = PolynomialRing(
            params.n, params.t, allow_non_ntt=True
        )
    return _PLAIN_RINGS[key]


def _decode_const(const: CircuitConst, params: BfvParameters) -> Polynomial | int:
    if const.kind == CONST_SCALAR:
        return const.scalar
    if len(const.coeffs) != params.n:
        raise CircuitError(
            f"packed plaintext constant has {len(const.coeffs)} coefficients "
            f"for n = {params.n}"
        )
    if any(c >= params.t for c in const.coeffs):
        raise CircuitError("plaintext constant coefficient exceeds t")
    return _plain_ring(params)([int(c) for c in const.coeffs])

#: Chip-backend hook: called as ``on_tensor(step_index, a, b)`` with the
#: two 2-component operand ciphertexts just before each tensor step.
TensorHook = Callable[[int, Ciphertext, Ciphertext], None]

#: Galois-key resolver: maps a rotation step's Galois exponent to the
#: session's uploaded key (``Session.require_galois`` has this shape).
GaloisResolver = Callable[[int], GaloisKey]


def _relin_runs(circuit: Circuit) -> dict[int, tuple[int, ...]]:
    """Maximal batchable runs of consecutive ``OP_RELINEARIZE`` steps.

    Maps a run's first step index to every step index in the run. A run
    breaks if a member consumes a register produced *inside* the run
    (relin-of-relin chains must stay sequential). Runs fold through one
    :meth:`~repro.bfv.scheme.Bfv.relinearize_many` call — bit-identical
    to per-step relinearization, but one shared digit-decomposition pass.
    """
    runs: dict[int, tuple[int, ...]] = {}
    base = len(circuit.inputs)
    i = 0
    while i < len(circuit.steps):
        if circuit.steps[i].op != OP_RELINEARIZE:
            i += 1
            continue
        start = i
        members = [i]
        i += 1
        while (
            i < len(circuit.steps)
            and circuit.steps[i].op == OP_RELINEARIZE
            and circuit.steps[i].args[0] < base + start
        ):
            members.append(i)
            i += 1
        if len(members) > 1:
            runs[start] = tuple(members)
    return runs


def evaluate_circuit(
    engine: Bfv,
    relin_key,
    circuit: Circuit,
    inputs: Sequence[Ciphertext],
    on_tensor: TensorHook | None = None,
    galois: GaloisResolver | None = None,
) -> dict[str, Ciphertext]:
    """Execute a circuit exactly; returns its named outputs.

    This is the *functional* semantics every backend shares — the same
    :class:`~repro.bfv.scheme.Bfv` calls the apps make in-process, in the
    same order, so a compiled app returns bit-identical ciphertexts to
    its direct execution. The chip-pool backend passes ``on_tensor`` to
    collect each Eq. 4 tensor's operands for tower-sharded chip replay.

    Args:
        engine: the session's evaluation engine.
        relin_key: the session's relinearization key (required only when
            the circuit contains relinearizing steps).
        circuit: the validated program.
        inputs: ciphertexts bound to ``circuit.inputs``, positionally.
        on_tensor: optional per-tensor operand hook (chip replay).
        galois: resolver from Galois exponent to the session's uploaded
            :class:`~repro.bfv.rotation.GaloisKey` (required only when
            the circuit contains rotation steps).
    """
    if len(inputs) != len(circuit.inputs):
        raise CircuitError(
            f"circuit {circuit.name!r} takes {len(circuit.inputs)} inputs "
            f"({', '.join(circuit.inputs)}), got {len(inputs)}"
        )
    params = engine.params
    consts = [_decode_const(c, params) for c in circuit.consts]
    relin_runs = _relin_runs(circuit)
    batched: dict[int, Ciphertext] = {}
    regs: list[Ciphertext] = list(inputs)
    for i, step in enumerate(circuit.steps):
        if i in batched:
            regs.append(batched.pop(i))
            continue
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
        elif step.op == OP_MUL_RELIN:
            a, b = regs[step.args[0]], regs[step.args[1]]
            if on_tensor is not None:
                on_tensor(i, a, b)
            value = engine.relinearize(engine.multiply(a, b), relin_key)
        elif step.op == OP_SQUARE_RELIN:
            a = regs[step.args[0]]
            if on_tensor is not None:
                on_tensor(i, a, a)
            value = engine.relinearize(engine.square(a), relin_key)
        elif step.op == OP_MUL:
            a, b = regs[step.args[0]], regs[step.args[1]]
            if on_tensor is not None:
                on_tensor(i, a, b)
            value = engine.multiply(a, b)
        elif step.op == OP_SQUARE:
            a = regs[step.args[0]]
            if on_tensor is not None:
                on_tensor(i, a, a)
            value = engine.square(a)
        elif step.op == OP_RELINEARIZE:
            run = relin_runs.get(i)
            if run is not None:
                folded = engine.relinearize_many(
                    [regs[circuit.steps[j].args[0]] for j in run], relin_key
                )
                for j, ct in zip(run, folded):
                    batched[j] = ct
                value = batched.pop(i)
            else:
                value = engine.relinearize(regs[step.args[0]], relin_key)
        elif step.op in ROTATION_OPS:
            a = regs[step.args[0]]
            steps_imm = step.args[1] if step.op == OP_ROTATE_ROWS else 0
            exponent = rotation_exponent(params, step.op, steps_imm)
            if galois is None:
                raise CircuitError(
                    f"circuit {circuit.name!r} contains rotation steps but "
                    "no Galois key resolver was provided"
                )
            value = apply_galois_with_key(engine, a, galois(exponent))
        else:  # pragma: no cover — validate_circuit rejects unknown ops
            raise CircuitError(f"unknown op code 0x{step.op:02x}")
        regs.append(value)
    return {name: regs[reg] for name, reg in circuit.outputs}


def _mul_const(engine: Bfv, ct: Ciphertext, const: Polynomial | int) -> Ciphertext:
    if isinstance(const, int):
        return engine.multiply_scalar(ct, const)
    return engine.multiply_plain(ct, const)
