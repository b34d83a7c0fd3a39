"""Offline circuit optimizer: semantics-preserving SSA rewrites.

The server runs every circuit as submitted; nothing under ``src/``
calls this module. It remains as an offline pass (the tf-encrypted
compiler RFC's "HE programs are a compiled dialect" shape, scaled to
our op set) that a client or a benchmark may run before submitting:

``constant_fold``
    Plaintext algebra the ciphertext ring makes *byte-exact*: multiply
    by scalar 1 elided, scalar-multiply chains collapsed, multiply
    by 0 recognized as a known-zero ciphertext and folded out of
    adds/subs/MACs, MAC by scalar 0 elided, and relinearization of an
    already degree-2 value elided (the scheme passes size-2 through as
    a copy).

``cse``
    Common-subexpression elimination by value numbering: two steps with
    the same op and the same (resolved) operands produce byte-identical
    ciphertexts, because evaluation is deterministic — so the second
    computation is replaced by the first's register. Commutative ops
    (``add``, ``mul``, ``mul_relin``) canonicalize operand order;
    constants key by value, not table index.

``dce``
    Dead-register elimination: a backward liveness walk from the named
    outputs drops every step whose result is never consumed (including
    steps orphaned by the passes above).

Every pass is byte-exact: the optimized circuit's outputs are
*bit-identical* to the submitted circuit's on every backend. No pass
touches a tensor, relinearization or rotation, so the passes only ever
remove cheap linear steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.circuits import (
    CONST_PLAIN,
    CONST_SCALAR,
    Circuit,
    CircuitConst,
    CircuitStep,
    OP_ADD,
    OP_MAC_CONST,
    OP_MUL,
    OP_MUL_CONST,
    OP_MUL_RELIN,
    OP_RELINEARIZE,
    OP_SPECS,
    OP_SQUARE,
    OP_SUB,
    RELIN_OPS,
    _SCALAR_LIMIT,
)

#: The one optimization level: run every pass.
LEVEL_EXACT = "exact"

#: Ops whose two register operands commute byte-exactly: ``Bfv.add``
#: pads componentwise (a+b == b+a per coefficient) and the Eq. 4 tensor
#: is symmetric in its operands.
_COMMUTATIVE = frozenset({OP_ADD, OP_MUL, OP_MUL_RELIN})

#: Fixed-point safety valve; real circuits settle in 2-3 iterations.
_MAX_ITERATIONS = 16


class _Consts:
    """Value-interned constant table for a circuit under construction."""

    def __init__(self):
        self.table: list[CircuitConst] = []
        self._index: dict[tuple, int] = {}

    def key_of(self, const: CircuitConst) -> tuple:
        if const.kind == CONST_SCALAR:
            return (CONST_SCALAR, const.scalar)
        return (CONST_PLAIN, const.coeffs)

    def intern(self, const: CircuitConst) -> int:
        key = self.key_of(const)
        if key not in self._index:
            self._index[key] = len(self.table)
            self.table.append(const)
        return self._index[key]


@dataclass
class _Builder:
    """Append-only step emitter that tracks degree and zero-ness."""

    num_inputs: int
    consts: _Consts = field(default_factory=_Consts)
    steps: list[CircuitStep] = field(default_factory=list)
    degrees: list[int] = field(default_factory=list)
    zeros: set[int] = field(default_factory=set)

    def __post_init__(self):
        self.degrees = [2] * self.num_inputs

    def emit(self, op: int, args: tuple[int, ...]) -> int:
        self.steps.append(CircuitStep(op=op, args=args))
        layout = OP_SPECS[op][1]
        reg_degs = [
            self.degrees[a] for a, role in zip(args, layout) if role == "r"
        ]
        if op in (OP_MUL, OP_SQUARE):
            self.degrees.append(3)
        elif op in RELIN_OPS:  # fused or deferred key switch
            self.degrees.append(2)
        else:
            self.degrees.append(max(reg_degs))
        return self.num_inputs + len(self.steps) - 1


def _is_zero_const(const: CircuitConst) -> bool:
    if const.kind == CONST_SCALAR:
        return const.scalar == 0
    return all(c == 0 for c in const.coeffs)


def _fold_cse(circuit: Circuit) -> tuple[Circuit, int, int]:
    """One forward walk: byte-exact constant folds + value-numbering CSE.

    Returns ``(circuit, folded, deduped)``. Folded steps alias their
    dst to an existing register; deduped steps alias to the first
    identical computation. Steps that become dead stay in place for
    :func:`_dce` to count and collect.
    """
    out = _Builder(num_inputs=len(circuit.inputs))
    new_of: list[int] = list(range(len(circuit.inputs)))
    #: new register -> (op, resolved args with const *values*) of the
    #: step that defined it, for chain rewrites; and the CSE table.
    def_of: dict[int, tuple] = {}
    seen: dict[tuple, int] = {}
    folded = deduped = 0

    def resolve(step: CircuitStep) -> tuple[list, str]:
        layout = OP_SPECS[step.op][1]
        resolved = []
        for arg, role in zip(step.args, layout):
            if role == "r":
                resolved.append(new_of[arg])
            elif role == "c":
                resolved.append(circuit.consts[arg])
            else:
                resolved.append(arg)
        return resolved, layout

    for step in circuit.steps:
        args, layout = resolve(step)
        op = step.op

        # ---- byte-exact folds (alias dst to an existing register) ----
        alias = None
        if op == OP_MUL_CONST:
            a, const = args
            scalar = const.scalar if const.kind == CONST_SCALAR else None
            if scalar == 1:
                alias = a
            elif scalar is not None:
                # Collapse mul_const(mul_const(x, s1), s2) -> x * (s1*s2):
                # (x*s1 mod q)*s2 and x*(s1*s2) are the same residue.
                prev = def_of.get(a)
                if prev is not None and prev[0] == OP_MUL_CONST:
                    inner_const = prev[1][1]
                    if inner_const.kind == CONST_SCALAR:
                        product = scalar * inner_const.scalar
                        if -_SCALAR_LIMIT <= product < _SCALAR_LIMIT:
                            args = [
                                prev[1][0],
                                CircuitConst(
                                    kind=CONST_SCALAR, scalar=product
                                ),
                            ]
        elif op == OP_MAC_CONST:
            acc, a, const = args
            if const.kind == CONST_SCALAR and const.scalar == 0:
                # acc + x*0: the zero term pads acc componentwise only
                # when x's degree fits inside acc's.
                if out.degrees[a] <= out.degrees[acc]:
                    alias = acc
            elif acc in out.zeros and out.degrees[acc] <= out.degrees[a]:
                op, args = OP_MUL_CONST, [a, const]
        elif op in (OP_ADD, OP_SUB):
            a, b = args
            if b in out.zeros and out.degrees[b] <= out.degrees[a]:
                alias = a
            elif (
                op == OP_ADD
                and a in out.zeros
                and out.degrees[a] <= out.degrees[b]
            ):
                alias = b
        elif op == OP_RELINEARIZE:
            if out.degrees[args[0]] == 2:  # the scheme copies size-2 inputs
                alias = args[0]

        if alias is not None:
            new_of.append(alias)
            folded += 1
            continue

        # ---- value numbering (CSE) ----
        key_args = tuple(
            out.consts.key_of(a) if isinstance(a, CircuitConst) else a
            for a in args
        )
        if op in _COMMUTATIVE and key_args[0] > key_args[1]:
            key_args = (key_args[1], key_args[0])
            args = [args[1], args[0]]
        key = (op, key_args)
        hit = seen.get(key)
        if hit is not None:
            new_of.append(hit)
            deduped += 1
            continue

        emit_args = tuple(
            out.consts.intern(a) if isinstance(a, CircuitConst) else a
            for a in args
        )
        dst = out.emit(op, emit_args)
        seen[key] = dst
        def_of[dst] = (op, args)
        new_of.append(dst)
        if (
            op == OP_MUL_CONST
            and _is_zero_const(args[1])
        ) or (op in (OP_ADD, OP_SUB) and all(a in out.zeros for a in args)):
            out.zeros.add(dst)

    if not out.steps:  # degenerate: everything folded to the inputs
        return circuit, 0, 0
    rebuilt = Circuit(
        name=circuit.name,
        inputs=circuit.inputs,
        consts=tuple(out.consts.table),
        steps=tuple(out.steps),
        outputs=tuple((name, new_of[reg]) for name, reg in circuit.outputs),
    )
    if rebuilt == circuit:
        return circuit, folded, deduped
    return rebuilt, folded, deduped


def _dce(circuit: Circuit) -> tuple[Circuit, int]:
    """Drop steps whose results never reach an output. Returns count."""
    base = len(circuit.inputs)
    live: set[int] = set()
    stack = [reg for _, reg in circuit.outputs]
    while stack:
        reg = stack.pop()
        if reg in live or reg < base:
            continue
        live.add(reg)
        step = circuit.steps[reg - base]
        layout = OP_SPECS[step.op][1]
        stack.extend(
            a for a, role in zip(step.args, layout) if role == "r"
        )
    keep = [i for i in range(len(circuit.steps)) if base + i in live]
    removed = len(circuit.steps) - len(keep)
    if removed == 0 or not keep:
        return circuit, 0
    remap = {r: r for r in range(base)}
    for pos, i in enumerate(keep):
        remap[base + i] = base + pos
    steps = []
    for i in keep:
        step = circuit.steps[i]
        layout = OP_SPECS[step.op][1]
        steps.append(CircuitStep(
            op=step.op,
            args=tuple(
                remap[a] if role == "r" else a
                for a, role in zip(step.args, layout)
            ),
        ))
    rebuilt = Circuit(
        name=circuit.name,
        inputs=circuit.inputs,
        consts=circuit.consts,
        steps=tuple(steps),
        outputs=tuple(
            (name, remap[reg]) for name, reg in circuit.outputs
        ),
    )
    return rebuilt, removed


def optimize_circuit(
    circuit: Circuit, level: str = LEVEL_EXACT
) -> tuple[Circuit, dict]:
    """Run the pass pipeline to a fixed point; returns the rewrite report.

    The report maps each pass name to the number of steps it
    eliminated, plus ``steps_before``/``steps_after``. Optimizing an
    already-optimized circuit is a no-op (the property suite pins
    this). ``level`` must be ``"exact"``, the one level.
    """
    if level != LEVEL_EXACT:
        raise ValueError(
            f"unknown optimization level {level!r} (only {LEVEL_EXACT!r})"
        )
    report = {
        "constant_fold": 0, "cse": 0, "dce": 0,
        "steps_before": len(circuit.steps),
    }
    current = circuit
    for _ in range(_MAX_ITERATIONS):
        previous = current
        current, folded, deduped = _fold_cse(current)
        report["constant_fold"] += folded
        report["cse"] += deduped
        current, removed = _dce(current)
        report["dce"] += removed
        if current == previous:
            break
    report["steps_after"] = len(current.steps)
    return current, report
