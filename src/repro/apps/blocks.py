"""Circuit blocks the app networks lower through.

Each takes a :class:`~repro.service.circuits.CircuitBuilder` and register
handles and appends its steps, so every lowering that uses a block emits
it the same way.
"""

from __future__ import annotations


def dot(builder, regs: list[int], weights: list[int]) -> int:
    """``sum(w * reg)``: one ct*pt multiply, then one multiply-accumulate
    per further term, each weight a scalar constant."""
    acc = builder.mul_const(regs[0], builder.scalar(weights[0]))
    for reg, w in zip(regs[1:], weights[1:]):
        acc = builder.mac_const(acc, reg, builder.scalar(w))
    return acc


def sum_all_slots(builder, reg: int, n: int) -> int:
    """Rotate-and-sum: every slot of the result holds the sum of ``reg``'s
    ``n`` slots.

    After the ``log2(n/2)`` power-of-two row rotations each slot holds
    its half-ring's sum; the column swap finishes the reduction.
    """
    step = 1
    while step < n // 2:
        reg = builder.add(reg, builder.rotate_rows(reg, step))
        step <<= 1
    return builder.add(reg, builder.rotate_columns(reg))
