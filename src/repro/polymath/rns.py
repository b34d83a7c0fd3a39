"""Residue Number System (RNS) — splitting big moduli into towers.

Section II-D of the paper: coefficient moduli larger than the machine word
are decomposed by the Chinese Remainder Theorem into coprime towers, and
every polynomial operation is applied per-tower independently. The
evaluation hinges on tower counts: for ``log q = 109`` SEAL on a 64-bit CPU
needs two towers (54 + 55 bits) while CoFHEE's native 128-bit datapath
needs one; for ``log q = 218`` SEAL needs four (~55-bit) towers and CoFHEE
two (109 + 109).

:func:`plan_towers` reproduces that planning; :class:`RnsBasis` performs the
actual decomposition/reconstruction, which tests validate as a ring
isomorphism.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.polymath.modmath import modinv
from repro.polymath.primes import next_smaller_ntt_prime, ntt_friendly_prime


class RnsBasis:
    """A CRT basis of pairwise-coprime moduli.

    Attributes:
        moduli: the tower moduli ``(q_1, ..., q_L)``.
        modulus: the composite modulus ``q = prod(q_i)``.
    """

    def __init__(self, moduli: Sequence[int]):
        if not moduli:
            raise ValueError("RNS basis needs at least one modulus")
        for i, a in enumerate(moduli):
            if a < 2:
                raise ValueError(f"modulus {a} must be >= 2")
            for b in moduli[i + 1 :]:
                if _gcd(a, b) != 1:
                    raise ValueError(f"moduli {a} and {b} are not coprime")
        self.moduli = tuple(moduli)
        self.modulus = 1
        for m in self.moduli:
            self.modulus *= m
        # Precompute CRT reconstruction constants: q/q_i and (q/q_i)^-1 mod q_i.
        self._punctured = [self.modulus // m for m in self.moduli]
        self._punctured_inv = [
            modinv(p % m, m) for p, m in zip(self._punctured, self.moduli)
        ]

    def __len__(self) -> int:
        return len(self.moduli)

    def decompose(self, value: int) -> tuple[int, ...]:
        """Map an integer to its residues (one per tower)."""
        v = value % self.modulus
        return tuple(v % m for m in self.moduli)

    def reconstruct(self, residues: Sequence[int]) -> int:
        """Inverse of :meth:`decompose` (Chinese Remainder Theorem)."""
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        acc = 0
        for r, m, p, p_inv in zip(
            residues, self.moduli, self._punctured, self._punctured_inv
        ):
            acc += (r % m) * p_inv % m * p
        return acc % self.modulus

    def decompose_poly(self, coeffs: Sequence[int]) -> list[list[int]]:
        """Split a big-modulus coefficient vector into per-tower vectors."""
        return [[c % m for c in coeffs] for m in self.moduli]

    def reconstruct_poly(self, towers: Sequence[Sequence[int]]) -> list[int]:
        """Recombine per-tower coefficient vectors into big-modulus form."""
        if len(towers) != len(self.moduli):
            raise ValueError(f"expected {len(self.moduli)} towers, got {len(towers)}")
        n = len(towers[0])
        if any(len(t) != n for t in towers):
            raise ValueError("tower length mismatch")
        return [self.reconstruct([t[i] for t in towers]) for i in range(n)]

    def centered_reconstruct(self, residues: Sequence[int]) -> int:
        """Reconstruct into the symmetric interval (-q/2, q/2]."""
        v = self.reconstruct(residues)
        return v - self.modulus if v > self.modulus // 2 else v

    def sub_basis(self, indices: Sequence[int]) -> "RnsBasis":
        """The basis restricted to a subset of towers (a shard).

        Tower-sharded execution splits one multi-tower operation across
        workers; each worker sees only its shard's moduli. Indices must be
        distinct and in range; order is preserved.
        """
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate tower indices in {list(indices)}")
        try:
            return RnsBasis([self.moduli[i] for i in indices])
        except IndexError:
            raise ValueError(
                f"tower index out of range for {len(self.moduli)}-tower "
                f"basis: {list(indices)}"
            ) from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RnsBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        bits = [m.bit_length() for m in self.moduli]
        return f"RnsBasis({len(self.moduli)} towers, bits={bits})"


def residue_words(coeffs: "Sequence[int] | np.ndarray", q: int) -> np.ndarray:
    """``coeffs`` mod ``q`` as a word array: ``uint64`` while ``q`` fits 64
    bits, exact Python integers otherwise.

    An unsigned array already below ``q`` comes back as is, and one with a
    word ``>= q`` takes one ``uint64`` ``%`` pass. Anything else (Python
    ints of any size, signed or object arrays) takes one exact ``%`` pass
    over Python integers.
    """
    narrow = q.bit_length() <= 64
    if narrow and isinstance(coeffs, np.ndarray) and coeffs.dtype.kind == "u":
        return coeffs if int(coeffs.max()) < q else coeffs % np.uint64(q)
    words = np.asarray(coeffs, dtype=object) % q
    return words.astype(np.uint64) if narrow else words


def plan_towers(total_bits: int, word_bits: int, n: int) -> list[int]:
    """Choose NTT-friendly prime towers covering ``total_bits`` of modulus.

    Reproduces the paper's tower planning: the modulus budget is split into
    the fewest towers that each fit in ``word_bits`` (54/55 bits for SEAL on
    a 64-bit CPU, 109 bits for CoFHEE's 128-bit datapath), balancing the
    sizes like SEAL does (109 -> 54 + 55, 218 -> 54 + 54 + 55 + 55).

    Args:
        total_bits: target ``log2 q`` of the composite modulus.
        word_bits: maximum bits per tower the platform handles natively.
        n: polynomial degree (towers must satisfy ``q_i === 1 mod 2n``).

    Returns:
        A list of distinct NTT-friendly primes whose bit lengths sum to
        ``total_bits``.
    """
    if total_bits < 2:
        raise ValueError(f"total_bits must be >= 2, got {total_bits}")
    count = -(-total_bits // word_bits)  # ceil division
    base = total_bits // count
    remainder = total_bits - base * count
    # `remainder` towers get one extra bit, listed last (54, 55 ordering).
    sizes = [base] * (count - remainder) + [base + 1] * remainder
    primes: list[int] = []
    for bits in sizes:
        q = ntt_friendly_prime(n, bits)
        while q in primes:  # ensure distinct (coprime) towers
            q = next_smaller_ntt_prime(q, n)
        primes.append(q)
    return primes


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
