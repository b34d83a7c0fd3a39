"""Analytic noise-growth bounds and parameter security estimation.

Two pieces the evaluation leans on implicitly:

* **noise budgets** — the paper's parameter choices (fewer, wider RNS
  towers; per-application relinearization digit widths in the Table X
  model) are noise-budget trades. :class:`NoiseModel` provides standard
  worst-case BFV noise bounds per operation, so circuit depth vs parameter
  questions are answerable analytically — and the model is validated
  against the *measured* invariant-noise budgets of the functional scheme;
* **security** — Section VI-B: the (2^12, 109) and (2^13, 218) sets
  "provide a security level of 128 bits against classical computers".
  :func:`security_level_bits` implements the Homomorphic Encryption
  Security Standard's lookup (the table the paper cites as [24]) by
  interpolating its ternary-secret classical-hardness rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bfv.params import BfvParameters

#: HE Security Standard (Albrecht et al. 2018), Table for ternary secrets,
#: classical security: max log2(q) at each (n, lambda).
#: {n: {security_bits: max_log_q}}
_HE_STANDARD_MAX_LOG_Q = {
    1024: {128: 27, 192: 19, 256: 14},
    2048: {128: 54, 192: 37, 256: 29},
    4096: {128: 109, 192: 75, 256: 58},
    8192: {128: 218, 192: 152, 256: 118},
    16384: {128: 438, 192: 305, 256: 237},
    32768: {128: 881, 192: 611, 256: 476},
}


def max_log_q_for_security(n: int, security_bits: int = 128) -> int:
    """Largest coefficient-modulus width meeting the target security."""
    if n not in _HE_STANDARD_MAX_LOG_Q:
        raise ValueError(f"no HE-standard row for n = {n}")
    table = _HE_STANDARD_MAX_LOG_Q[n]
    if security_bits not in table:
        raise ValueError(f"no HE-standard column for {security_bits}-bit security")
    return table[security_bits]


def security_level_bits(n: int, log_q: int) -> int:
    """Classical security estimate for ternary-secret RLWE at (n, log q).

    Piecewise from the HE-standard rows: returns the highest standard level
    (256/192/128) whose budget the modulus respects, or a proportional
    sub-128 estimate when q is oversized (security degrades roughly
    linearly in log q at fixed n).
    """
    if n not in _HE_STANDARD_MAX_LOG_Q:
        raise ValueError(f"no HE-standard row for n = {n}")
    table = _HE_STANDARD_MAX_LOG_Q[n]
    for level in (256, 192, 128):
        if log_q <= table[level]:
            return level
    return int(128 * table[128] / log_q)


@dataclass(frozen=True)
class NoiseBound:
    """A worst-case infinity-norm bound on invariant noise, in bits."""

    bits: float

    def budget_bits(self, params: BfvParameters) -> float:
        """Remaining budget: log2(q / (2t)) minus the noise magnitude."""
        return params.log_q - params.t.bit_length() - 1 - self.bits


class NoiseModel:
    """Worst-case BFV noise propagation (textbook bounds).

    All bounds track ``log2`` of the noise infinity norm. They are
    deliberately conservative; the property tests check they *upper-bound*
    the measured noise of the functional scheme.
    """

    def __init__(self, params: BfvParameters):
        self.params = params
        self._log_n = math.log2(params.n)
        self._log_t = math.log2(params.t)
        # ternary secret/randomness norm 1; error norm ~ tail-cut * sigma
        self._log_b_err = math.log2(10 * params.sigma)

    def fresh(self) -> NoiseBound:
        """Fresh encryption: ||v|| <= B_err * (2n + 1) + rounding."""
        bits = self._log_b_err + math.log2(2 * self.params.n + 1) + 1
        return NoiseBound(bits)

    def add(self, a: NoiseBound, b: NoiseBound) -> NoiseBound:
        """Addition: noises add."""
        return NoiseBound(max(a.bits, b.bits) + 1)

    def multiply(self, a: NoiseBound, b: NoiseBound) -> NoiseBound:
        """EvalMult: dominant term ~ t * n * (||v_a|| + ||v_b||) + t*n."""
        combined = max(a.bits, b.bits) + 1
        bits = self._log_t + self._log_n + combined + 2
        return NoiseBound(bits)

    def multiply_plain(self, a: NoiseBound) -> NoiseBound:
        """ct*pt with centered plaintext: scales by n * t/2 at worst."""
        return NoiseBound(a.bits + self._log_n + self._log_t - 1)

    def multiply_scalar(self, a: NoiseBound) -> NoiseBound:
        """ct * scalar (CMODMUL): scales by |scalar| <= t/2."""
        return NoiseBound(a.bits + self._log_t - 1)

    def relinearize(self, a: NoiseBound, digit_bits: int) -> NoiseBound:
        """Key switching adds ~ n * ell * T/2 * B_err of fresh noise."""
        if digit_bits < 1:
            raise ValueError("digit width must be >= 1")
        num_digits = -(-self.params.log_q // digit_bits)
        added = (self._log_n + math.log2(num_digits) + digit_bits - 1
                 + self._log_b_err)
        return NoiseBound(max(a.bits, added) + 1)

    def rotate(self, a: NoiseBound, digit_bits: int) -> NoiseBound:
        """Galois rotation with a key of ``digit_bits``-bit digits.

        The automorphism ``x -> x^g`` only permutes the noise's
        coefficients (up to sign), so it keeps the norm; the key switch
        back to ``s`` then adds what :meth:`relinearize`'s does at the
        Galois key's digit width.
        """
        return self.relinearize(a, digit_bits)

    # -- circuit-level queries ------------------------------------------

    def multiplicative_depth(self, digit_bits: int = 22) -> int:
        """Levels of multiply+relinearize before the budget is exhausted."""
        bound = self.fresh()
        depth = 0
        while True:
            nxt = self.relinearize(self.multiply(bound, bound), digit_bits)
            if nxt.budget_bits(self.params) <= 0:
                return depth
            bound = nxt
            depth += 1
            if depth > 64:  # parameters with absurd headroom
                return depth

    def digit_bits_for_depth(self, depth: int) -> int | None:
        """Widest relin digit that still supports the requested depth —
        the knob the Table X cost model turns per application."""
        for digit_bits in range(min(60, self.params.log_q), 0, -1):
            if self._depth_with(digit_bits) >= depth:
                return digit_bits
        return None

    def _depth_with(self, digit_bits: int) -> int:
        bound = self.fresh()
        depth = 0
        while depth <= 64:
            nxt = self.relinearize(self.multiply(bound, bound), digit_bits)
            if nxt.budget_bits(self.params) <= 0:
                break
            bound = nxt
            depth += 1
        return depth
