"""Privacy-preserving logistic-regression inference (Sarkar et al. [39]).

Two artifacts, mirroring :mod:`repro.apps.cryptonets`:

* :data:`LOGREG_WORKLOAD` — the Section VI-C operation mix (168,298 ct+ct
  additions, 49,500 ct*pt multiplications, 128,700 combined ct*ct
  multiplications and relinearizations) for the Table X estimator;
* :class:`MiniLogisticRegression` — runnable encrypted inference on the
  reproduction's BFV: features are SIMD-packed (one feature position
  across a batch of samples per ciphertext), the linear score
  ``w.x + b`` accumulates with ct*pt multiplies and ct+ct adds, and a
  degree-3 polynomial approximation of the sigmoid's decision behaviour
  (odd polynomial, fixed-point scaled) exercises the ct*ct + relin path
  like the paper's cancer-type predictor does.

The model is written once, as its circuit:
:meth:`MiniLogisticRegression.to_circuit` emits a wire-encodable
:class:`~repro.service.circuits.Circuit`, and
:meth:`MiniLogisticRegression.predict` runs it in-process through the
same ``evaluate_circuit`` every serving backend runs, so a batch served
over TCP decrypts to the same predictions (``docs/serving-guide.md``).
"""

from __future__ import annotations

import random

from repro.apps.blocks import dot, sum_all_slots
from repro.apps.costmodel import Workload
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.scheme import Ciphertext

#: The paper's logistic-regression operation counts (Section VI-C). The
#: 128,700 "combined ct-ct multiplications and relinearizations" each pay
#: one tensor + one relin, with the shallow circuit affording coarse
#: 13-bit relin digits (9 over the 109-bit modulus).
LOGREG_WORKLOAD = Workload(
    name="LogisticRegression",
    ct_ct_adds=168_298,
    ct_pt_mults=49_500,
    ct_ct_mults=128_700,
    relin_digit_bits=13,
    paper_cpu_seconds=550.25,
    paper_cofhee_seconds=377.6,
)


def _cubic(builder, score: int) -> int:
    """The sigmoid surrogate ``3s + s^3``: two ct*ct multiplies + relins."""
    cubed = builder.mul_relin(builder.square_relin(score), score)
    return builder.add(builder.mul_const(score, builder.scalar(3)), cubed)


class MiniLogisticRegression:
    """Runnable encrypted logistic-regression inference.

    The decision function is ``sign(w.x + b)``; to exercise the ct*ct path
    the model also evaluates the odd cubic ``g(s) = 3*s + s^3`` (a
    monotone, sign-preserving sigmoid surrogate in fixed point), so each
    inference performs genuine multiplications + relinearizations.

    Args:
        params: BFV parameters (toy scale by default).
        num_features: feature-vector length.
        seed: RNG seed for weights and keys.
    """

    def __init__(self, params: BfvParameters | None = None,
                 num_features: int = 8, seed: int = 11):
        if num_features < 1:
            raise ValueError("need at least one feature")
        if params is None:
            # The cubic surrogate reaches |3s + s^3| ~ 4.3e5 for the default
            # weight/feature ranges; a 21-bit plaintext prime keeps the
            # signed decode exact.
            from repro.polymath.primes import ntt_friendly_prime

            params = BfvParameters.toy(n=16, log_q=140,
                                       t=ntt_friendly_prime(16, 21))
        self.params = params
        self.bfv = Bfv(self.params, seed=seed)
        self.encoder = BatchEncoder(self.params)
        self.keys = self.bfv.keygen(relin_digit_bits=16)
        rng = random.Random(seed)
        self.weights = [rng.randint(-3, 3) for _ in range(num_features)]
        self.bias = rng.randint(-3, 3)
        self.num_features = num_features

    @property
    def batch_size(self) -> int:
        return self.encoder.slot_count

    def encrypt_features(self, samples: list[list[int]]) -> list[Ciphertext]:
        """Pack feature f of every sample into ciphertext f."""
        if any(len(s) != self.num_features for s in samples):
            raise ValueError(f"samples must have {self.num_features} features")
        if len(samples) > self.batch_size:
            raise ValueError(f"batch too large (max {self.batch_size})")
        cts = []
        for f in range(self.num_features):
            slots = [s[f] for s in samples]
            cts.append(self.bfv.encrypt(self.encoder.encode(slots),
                                        self.keys.public))
        return cts

    def predict(self, samples: list[list[int]],
                use_sigmoid: bool = True) -> list[int]:
        """Encrypted inference; returns 0/1 class per sample.

        Runs :meth:`to_circuit` through
        :func:`~repro.service.circuits.evaluate_circuit`, the evaluator
        every serving backend runs, then decrypts like a served client.
        """
        from repro.service.circuits import evaluate_circuit

        inputs = self.encrypt_features(samples)
        outputs = evaluate_circuit(
            self.bfv, self.keys.relin,
            self.to_circuit(len(samples), use_sigmoid), inputs,
        )
        return self.predictions_from_score(outputs["score"], len(samples))

    def predict_plain(self, samples: list[list[int]]) -> list[int]:
        """Plaintext reference decision (sign of the linear score — the
        cubic surrogate is sign-preserving by construction)."""
        out = []
        for s in samples:
            v = sum(w * x for w, x in zip(self.weights, s)) + self.bias
            out.append(1 if v > 0 else 0)
        return out

    # -- packed (rotate-and-sum) layout --------------------------------------

    def encrypt_packed(self, samples: list[list[int]]) -> list[Ciphertext]:
        """One ciphertext per sample: feature ``f`` in batching slot ``f``.

        The transposed layout of :meth:`encrypt_features` — what the
        ``packed=True`` circuit consumes. Unused slots pad with zero, so
        the rotate-and-sum reduction sees only the true features.
        """
        if any(len(s) != self.num_features for s in samples):
            raise ValueError(f"samples must have {self.num_features} features")
        if self.num_features > self.encoder.slot_count:
            raise ValueError(
                f"{self.num_features} features exceed "
                f"{self.encoder.slot_count} slots"
            )
        return [
            self.bfv.encrypt(self.encoder.encode(s), self.keys.public)
            for s in samples
        ]

    def packed_galois_exponents(self) -> tuple[int, ...]:
        """Galois-key exponents the ``packed=True`` circuit rotates with;
        register each one's key with the serving session."""
        from repro.service.circuits import rotation_exponents

        return rotation_exponents(self.to_circuit(1, packed=True),
                                  self.params)

    # -- wire circuit compilation ------------------------------------------

    def to_circuit(self, batch: int, use_sigmoid: bool = True,
                   packed: bool = False):
        """One inference batch as a servable wire circuit.

        The returned :class:`~repro.service.circuits.Circuit` is the only
        definition of the model: a multiply-accumulate per feature, the
        packed bias add, then the cubic sigmoid surrogate, run on the
        ciphertexts from :meth:`encrypt_features`. :meth:`predict`
        evaluates it in-process. Submit it with
        :meth:`~repro.service.client.FheClient.submit_circuit`; the one
        named output is ``"score"``.

        With ``packed=True`` the dense dot-product is compiled as a
        rotate-and-sum instead: inputs are the per-sample ciphertexts of
        :meth:`encrypt_packed` (``"s0"`` … ``"s{batch-1}"``), each is
        scaled by the slot-packed weight vector, reduced with
        ``log2(n/2)`` row rotations plus the column swap so every slot
        holds ``w.x``, and the bias and cubic tail run per sample. The
        session needs Galois keys for :meth:`packed_galois_exponents`;
        outputs are ``"score0"`` … ``"score{batch-1}"`` (decode any slot).

        Args:
            batch: number of samples in the batch (fixes the width of the
                packed bias constant; with ``packed=True``, the number of
                inputs/outputs).
        """
        from repro.service.circuits import CircuitBuilder

        if not packed:
            builder = CircuitBuilder("logreg")
            features = [builder.input(f"x{f}")
                        for f in range(self.num_features)]
            bias = self.encoder.encode([self.bias] * batch)
            score = builder.add_const(dot(builder, features, self.weights),
                                      builder.plain(bias.coeffs))
            builder.output("score", _cubic(builder, score)
                           if use_sigmoid else score)
            return builder.build()
        if batch < 1:
            raise ValueError("packed circuits need at least one sample")
        builder = CircuitBuilder("logreg-packed")
        weights = builder.plain(self.encoder.encode(self.weights).coeffs)
        bias = builder.plain(
            self.encoder.encode([self.bias] * self.encoder.slot_count).coeffs
        )
        inputs = [builder.input(f"s{i}") for i in range(batch)]
        for i, reg in enumerate(inputs):
            score = builder.add_const(
                sum_all_slots(builder, builder.mul_const(reg, weights),
                              self.params.n), bias)
            builder.output(f"score{i}", _cubic(builder, score)
                           if use_sigmoid else score)
        return builder.build()

    def predictions_from_packed(self, outputs: dict, batch: int) -> list[int]:
        """Decrypt ``packed=True`` outputs into 0/1 classes per sample.

        Every slot of ``score{i}`` holds sample ``i``'s (post-surrogate)
        score after the all-slots reduction; slot 0 is decoded.
        """
        out = []
        for i in range(batch):
            decoded = self.encoder.decode_signed(
                self.bfv.decrypt(outputs[f"score{i}"], self.keys.secret)
            )
            out.append(1 if decoded[0] > 0 else 0)
        return out

    def predictions_from_score(self, score_ct: Ciphertext,
                               batch: int) -> list[int]:
        """Decrypt a served score ciphertext into 0/1 classes.

        The client-side tail of a :meth:`to_circuit` round trip: decode
        the signed slots and threshold; :meth:`predict` ends with it too.
        """
        decoded = self.encoder.decode_signed(
            self.bfv.decrypt(score_ct, self.keys.secret)
        )
        return [1 if v > 0 else 0 for v in decoded[:batch]]
