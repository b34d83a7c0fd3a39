"""CryptoNets: encrypted neural-network inference (Gilad-Bachrach et al.).

Two artifacts:

* :data:`CRYPTONETS_WORKLOAD` — the Section VI-C operation mix (457,550
  ct+ct additions, 449,000 ct*pt multiplications, 10,200 ct*ct
  multiplications each followed by relinearization) priced by the cost
  models for Table X;
* :class:`MiniCryptoNets` — a *runnable* CryptoNets-style network on the
  reproduction's BFV: SIMD batching packs one pixel position across a
  batch of images into each ciphertext (the original CryptoNets trick), a
  strided convolution runs as ct*pt multiply-accumulate, the activation is
  the FHE-friendly square function (ct*ct multiply + relinearization), and
  dense layers finish the classification. Outputs are verified against the
  identical plaintext network.

The network is written once, as its circuit:
:meth:`MiniCryptoNets.to_circuit` emits a wire-encodable
:class:`~repro.service.circuits.Circuit` (138 steps, 12 tensors across 2
dependency levels for the default topology). :meth:`MiniCryptoNets.infer`
runs it in-process through the same ``evaluate_circuit`` every serving
backend runs, so a batch served over TCP decrypts to the same scores
(``docs/serving-guide.md``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.blocks import dot, sum_all_slots
from repro.apps.costmodel import Workload
from repro.bfv import BatchEncoder, Bfv, BfvParameters
from repro.bfv.scheme import Ciphertext

#: The paper's CryptoNets operation counts (Section VI-C).
CRYPTONETS_WORKLOAD = Workload(
    name="CryptoNets",
    ct_ct_adds=457_550,
    ct_pt_mults=449_000,
    ct_ct_mults=10_200,
    relin_digit_bits=5,  # 22 digits over the 109-bit modulus (deep circuit)
    paper_cpu_seconds=197.0,
    paper_cofhee_seconds=88.35,
)


@dataclass
class NetworkSpec:
    """Miniature CryptoNets topology (square activations, as in the paper).

    Default: 6x6 input, one 3x3/stride-2 conv with 2 maps, square, dense
    to 4, square, dense to 2 outputs.
    """

    image_size: int = 6
    conv_kernel: int = 3
    conv_stride: int = 2
    conv_maps: int = 2
    hidden: int = 4
    classes: int = 2

    @property
    def conv_out(self) -> int:
        return (self.image_size - self.conv_kernel) // self.conv_stride + 1

    def op_counts(self) -> dict[str, int]:
        """Homomorphic op mix of one batched inference (all images at once)."""
        conv_units = self.conv_maps * self.conv_out * self.conv_out
        k2 = self.conv_kernel * self.conv_kernel
        flat = conv_units
        return {
            "ct_pt_mults": conv_units * k2 + flat * self.hidden
            + self.hidden * self.classes,
            "ct_ct_adds": conv_units * (k2 - 1) + conv_units  # conv acc + bias
            + flat * self.hidden - self.hidden + self.hidden  # dense1
            + self.hidden * self.classes - self.classes + self.classes,
            "ct_ct_mults": conv_units + self.hidden,  # two square layers
        }


class MiniCryptoNets:
    """Runnable encrypted CNN with plaintext-verified outputs.

    Args:
        params: BFV parameters (use :meth:`BfvParameters.toy` scale).
        spec: network topology.
        seed: RNG seed for weights and keys.
    """

    def __init__(self, params: BfvParameters | None = None,
                 spec: NetworkSpec | None = None, seed: int = 7):
        if params is None:
            # A 20-bit plaintext prime (=== 1 mod 2n) keeps the network's
            # signed intermediate values inside (-t/2, t/2) so the batched
            # decode is exact for the default weight/pixel ranges.
            from repro.polymath.primes import ntt_friendly_prime

            params = BfvParameters.toy(n=16, log_q=120,
                                       t=ntt_friendly_prime(16, 20))
        self.params = params
        self.spec = spec or NetworkSpec()
        self.bfv = Bfv(self.params, seed=seed)
        self.encoder = BatchEncoder(self.params)
        # Deep circuits need fine relin digits, mirroring the workload model.
        self.keys = self.bfv.keygen(relin_digit_bits=8)
        rng = random.Random(seed)
        s = self.spec
        self.conv_w = [
            [rng.randint(-2, 2) for _ in range(s.conv_kernel * s.conv_kernel)]
            for _ in range(s.conv_maps)
        ]
        self.conv_b = [rng.randint(-2, 2) for _ in range(s.conv_maps)]
        flat = s.conv_maps * s.conv_out * s.conv_out
        self.fc1_w = [[rng.randint(-1, 1) for _ in range(flat)]
                      for _ in range(s.hidden)]
        self.fc1_b = [rng.randint(-1, 1) for _ in range(s.hidden)]
        self.fc2_w = [[rng.randint(-1, 1) for _ in range(s.hidden)]
                      for _ in range(s.classes)]
        self.fc2_b = [rng.randint(-1, 1) for _ in range(s.classes)]

    @property
    def batch_size(self) -> int:
        """Images processed per inference (the SIMD slot count)."""
        return self.encoder.slot_count

    # -- encrypted pipeline ------------------------------------------------

    def encrypt_images(self, images: list[list[int]]) -> list[Ciphertext]:
        """Pack pixel position p of every image into ciphertext p."""
        size = self.spec.image_size * self.spec.image_size
        if any(len(img) != size for img in images):
            raise ValueError(f"images must have {size} pixels")
        if len(images) > self.batch_size:
            raise ValueError(f"batch too large (max {self.batch_size})")
        cts = []
        for p in range(size):
            slots = [img[p] for img in images]
            cts.append(self.bfv.encrypt(self.encoder.encode(slots),
                                        self.keys.public))
        return cts

    def infer(self, images: list[list[int]]) -> list[list[int]]:
        """Encrypted inference; returns per-image class scores (signed).

        Runs :meth:`to_circuit` through
        :func:`~repro.service.circuits.evaluate_circuit`, the evaluator
        every serving backend runs, then decrypts like a served client.
        """
        from repro.service.circuits import evaluate_circuit

        inputs = self.encrypt_images(images)
        outputs = evaluate_circuit(self.bfv, self.keys.relin,
                                   self.to_circuit(), inputs)
        return self.scores_from_outputs(outputs, len(images))

    # -- wire circuit compilation --------------------------------------------

    def packed_galois_exponents(self) -> tuple[int, ...]:
        """Galois-key exponents the ``packed_dense=True`` circuit rotates
        with; register each one's key with the serving session."""
        from repro.service.circuits import rotation_exponents

        return rotation_exponents(self.to_circuit(packed_dense=True),
                                  self.params)

    def to_circuit(self, packed_dense: bool = False):
        """The network as a servable wire circuit.

        The returned :class:`~repro.service.circuits.Circuit` is the only
        definition of the network: conv multiply-accumulates, packed bias
        adds, square activations (``OP_SQUARE_RELIN``) and the two dense
        layers, run on the ciphertexts from :meth:`encrypt_images`.
        :meth:`infer` evaluates it in-process. Outputs are named
        ``"score0"`` … ``"score{classes-1}"``. The packed bias constants
        use the full SIMD batch width, so one circuit serves any image
        batch.

        With ``packed_dense=True`` the dense layers compile as packed
        rotate-and-sum dot-products over a *single* image (batch of 1,
        the ciphertexts from ``encrypt_images([img])``): the conv
        activations are gathered into one slot-packed vector with a
        masked transpose (mask slot 0, rotate the value to its dense
        index), each dense row is one plaintext multiply by the
        slot-packed weight vector followed by the log-depth all-slots
        reduction, and the hidden activations re-pack the same way for
        the output layer. The session needs Galois keys for
        :meth:`packed_galois_exponents`; every slot of each
        ``score{k}`` output holds that class's score.
        """
        from repro.service.circuits import CircuitBuilder

        s = self.spec
        units = max(s.conv_maps * s.conv_out * s.conv_out, s.hidden)
        if packed_dense and units > self.params.n:
            raise ValueError(
                f"packed dense layers need at most {self.params.n} units, "
                f"have {units}"
            )
        builder = CircuitBuilder(
            "cryptonets-packed" if packed_dense else "cryptonets"
        )
        pixels = [
            builder.input(f"px{p}")
            for p in range(s.image_size * s.image_size)
        ]
        encoded: dict[int, tuple] = {}

        def bias(reg: int, value: int) -> int:
            # Encode each distinct bias once; the conv loop would
            # otherwise pay the O(n) encode per output position.
            if value not in encoded:
                encoded[value] = self.encoder.encode(
                    [value] * self.batch_size
                ).coeffs
            return builder.add_const(reg, builder.plain(encoded[value]))

        def taps(oy: int, ox: int) -> list[int]:
            return [pixels[(oy * s.conv_stride + ky) * s.image_size
                           + ox * s.conv_stride + kx]
                    for ky in range(s.conv_kernel)
                    for kx in range(s.conv_kernel)]

        # Convolution (stride s.conv_stride) + bias, then square.
        conv_out = [
            bias(dot(builder, taps(oy, ox), self.conv_w[m]), self.conv_b[m])
            for m in range(s.conv_maps)
            for oy in range(s.conv_out)
            for ox in range(s.conv_out)
        ]
        act1 = [builder.square_relin(c) for c in conv_out]
        if packed_dense:
            scores = self._packed_dense(builder, act1, bias)
        else:
            hidden = [bias(dot(builder, act1, self.fc1_w[h]), self.fc1_b[h])
                      for h in range(s.hidden)]
            act2 = [builder.square_relin(c) for c in hidden]
            scores = [bias(dot(builder, act2, self.fc2_w[k]), self.fc2_b[k])
                      for k in range(s.classes)]
        for k, score in enumerate(scores):
            builder.output(f"score{k}", score)
        return builder.build()

    def _packed_dense(self, builder, act1: list[int], bias) -> list[int]:
        """The rotate-and-sum dense layers behind ``packed_dense=True``.

        Single-image layout: every conv output lives in slot 0 (the other
        slots carry bias garbage the masks discard). ``pack`` gathers a
        list of such registers into one slot-packed vector — mask slot 0
        (or the uniform value, post-reduction), rotate it to its dense
        index via the group recipe, accumulate — after which a dense row
        is one ct*pt by the slot-packed weight row plus the all-slots
        reduction.
        """
        from repro.bfv.rotation import rotation_plan, slot_permutation

        s = self.spec
        n = self.params.n
        # Step recipe moving slot 0 to slot ``dst``: the unique group
        # element g with perm_g[dst] == 0, then its row/column
        # decomposition. Computed once from the encoder's points.
        plan = rotation_plan(n)
        perms = {g: slot_permutation(self.encoder, g) for g in plan}
        to_slot = {}
        for dst in range(n):
            for g, perm in perms.items():
                if perm[dst] == 0:
                    to_slot[dst] = plan[g]
                    break

        def mask(slot: int) -> int:
            one_hot = [0] * self.encoder.slot_count
            one_hot[slot] = 1
            return builder.plain(self.encoder.encode(one_hot).coeffs)

        def rotate_to(reg: int, dst: int) -> int:
            for kind, steps in to_slot[dst]:
                reg = (builder.rotate_rows(reg, steps) if kind == "rows"
                       else builder.rotate_columns(reg))
            return reg

        def pack(regs: list[int], mask_slot) -> int:
            acc = None
            for i, reg in enumerate(regs):
                masked = builder.mul_const(reg, mask(mask_slot(i)))
                moved = rotate_to(masked, i) if mask_slot(i) != i else masked
                acc = moved if acc is None else builder.add(acc, moved)
            return acc

        def packed_row(vec: int, weights: list[int], b: int) -> int:
            row = builder.mul_const(
                vec, builder.plain(self.encoder.encode(weights).coeffs)
            )
            return bias(sum_all_slots(builder, row, n), b)

        # Conv activations live in slot 0; gather them into slots 0..flat-1.
        vec1 = pack(act1, lambda _i: 0)
        hidden = [
            builder.square_relin(packed_row(vec1, self.fc1_w[h], self.fc1_b[h]))
            for h in range(s.hidden)
        ]
        # Hidden activations are uniform across slots (post-reduction), so
        # the mask picks each value at its own dense index — no rotation.
        vec2 = pack(hidden, lambda i: i)
        return [packed_row(vec2, self.fc2_w[k], self.fc2_b[k])
                for k in range(s.classes)]

    def scores_from_outputs(self, outputs: dict,
                            batch: int) -> list[list[int]]:
        """Decrypt a served circuit's named outputs into per-image scores.

        The client-side tail of a :meth:`to_circuit` round trip, and of
        :meth:`infer`.
        """
        s = self.spec
        decoded = [
            self.encoder.decode_signed(
                self.bfv.decrypt(outputs[f"score{k}"], self.keys.secret)
            )
            for k in range(s.classes)
        ]
        return [[decoded[k][i] for k in range(s.classes)]
                for i in range(batch)]

    # -- plaintext reference -------------------------------------------------

    def infer_plain(self, images: list[list[int]]) -> list[list[int]]:
        """The identical network on plaintext integers (mod-t semantics
        avoided: verifies the encrypted path decodes to true values while
        magnitudes stay within t/2)."""
        s = self.spec
        results = []
        for img in images:
            conv = []
            for m in range(s.conv_maps):
                for oy in range(s.conv_out):
                    for ox in range(s.conv_out):
                        acc = 0
                        for ky in range(s.conv_kernel):
                            for kx in range(s.conv_kernel):
                                p = ((oy * s.conv_stride + ky) * s.image_size
                                     + ox * s.conv_stride + kx)
                                acc += img[p] * self.conv_w[m][
                                    ky * s.conv_kernel + kx
                                ]
                        conv.append(acc + self.conv_b[m])
            act1 = [v * v for v in conv]
            hidden = [
                sum(w * v for w, v in zip(self.fc1_w[h], act1)) + self.fc1_b[h]
                for h in range(s.hidden)
            ]
            act2 = [v * v for v in hidden]
            results.append(
                [
                    sum(w * v for w, v in zip(self.fc2_w[k], act2))
                    + self.fc2_b[k]
                    for k in range(s.classes)
                ]
            )
        return results

    @staticmethod
    def classify(scores: list[list[int]]) -> list[int]:
        return [max(range(len(s)), key=lambda k: s[k]) for s in scores]
