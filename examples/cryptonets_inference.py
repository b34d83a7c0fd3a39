"""CryptoNets-style encrypted CNN inference (the paper's first application).

Runs a miniature CryptoNets on the reproduction's BFV (its circuit,
evaluated in-process): the SIMD batching trick packs one pixel position
of every image into each ciphertext, so a whole batch classifies for the
price of one inference. Square activations
exercise the ct*ct + relinearization path CoFHEE accelerates. The Table X
model then prices the full-size network.

Run:  python examples/cryptonets_inference.py
"""

import random

from repro.apps import CRYPTONETS_WORKLOAD, CofheeAppCost, CpuAppCost
from repro.apps.cryptonets import MiniCryptoNets
from repro.bfv.params import BfvParameters


def main() -> None:
    net = MiniCryptoNets(seed=9)
    spec = net.spec
    rng = random.Random(55)
    batch = [
        [rng.randint(0, 2) for _ in range(spec.image_size**2)]
        for _ in range(8)
    ]
    print(f"network: {spec.image_size}x{spec.image_size} input -> "
          f"conv {spec.conv_maps}x{spec.conv_kernel}x{spec.conv_kernel}/s{spec.conv_stride} "
          f"-> square -> dense {spec.hidden} -> square -> dense {spec.classes}")
    print(f"batch: {len(batch)} images in one encrypted pass "
          f"({net.batch_size} SIMD slots)")

    scores = net.infer(batch)
    expected = net.infer_plain(batch)
    assert scores == expected, "encrypted network diverged from plaintext"
    labels = net.classify(scores)
    print(f"predicted classes     : {labels}")
    print(f"scores (image 0)      : {scores[0]} (plaintext-exact ✓)")
    print(f"homomorphic ops used  : {net.to_circuit().op_counts()}")

    print("\nTable X workload model — CryptoNets at full scale:")
    params = BfvParameters.from_paper(n=2**12, log_q=109)
    cofhee = CofheeAppCost(params).workload_seconds(CRYPTONETS_WORKLOAD)
    cpu = CpuAppCost().workload_seconds(CRYPTONETS_WORKLOAD)
    print(f"  op mix: {CRYPTONETS_WORKLOAD.ct_ct_adds:,} ct+ct, "
          f"{CRYPTONETS_WORKLOAD.ct_pt_mults:,} ct*pt, "
          f"{CRYPTONETS_WORKLOAD.ct_ct_mults:,} ct*ct+relin")
    print(f"  CPU   : {cpu['total_s']:6.1f} s  (paper: 197 s)")
    print(f"  CoFHEE: {cofhee['total_s']:6.1f} s  (paper: 88.35 s)")
    print(f"  speedup: {cpu['total_s'] / cofhee['total_s']:.2f}x (paper: 2.23x)")


if __name__ == "__main__":
    main()
