"""Encrypted logistic-regression inference (the paper's second application).

Runs the miniature-but-real encrypted pipeline: features are SIMD-packed
across a batch of samples, the linear score w.x + b accumulates under
encryption, a sign-preserving cubic exercises the ct*ct + relinearization
path, and predictions are verified against the plaintext model. The
Table X cost model then prices the full-size workload on both platforms.

Run:  python examples/encrypted_logistic_regression.py
"""

import random

from repro.apps import LOGREG_WORKLOAD, CofheeAppCost, CpuAppCost
from repro.apps.logreg import MiniLogisticRegression
from repro.bfv.params import BfvParameters


def main() -> None:
    model = MiniLogisticRegression(num_features=8, seed=3)
    rng = random.Random(77)
    samples = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(12)]

    print(f"weights: {model.weights}, bias: {model.bias}")
    print(f"batch of {len(samples)} samples, "
          f"{model.batch_size} SIMD slots available")

    encrypted = model.predict(samples)
    plaintext = model.predict_plain(samples)
    agreement = sum(e == p for e, p in zip(encrypted, plaintext))
    print(f"encrypted predictions : {encrypted}")
    print(f"plaintext predictions : {plaintext}")
    print(f"agreement             : {agreement}/{len(samples)} ✓")
    print(f"homomorphic ops used  : "
          f"{model.to_circuit(len(samples)).op_counts()}")
    assert encrypted == plaintext

    print("\nTable X workload model — logistic regression at full scale:")
    params = BfvParameters.from_paper(n=2**12, log_q=109)
    cofhee = CofheeAppCost(params).workload_seconds(LOGREG_WORKLOAD)
    cpu = CpuAppCost().workload_seconds(LOGREG_WORKLOAD)
    print(f"  op mix: {LOGREG_WORKLOAD.ct_ct_adds:,} ct+ct, "
          f"{LOGREG_WORKLOAD.ct_pt_mults:,} ct*pt, "
          f"{LOGREG_WORKLOAD.ct_ct_mults:,} ct*ct+relin")
    print(f"  CPU   : {cpu['total_s']:7.1f} s  (paper: 550.25 s)")
    print(f"  CoFHEE: {cofhee['total_s']:7.1f} s  (paper: 377.6 s)")
    print(f"  speedup: {cpu['total_s'] / cofhee['total_s']:.2f}x "
          f"(paper: 1.46x)")


if __name__ == "__main__":
    main()
