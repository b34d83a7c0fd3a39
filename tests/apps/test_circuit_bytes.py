"""The app circuits' wire bytes are pinned.

A served app job is addressed by the SHA-256 of its circuit's wire
bytes (result cache, dedupe), so a refactor of how the apps lower
themselves must not move a single byte. Each digest below is the full
SHA-256 of ``serialize_circuit`` for one variant. Every variant holds a
plain constant, so each is a version-3 body (packed kind-2 constants).
"""

import hashlib

import pytest

from repro.apps import MiniCryptoNets, MiniLogisticRegression
from repro.service.serialization import serialize_circuit

CNN = MiniCryptoNets(seed=7)
LOGREG = MiniLogisticRegression(num_features=8, seed=11)

DIGESTS = {
    "cryptonets": (
        lambda: CNN.to_circuit(),
        "75d563544c2d06451398386cd7be82c75bb04936f8356b8bf536d2509f5ce9b7",
    ),
    "cryptonets-packed": (
        lambda: CNN.to_circuit(packed_dense=True),
        "d180a666238d0760392e3971629861eb4c652c4b8fbdc292061bbaf35ff53da0",
    ),
    "logreg": (
        lambda: LOGREG.to_circuit(4),
        "a50ae818e4beeaedc76a75b1c680c8cd09b2839b83b7c9a6a1fb71b630790984",
    ),
    "logreg-linear": (
        lambda: LOGREG.to_circuit(4, use_sigmoid=False),
        "baf23226482cca3a5a7c5aca362e07ca5d3e7cd63fa563473ef267f8f2d0e95d",
    ),
    "logreg-packed": (
        lambda: LOGREG.to_circuit(3, packed=True),
        "96cad44f9a9078dfd2ef5514a229e338a98e778735ca3ab648cc8c081ce1e330",
    ),
    "logreg-packed-linear": (
        lambda: LOGREG.to_circuit(3, packed=True, use_sigmoid=False),
        "529808121cbf193540cf5fad224d455541b8a1f05d823071ca0e7d5354b27472",
    ),
}


@pytest.mark.parametrize("variant", sorted(DIGESTS))
def test_wire_bytes_are_pinned(variant):
    build, digest = DIGESTS[variant]
    assert hashlib.sha256(serialize_circuit(build())).hexdigest() == digest


def test_galois_exponents_cover_every_packed_rotation():
    """Read off the packed circuits: every row rotation plus the column
    swap for CryptoNets' masked transpose, the power-of-two rotations
    plus the swap for logreg's rotate-and-sum."""
    assert CNN.packed_galois_exponents() == (3, 9, 11, 17, 19, 25, 27, 31)
    assert LOGREG.packed_galois_exponents() == (3, 9, 17, 31)
