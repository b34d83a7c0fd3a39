"""The app circuits' wire bytes are pinned.

A served app job is addressed by the SHA-256 of its circuit's wire
bytes (result cache, dedupe), so a refactor of how the apps lower
themselves must not move a single byte. Each digest below is the full
SHA-256 of ``serialize_circuit`` for one variant.
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
        "c4f34aa758612963d4faa1919e265875f84ad52a46b14e6166b33e123f28df9a",
    ),
    "cryptonets-packed": (
        lambda: CNN.to_circuit(packed_dense=True),
        "a94be6ecdc0ec5e7e2e0f097306518b0104506c50f2eba03b390f0743ce3b21d",
    ),
    "logreg": (
        lambda: LOGREG.to_circuit(4),
        "badef3ac37ed032fc2bc096c9c5ab10b093e51a276bed869c20326ea404221a1",
    ),
    "logreg-linear": (
        lambda: LOGREG.to_circuit(4, use_sigmoid=False),
        "fd3cbca353affa18d795af6ed9defcee1ddf2ace598dd588a9684a1da5fd2181",
    ),
    "logreg-packed": (
        lambda: LOGREG.to_circuit(3, packed=True),
        "adf4ba7e1dd2856338a3b3b67dd02477e3871b15aff798e52d0ca5a44dc5d527",
    ),
    "logreg-packed-linear": (
        lambda: LOGREG.to_circuit(3, packed=True, use_sigmoid=False),
        "c5da944b53401339e11e48f2679322784a0db66bb785292fc88e7630e1c60614",
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
