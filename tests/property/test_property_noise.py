"""Property: the noise model never promises more budget than there is.

A toy chain shaped like the bench's ``dense16`` layer (EvalMult +
relinearize, four rotate-and-add rounds, a scalar multiply, a plaintext
add) runs on encrypted random slots, and after every step the
:class:`~repro.bfv.noise.NoiseModel` budget is compared with
``Bfv.noise_budget`` measured with the secret key. The relinearization
and Galois keys draw their digit widths independently; the model has no
plaintext add, so the last step is bounded as a ciphertext addition.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import BatchEncoder, Bfv, BfvParameters, NoiseModel
from repro.bfv.rotation import RotationEngine

PARAMS = {
    "toy80": BfvParameters.toy(n=16, log_q=80),
    "rns3x30": BfvParameters.toy_rns(16, 3, 30),
}


@given(
    name=st.sampled_from(sorted(PARAMS)),
    relin_bits=st.integers(min_value=8, max_value=30),
    galois_bits=st.integers(min_value=8, max_value=30),
    scalar=st.integers(min_value=1, max_value=2**16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_model_budget_never_exceeds_the_measured_one(
    name, relin_bits, galois_bits, scalar, seed,
):
    params = PARAMS[name]
    bfv = Bfv(params, seed=seed)
    keys = bfv.keygen(relin_digit_bits=relin_bits)
    rotor = RotationEngine(bfv, keys.secret, digit_bits=galois_bits)
    encoder = BatchEncoder(params)
    rng = random.Random(seed)

    def fresh():
        return bfv.encrypt(
            encoder.encode([rng.randrange(params.t) for _ in range(params.n)]),
            keys.public,
        )

    model = NoiseModel(params)
    steps = []
    x, w = fresh(), fresh()
    steps.append((x, model.fresh()))
    acc = bfv.multiply_relin(x, w, keys.relin)
    bound = model.relinearize(
        model.multiply(model.fresh(), model.fresh()), relin_bits
    )
    steps.append((acc, bound))
    for k in range(4):
        acc = bfv.add(acc, rotor.rotate_rows(acc, 2**k))
        bound = model.add(bound, model.rotate(bound, galois_bits))
        steps.append((acc, bound))
    acc = bfv.multiply_scalar(acc, scalar)
    bound = model.multiply_scalar(bound)
    steps.append((acc, bound))
    acc = bfv.add_plain(acc, encoder.encode([1] * params.n))
    bound = model.add(bound, bound)
    steps.append((acc, bound))
    for ct, modelled in steps:
        assert modelled.budget_bits(params) <= bfv.noise_budget(ct, keys.secret)
