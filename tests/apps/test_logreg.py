"""Functional tests for the miniature encrypted logistic regression."""

import random

import pytest

from repro.apps.logreg import MiniLogisticRegression


@pytest.fixture(scope="module")
def model():
    return MiniLogisticRegression(seed=11)


@pytest.fixture(scope="module")
def samples(model):
    rng = random.Random(31)
    return [
        [rng.randint(-3, 3) for _ in range(model.num_features)]
        for _ in range(12)
    ]


@pytest.mark.slow
class TestEncryptedInference:
    def test_predictions_match_plaintext(self, model, samples):
        assert model.predict(samples) == model.predict_plain(samples)

    def test_linear_only_path(self, model, samples):
        """Without the cubic surrogate the sign decision is identical."""
        assert model.predict(samples, use_sigmoid=False) == model.predict_plain(samples)

    def test_sigmoid_surrogate_uses_ct_ct(self, model):
        """Square + cube with the surrogate, no tensor without it."""
        assert model.to_circuit(4).op_counts()["ct_ct_mults"] == 2
        assert model.to_circuit(
            4, use_sigmoid=False).op_counts()["ct_ct_mults"] == 0


class TestValidation:
    def test_feature_count_enforced(self, model):
        with pytest.raises(ValueError, match="features"):
            model.encrypt_features([[1, 2]])

    def test_batch_limit(self, model):
        too_many = [[0] * model.num_features] * (model.batch_size + 1)
        with pytest.raises(ValueError, match="batch"):
            model.encrypt_features(too_many)

    def test_needs_at_least_one_feature(self):
        with pytest.raises(ValueError):
            MiniLogisticRegression(num_features=0)

    def test_surrogate_preserves_sign_plain(self, model):
        """3s + s^3 has the same sign as s for every integer s."""
        for s in range(-100, 101):
            g = 3 * s + s**3
            assert (g > 0) == (s > 0) and (g < 0) == (s < 0)
