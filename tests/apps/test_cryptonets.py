"""Functional tests for the miniature CryptoNets network."""

import random

import pytest

from repro.apps.cryptonets import MiniCryptoNets, NetworkSpec


@pytest.fixture(scope="module")
def net():
    return MiniCryptoNets(seed=7)


@pytest.fixture(scope="module")
def images(net):
    rng = random.Random(21)
    size = net.spec.image_size ** 2
    return [[rng.randint(0, 2) for _ in range(size)] for _ in range(5)]


@pytest.mark.slow
class TestEncryptedInference:
    def test_matches_plaintext_network(self, net, images):
        assert net.infer(images) == net.infer_plain(images)

    def test_classification(self, net, images):
        scores = net.infer_plain(images)
        labels = net.classify(scores)
        assert all(label in range(net.spec.classes) for label in labels)

class TestSpecAndValidation:
    def test_conv_output_size(self):
        spec = NetworkSpec(image_size=6, conv_kernel=3, conv_stride=2)
        assert spec.conv_out == 2

    def test_circuit_op_mix_matches_spec(self, net):
        counts = net.to_circuit().op_counts()
        expected = net.spec.op_counts()
        for key in ("ct_pt_mults", "ct_ct_adds", "ct_ct_mults"):
            assert counts[key] == expected[key]

    def test_op_counts_structure(self):
        spec = NetworkSpec()
        counts = spec.op_counts()
        # two square layers: conv units + hidden units
        conv_units = spec.conv_maps * spec.conv_out**2
        assert counts["ct_ct_mults"] == conv_units + spec.hidden

    def test_batch_limited_by_slots(self, net):
        assert net.batch_size == net.params.n

    def test_wrong_image_size_rejected(self, net):
        with pytest.raises(ValueError, match="pixels"):
            net.encrypt_images([[1, 2, 3]])

    def test_oversized_batch_rejected(self, net):
        size = net.spec.image_size ** 2
        too_many = [[0] * size] * (net.batch_size + 1)
        with pytest.raises(ValueError, match="batch"):
            net.encrypt_images(too_many)
