"""Tests for the energy-adaptive threshold extension."""

import numpy as np
import pytest

from repro.core.adaptive import block_energy_thresholds, split_image_adaptive
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

    def test_adaptive_secret_under_2_5x_fixed_nonzeros(self, coefficients):
        """The adaptive secret part is not wildly bigger than the
        fixed-threshold secret at the same base T."""
        fixed = split_image(coefficients, 15)
        adaptive = split_image_adaptive(coefficients, 15)
        assert (
            adaptive.secret.total_nonzero()
            < 2.5 * fixed.secret.total_nonzero()
        )

    def test_invalid_base_threshold(self, coefficients):
        with pytest.raises(ValueError):
            split_image_adaptive(coefficients, 0)

