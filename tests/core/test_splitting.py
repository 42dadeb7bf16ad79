"""Tests for the P3 threshold splitting (paper Section 3.2)."""

import numpy as np
import pytest

from repro.core.reconstruction import recombine_block_arrays
from repro.core.splitting import (
    guess_threshold,
    split_block_array,
    split_image,
)
from repro.jpeg.codec import decode_coefficients, encode_gray, encode_rgb


@pytest.fixture(scope="module")
def coefficients(request):
    rng = np.random.default_rng(11)
    image = np.clip(
        rng.normal(120, 40, (64, 64))
        + np.outer(np.linspace(0, 60, 64), np.ones(64)),
        0,
        255,
    )
    return decode_coefficients(encode_gray(image, quality=88))


class TestSplitBlockArray:
    def test_dc_goes_entirely_to_secret(self):
        coefficients = np.zeros((2, 2, 8, 8), dtype=np.int32)
        coefficients[..., 0, 0] = np.array([[-50, 3], [0, 900]])
        public, secret = split_block_array(coefficients, 10)
        assert np.all(public[..., 0, 0] == 0)
        assert np.array_equal(secret[..., 0, 0], coefficients[..., 0, 0])

    def test_below_threshold_stays_public(self):
        coefficients = np.zeros((1, 1, 8, 8), dtype=np.int32)
        coefficients[0, 0, 0, 1] = 7
        coefficients[0, 0, 1, 0] = -10
        public, secret = split_block_array(coefficients, 10)
        assert public[0, 0, 0, 1] == 7
        assert public[0, 0, 1, 0] == -10
        assert secret[0, 0, 0, 1] == 0
        assert secret[0, 0, 1, 0] == 0

    def test_above_threshold_clipped_and_extracted(self):
        coefficients = np.zeros((1, 1, 8, 8), dtype=np.int32)
        coefficients[0, 0, 0, 1] = 25
        coefficients[0, 0, 1, 0] = -25
        public, secret = split_block_array(coefficients, 10)
        # Public is clipped to +T regardless of sign (sign hiding!).
        assert public[0, 0, 0, 1] == 10
        assert public[0, 0, 1, 0] == 10
        assert secret[0, 0, 0, 1] == 15
        assert secret[0, 0, 1, 0] == -15

    def test_exactly_threshold_is_public(self):
        coefficients = np.zeros((1, 1, 8, 8), dtype=np.int32)
        coefficients[0, 0, 2, 3] = 10
        public, secret = split_block_array(coefficients, 10)
        assert public[0, 0, 2, 3] == 10
        assert secret[0, 0, 2, 3] == 0

    def test_sign_never_leaks_to_public(self):
        rng = np.random.default_rng(0)
        coefficients = rng.integers(-500, 500, (4, 4, 8, 8)).astype(np.int32)
        public, _ = split_block_array(coefficients, 15)
        ac_public = public.copy()
        ac_public[..., 0, 0] = 0
        # All AC values in the public part are in [-T, T].
        assert ac_public.max() <= 15
        assert ac_public.min() >= -15
        # And clipped positions are exactly +T (never -T).
        above = np.abs(coefficients) > 15
        above[..., 0, 0] = False
        assert np.all(public[above] == 15)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            split_block_array(np.zeros((1, 1, 8, 8), dtype=np.int32), 0)

    def test_negative_map_entry_refused(self):
        """A negative entry would not invert: recombination would turn
        every zero AC of its block into that entry."""
        coefficients = np.zeros((2, 2, 8, 8), dtype=np.int32)
        thresholds = np.array([[4, 4], [-3, 4]])
        with pytest.raises(ValueError, match=r"entry -3 at block \(1, 0\)"):
            split_block_array(coefficients, thresholds)

    def test_zero_map_entry_inverts(self):
        rng = np.random.default_rng(3)
        coefficients = rng.integers(-40, 40, (2, 2, 8, 8)).astype(np.int32)
        thresholds = np.array([[0, 4], [9, 0]])
        public, secret = split_block_array(coefficients, thresholds)
        assert np.array_equal(
            recombine_block_arrays(public, secret, thresholds), coefficients
        )


class TestSplitImage:
    def test_both_parts_keep_geometry(self, coefficients):
        split = split_image(coefficients, 15)
        assert split.public.same_geometry(coefficients)
        assert split.secret.same_geometry(coefficients)

    def test_both_parts_keep_quant_tables(self, coefficients):
        split = split_image(coefficients, 15)
        assert split.public.same_quantization(coefficients)
        assert split.secret.same_quantization(coefficients)

    def test_higher_threshold_smaller_secret(self, coefficients):
        sizes = []
        for threshold in (1, 5, 20, 80):
            split = split_image(coefficients, threshold)
            sizes.append(split.secret.total_nonzero())
        assert sizes == sorted(sizes, reverse=True)

    def test_color_split_covers_all_components(self):
        rng = np.random.default_rng(5)
        rgb = rng.integers(0, 256, (40, 40, 3)).astype(np.uint8)
        image = decode_coefficients(encode_rgb(rgb, quality=90))
        split = split_image(image, 10)
        assert split.public.num_components == 3
        for component in split.public.components:
            assert np.all(component.coefficients[..., 0, 0] == 0)

    def test_storage_fractions_sum_to_one(self, coefficients):
        split = split_image(coefficients, 15)
        public_fraction, secret_fraction = split.storage_fractions()
        assert public_fraction + secret_fraction == pytest.approx(1.0)


class TestThresholdGuess:
    def test_attacker_recovers_threshold(self, coefficients):
        # Section 3.4: T is the most frequent nonzero AC value in the
        # public part — for natural images with enough clipped values.
        split = split_image(coefficients, 5)
        assert guess_threshold(split.public) == 5

    def test_guess_returns_zero_for_empty(self):
        from repro.jpeg.structures import CoefficientImage, ComponentInfo

        component = ComponentInfo(
            identifier=1,
            h_sampling=1,
            v_sampling=1,
            quant_table=np.ones((8, 8), dtype=np.int32),
            coefficients=np.zeros((1, 1, 8, 8), dtype=np.int32),
        )
        empty = CoefficientImage(width=8, height=8, components=[component])
        assert guess_threshold(empty) == 0
