"""The core's one Eq. 1 against the separate forms it replaced.

``tests/core/oracles.py`` keeps the fixed-threshold split and
recombination, the correction image and the per-block (threshold map)
split and recombination as they were before they became one path.
Production must return their arrays: the same values and the same
dtype, for one T and for per-block maps alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.linear import secret_difference_planes
from repro.core.reconstruction import (
    correction_image,
    recombine_block_arrays,
)
from repro.core.splitting import split_block_array, split_image
from repro.jpeg.codec import rgb_to_coefficients
from repro.jpeg.decoder import coefficients_to_planes
from repro.jpeg.structures import CoefficientImage, ComponentInfo
from tests.core import oracles

LIMIT = 32767


@st.composite
def block_arrays(draw, blocks=None):
    """``(by, bx, 8, 8)`` int32 coefficients within +-32767 on a grid
    from 1x1 to 4x5 (or the given one)."""
    by, bx = blocks or (draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    scale = draw(st.sampled_from([1, 16, 255, 2047, LIMIT]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(-scale, scale + 1, (by, bx, 8, 8)).astype(np.int32)


@st.composite
def threshold_maps(draw, blocks):
    """A ``(by, bx)`` map of per-block thresholds in 0..255."""
    values = draw(
        st.lists(
            st.integers(0, 255),
            min_size=blocks[0] * blocks[1],
            max_size=blocks[0] * blocks[1],
        )
    )
    dtype = draw(st.sampled_from([np.int32, np.uint8]))
    return np.array(values, dtype=dtype).reshape(blocks)


@st.composite
def mapped_arrays(draw):
    """A block array and a threshold map for its grid."""
    coefficients = draw(block_arrays())
    return coefficients, draw(threshold_maps(coefficients.shape[:2]))


@st.composite
def recombine_inputs(draw):
    """Public and secret arrays of one shape, each within +-32767."""
    public = draw(block_arrays())
    return public, draw(block_arrays(blocks=public.shape[:2]))


def assert_same(got, expected):
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def as_image(coefficients):
    component = ComponentInfo(
        identifier=1,
        h_sampling=1,
        v_sampling=1,
        quant_table=np.ones((8, 8), dtype=np.int32),
        coefficients=coefficients,
    )
    by, bx = coefficients.shape[:2]
    return CoefficientImage(width=8 * bx, height=8 * by, components=[component])


def assert_same_image(got, expected):
    assert (got.width, got.height, got.progressive) == (
        expected.width,
        expected.height,
        expected.progressive,
    )
    for a, b in zip(got.components, expected.components, strict=True):
        assert (a.identifier, a.h_sampling, a.v_sampling) == (
            b.identifier,
            b.h_sampling,
            b.v_sampling,
        )
        assert_same(a.quant_table, b.quant_table)
        assert_same(a.coefficients, b.coefficients)


class TestSplit:
    @given(block_arrays(), st.integers(1, 2047))
    @settings(max_examples=150, deadline=None)
    def test_one_threshold(self, coefficients, threshold):
        got = split_block_array(coefficients, threshold)
        expected = oracles.split_block_array(coefficients, threshold)
        for half, oracle in zip(got, expected, strict=True):
            assert_same(half, oracle)

    @given(mapped_arrays())
    @settings(max_examples=150, deadline=None)
    def test_threshold_map(self, case):
        coefficients, thresholds = case
        got = split_block_array(coefficients, thresholds)
        expected = oracles.split_block_array_mapped(coefficients, thresholds)
        for half, oracle in zip(got, expected, strict=True):
            assert_same(half, oracle)


class TestRecombine:
    @given(recombine_inputs(), st.integers(0, 2047))
    @settings(max_examples=150, deadline=None)
    def test_one_threshold(self, parts, threshold):
        public, secret = parts
        assert_same(
            recombine_block_arrays(public, secret, threshold),
            oracles.recombine_block_arrays(public, secret, threshold),
        )

    @given(recombine_inputs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_threshold_map(self, parts, data):
        public, secret = parts
        thresholds = data.draw(threshold_maps(public.shape[:2]))
        assert_same(
            recombine_block_arrays(public, secret, thresholds),
            oracles.recombine_block_arrays_mapped(public, secret, thresholds),
        )

    @given(mapped_arrays())
    @settings(max_examples=60, deadline=None)
    def test_map_split_inverts(self, case):
        coefficients, thresholds = case
        public, secret = split_block_array(coefficients, thresholds)
        assert_same(
            recombine_block_arrays(public, secret, thresholds), coefficients
        )


class TestCorrection:
    @given(block_arrays(), st.integers(0, 2047))
    @settings(max_examples=150, deadline=None)
    def test_block_array(self, secret, threshold):
        image = as_image(secret)
        assert_same_image(
            correction_image(image, threshold),
            oracles.correction_image(image, threshold),
        )

    @pytest.fixture(params=["4:4:4", "4:2:0"])
    def image(self, request, rgb_image):
        return rgb_to_coefficients(
            rgb_image[:93, :77], quality=90, subsampling=request.param
        )

    @pytest.mark.parametrize("threshold", [1, 15, 50])
    def test_correction_image(self, image, threshold):
        secret = split_image(image, threshold).secret
        assert_same_image(
            correction_image(secret, threshold),
            oracles.correction_image(secret, threshold),
        )

    @pytest.mark.parametrize("threshold", [1, 15, 50])
    def test_secret_difference_planes(self, image, threshold):
        secret = split_image(image, threshold).secret
        difference = oracles.correction_image(secret, threshold)
        for component, secret_component in zip(
            difference.components, secret.components
        ):
            component.coefficients += secret_component.coefficients
        expected = coefficients_to_planes(difference, level_shift=False)
        got = secret_difference_planes(secret, threshold)
        for plane, oracle in zip(got, expected, strict=True):
            assert_same(plane, oracle)
