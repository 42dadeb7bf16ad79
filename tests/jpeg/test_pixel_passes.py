"""The kernel's pixel passes against the numpy forms they replaced.

Colour conversion both ways, the level shift with 8x8 tiling,
quantization and the provider's float-to-uint8 packing each run as one
C loop (``repro.jpeg.native.pixels``); each must equal its oracle in
``tests/jpeg/oracles.py`` bit for bit on 1x1, 1xN and odd-sized planes,
strided channel views, values at exact .5 ties and values outside
[0, 255].  The blur and unsharp mask are diffed against ndimage in
``tests/transforms/test_enhance.py``.
"""

import platform

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.jpeg.codec import _plane_to_component
from repro.jpeg.color import rgb_to_ycbcr, ycbcr_to_rgb
from repro.jpeg.dct import forward_dct
from repro.jpeg.native.pixels import planes_to_rgb8, tile_blocks
from repro.jpeg.quantization import luminance_table, quantize
from tests.jpeg.oracles import (
    numpy_level_shift_blocks,
    numpy_pack_rgb8,
    numpy_quantize,
    textbook_rgb_to_ycbcr,
    textbook_ycbcr_to_rgb,
)

#: 1x1, single rows and columns, and sizes on either side of the
#: 8-sample tile and the kernel's 8-wide chunks.
SHAPES = [(1, 1), (1, 13), (13, 1), (7, 9), (8, 8), (9, 17), (24, 31)]


def assert_bitwise_equal(ours, theirs):
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def levels(shape, seed, low=-300.0, high=600.0):
    """Floats over and beyond [0, 255], a third of them at exact x.5."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, shape)
    ties = rng.random(shape) < 1 / 3
    values[ties] = np.floor(values[ties]) + 0.5
    return values


def strided_views(shape, seed):
    """The same values as a C-ordered array, a channel of an interleaved
    image, a reversed and a transposed view."""
    height, width = shape
    base = levels(shape, seed)
    interleaved = np.zeros((height, width, 3))
    interleaved[..., 1] = base
    reversed_copy = np.ascontiguousarray(base[::-1, ::-1])
    transposed_copy = np.ascontiguousarray(base.T)
    return {
        "contiguous": base,
        "channel": interleaved[..., 1],
        "reversed": reversed_copy[::-1, ::-1],
        "transposed": transposed_copy.T,
    }


class TestColour:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64, np.float32, np.int16])
    def test_rgb_to_ycbcr_matches_textbook(self, shape, dtype):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        if dtype == np.uint8:
            rgb = rng.integers(0, 256, (*shape, 3)).astype(np.uint8)
        else:
            rgb = levels((*shape, 3), shape[1]).astype(dtype)
        assert_bitwise_equal(rgb_to_ycbcr(rgb), textbook_rgb_to_ycbcr(rgb))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rgb_to_ycbcr_reads_strided_views(self, shape):
        rng = np.random.default_rng(shape[0] + 7 * shape[1])
        wide = rng.integers(0, 256, (shape[0], shape[1], 5)).astype(np.uint8)
        views = [
            wide[..., 1:4],  # channels of a wider pixel
            wide[::-1, :, 4:1:-1],  # rows and channels reversed
            np.ascontiguousarray(wide[..., :3].swapaxes(0, 1)).swapaxes(0, 1),
            wide[..., :3].astype(np.float64)[:, ::-1],
        ]
        for rgb in views:
            assert_bitwise_equal(rgb_to_ycbcr(rgb), textbook_rgb_to_ycbcr(rgb))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ycbcr_to_rgb_image_and_planes_match_textbook(self, shape):
        ycbcr = levels((*shape, 3), shape[0] * 5 + shape[1])
        expected = textbook_ycbcr_to_rgb(ycbcr)
        assert_bitwise_equal(ycbcr_to_rgb(ycbcr), expected)
        planes = [ycbcr[..., c] for c in range(3)]
        assert_bitwise_equal(ycbcr_to_rgb(planes), expected)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ycbcr_to_rgb_planes_with_mixed_strides(self, shape):
        views = strided_views(shape, seed=shape[1])
        planes = [views["channel"], views["reversed"], views["transposed"]]
        expected = textbook_ycbcr_to_rgb(np.stack(planes, axis=-1))
        assert_bitwise_equal(ycbcr_to_rgb(planes), expected)
        cropped = [np.pad(p, ((0, 3), (0, 5)))[: shape[0], : shape[1]] for p in planes]
        assert_bitwise_equal(ycbcr_to_rgb(cropped), expected)

    def test_clip_and_round_at_the_edges(self):
        """Neutral chroma keeps R = G = B = Y: ties round to even, and
        values past either end clip."""
        luma = np.array(
            [-1e9, -0.5, -0.0, 0.5, 1.5, 2.5, 254.5, 255.0, 255.5, 256.0, 1e9]
        )
        neutral = np.full_like(luma, 128.0)
        rgb = ycbcr_to_rgb([luma[np.newaxis], neutral[np.newaxis], neutral[np.newaxis]])
        assert rgb[0, :, 0].tolist() == [0, 0, 0, 0, 2, 2, 254, 255, 255, 255, 255]
        assert_bitwise_equal(
            rgb, textbook_ycbcr_to_rgb(np.stack([luma, neutral, neutral], -1)[np.newaxis])
        )

    def test_rejects_mismatched_planes(self):
        with pytest.raises(ValueError):
            ycbcr_to_rgb([np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 5))])
        with pytest.raises(ValueError):
            ycbcr_to_rgb([np.zeros((4, 4)), np.zeros((4, 4))])


class TestTiling:
    @pytest.mark.parametrize("shape", SHAPES + [(17, 1), (1, 8), (16, 24)])
    def test_level_shift_blocks_match_numpy(self, shape):
        for plane in strided_views(shape, seed=shape[0] * 3 + shape[1]).values():
            assert_bitwise_equal(
                tile_blocks(plane), numpy_level_shift_blocks(plane)
            )

    def test_uint8_plane(self):
        plane = np.random.default_rng(4).integers(0, 256, (11, 21)).astype(np.uint8)
        assert_bitwise_equal(tile_blocks(plane), numpy_level_shift_blocks(plane))

    def test_component_from_a_channel_view(self):
        """What ``rgb_to_coefficients`` hands over: a channel of the
        interleaved YCbCr image."""
        rgb = np.random.default_rng(5).integers(0, 256, (37, 45, 3)).astype(np.uint8)
        channel = rgb_to_ycbcr(rgb)[..., 0]
        table = luminance_table(85)
        component = _plane_to_component(channel, 1, 1, 1, table)
        expected = numpy_quantize(forward_dct(numpy_level_shift_blocks(channel)), table)
        assert_bitwise_equal(component.coefficients, expected)


quant_tables = arrays(np.int32, (8, 8), elements=st.integers(1, 255))


class TestQuantize:
    @given(
        table=quant_tables,
        steps=arrays(np.int64, (3, 8, 8), elements=st.integers(-2048, 2048)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ties_and_fractions_match_numpy(self, table, steps, data):
        """``(k + 1/2) * t`` is an exact tie for every integer k; the
        other draws land anywhere between."""
        tie = (steps + 0.5) * table
        fraction = data.draw(
            arrays(
                np.float64,
                (3, 8, 8),
                elements=st.floats(-4096.0, 4096.0, allow_nan=False),
            )
        )
        for coefficients in (tie, fraction, -tie, np.zeros((1, 8, 8)), -np.zeros((1, 8, 8))):
            assert_bitwise_equal(
                quantize(coefficients, table), numpy_quantize(coefficients, table)
            )

    def test_ties_round_away_from_zero(self):
        table = np.ones((8, 8), dtype=np.int32)
        coefficients = np.full((2, 8, 8), 2.5)
        coefficients[1] = -2.5
        assert quantize(coefficients, table)[:, 0, 0].tolist() == [3, -3]

    def test_layouts_and_dtypes(self):
        rng = np.random.default_rng(6)
        table = luminance_table(50)
        blocks = rng.normal(0, 300, (4, 5, 8, 8))
        for coefficients in (
            blocks,
            blocks.swapaxes(0, 1),
            blocks[:, ::-1],
            blocks.astype(np.float32),
            np.round(blocks).astype(np.int32),
        ):
            assert_bitwise_equal(
                quantize(coefficients, table), numpy_quantize(coefficients, table)
            )

    def test_magnitude_past_int32(self):
        """Past int32 (and NaN) the kernel stores INT32_MIN, what numpy's
        cast stores on x86-64; the encoders then refuse the value."""
        table = np.ones((8, 8), dtype=np.int32)
        coefficients = np.zeros((1, 8, 8))
        coefficients[0, 0, :4] = [3e9, -3e9, np.nan, 2147483647.0]
        out = quantize(coefficients, table)[0, 0, :4].tolist()
        assert out == [-(2**31), -(2**31), -(2**31), 2**31 - 1]
        if platform.machine() in ("x86_64", "AMD64"):
            with np.errstate(invalid="ignore"):
                expected = numpy_quantize(coefficients, table)
            assert_bitwise_equal(quantize(coefficients, table), expected)

    def test_rejects_non_block_shapes(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((4, 8)), np.ones((8, 8)))


class TestPacking:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_clip_stack_round_cast(self, shape):
        views = strided_views(shape, seed=shape[0] * 11 + shape[1])
        planes = [views["contiguous"], views["channel"], views["transposed"]]
        assert_bitwise_equal(planes_to_rgb8(planes), numpy_pack_rgb8(planes))
        crops = [view[: shape[0] // 2 + 1, 1:] for view in views.values()][:3]
        assert_bitwise_equal(planes_to_rgb8(crops), numpy_pack_rgb8(crops))

    def test_one_plane_three_times_rounds(self):
        """How the provider makes an RGB image of a grey upload."""
        luma = np.array([[-3.0, 0.49, 0.5, 1.5, 127.6, 254.5, 300.0]])
        rgb = planes_to_rgb8([luma] * 3)
        assert rgb[0, :, 0].tolist() == [0, 0, 0, 2, 128, 254, 255]
        assert_bitwise_equal(rgb, numpy_pack_rgb8([luma] * 3))
