"""Tests for color conversion and chroma subsampling."""

import numpy as np
import pytest

from repro.jpeg.color import (
    rgb_to_ycbcr,
    subsample_plane,
    upsample_plane,
    ycbcr_to_rgb,
)


class TestColorConversion:
    def test_gray_maps_to_neutral_chroma(self):
        rgb = np.full((4, 4, 3), 128, dtype=np.uint8)
        ycbcr = rgb_to_ycbcr(rgb)
        assert np.allclose(ycbcr[..., 0], 128.0)
        assert np.allclose(ycbcr[..., 1], 128.0)
        assert np.allclose(ycbcr[..., 2], 128.0)

    def test_white_luma(self):
        rgb = np.full((2, 2, 3), 255, dtype=np.uint8)
        assert np.allclose(rgb_to_ycbcr(rgb)[..., 0], 255.0)

    def test_pure_red_chroma_signs(self):
        rgb = np.zeros((1, 1, 3), dtype=np.uint8)
        rgb[..., 0] = 255
        ycbcr = rgb_to_ycbcr(rgb)
        assert ycbcr[0, 0, 2] > 128.0  # Cr up for red
        assert ycbcr[0, 0, 1] < 128.0  # Cb down for red

    def test_roundtrip_within_one_level(self):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
        assert np.max(np.abs(back.astype(int) - rgb.astype(int))) <= 1

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            rgb_to_ycbcr(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ycbcr_to_rgb(np.zeros((4, 4, 2)))


class TestSubsampling:
    def test_factor_one_is_identity(self):
        plane = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(subsample_plane(plane, 1, 1), plane)

    def test_factor_one_keeps_a_float64_channel_view(self):
        # A 4:4:4 chroma channel goes to the tiling pass, which reads
        # strided views, without a copy.
        ycbcr = rgb_to_ycbcr(np.zeros((16, 24, 3), dtype=np.uint8))
        channel = ycbcr[..., 1]
        plane = subsample_plane(channel, 1, 1)
        assert plane.dtype == np.float64
        assert np.shares_memory(plane, channel)

    def test_2x2_box_average(self):
        plane = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert subsample_plane(plane, 2, 2)[0, 0] == pytest.approx(3.0)

    def test_odd_sizes_pad_with_edge(self):
        plane = np.array([[1.0, 2.0, 3.0]])
        result = subsample_plane(plane, 1, 2)
        assert result.shape == (1, 2)
        assert result[0, 1] == pytest.approx(3.0)  # (3+3)/2 edge pad

    def test_constant_plane_invariant(self):
        plane = np.full((8, 8), 42.0)
        result = subsample_plane(plane, 2, 2)
        assert np.allclose(result, 42.0)


class TestUpsampling:
    def test_replication(self):
        plane = np.array([[1.0, 2.0]])
        up = upsample_plane(plane, 2, 2, (2, 4))
        assert np.array_equal(
            up, np.array([[1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0]])
        )

    def test_crops_to_out_shape(self):
        plane = np.ones((3, 3))
        up = upsample_plane(plane, 2, 2, (5, 5))
        assert up.shape == (5, 5)

    def test_down_up_constant_roundtrip(self):
        plane = np.full((10, 10), 7.0)
        down = subsample_plane(plane, 2, 2)
        up = upsample_plane(down, 2, 2, (10, 10))
        assert np.allclose(up, plane)
