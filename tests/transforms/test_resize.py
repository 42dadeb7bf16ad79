"""Tests for separable resampling."""

import numpy as np
import pytest

from repro.transforms.operators import check_linearity
from repro.transforms.resize import (
    KERNELS,
    Resize,
    _weight_matrix,
    fit_within,
    resize_plane,
    resize_rgb,
)


class TestResizePlane:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_output_shape(self, kernel):
        plane = np.random.default_rng(0).uniform(0, 255, (40, 56))
        out = resize_plane(plane, 13, 29, kernel)
        assert out.shape == (13, 29)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_constant_preserved(self, kernel):
        plane = np.full((32, 32), 99.5)
        out = resize_plane(plane, 13, 21, kernel)
        assert np.allclose(out, 99.5, atol=1e-9)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_identity_size_close_to_input(self, kernel):
        rng = np.random.default_rng(1)
        plane = rng.uniform(0, 255, (24, 24))
        out = resize_plane(plane, 24, 24, kernel)
        # box/bilinear at identical grid positions are exact; others
        # interpolate at the same centres too.
        assert np.allclose(out, plane, atol=1e-6)

    def test_downscale_averages(self):
        plane = np.zeros((4, 4))
        plane[:, 2:] = 100.0
        out = resize_plane(plane, 1, 2, "box")
        assert out[0, 0] == pytest.approx(0.0)
        assert out[0, 1] == pytest.approx(100.0)

    def test_gradient_upscale_monotone(self):
        plane = np.outer(np.ones(8), np.arange(8.0))
        out = resize_plane(plane, 8, 32, "bilinear")
        differences = np.diff(out[0])
        assert np.all(differences >= -1e-9)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_linearity(self, kernel):
        operator = Resize(15, 18, kernel)
        rng = np.random.default_rng(2)
        assert check_linearity(operator, (30, 44), rng)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            resize_plane(np.zeros((8, 8)), 4, 4, "nearest-ish")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            resize_plane(np.zeros((8, 8)), 0, 4)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            resize_plane(np.zeros((8, 8, 3)), 4, 4)


def _dense(plane, out_height, out_width, kernel):
    """Oracle: the plain weight-matrix product, no shortcut."""
    rows = _weight_matrix(plane.shape[0], out_height, kernel)
    cols = _weight_matrix(plane.shape[1], out_width, kernel)
    return rows @ plane.astype(np.float64) @ cols.T


class TestEqualSize:
    """Same-size resizes skip the multiplies only where they are exact."""

    @pytest.mark.parametrize("shape", [(1, 1), (75, 75), (64, 48), (512, 512)])
    @pytest.mark.parametrize("kernel", ["box", "bilinear", "bicubic"])
    def test_identity_kernels_bitwise_equal_dense(self, kernel, shape):
        plane = np.random.default_rng(5).uniform(-255.0, 255.0, shape)
        out = resize_plane(plane, *shape, kernel)
        assert out.dtype == np.float64
        assert out.tobytes() == _dense(plane, *shape, kernel).tobytes()

    @pytest.mark.parametrize("shape", [(75, 75), (64, 48)])
    def test_lanczos_keeps_the_dense_product(self, shape):
        plane = np.random.default_rng(6).uniform(-255.0, 255.0, shape)
        out = resize_plane(plane, *shape, "lanczos")
        assert out.tobytes() == _dense(plane, *shape, "lanczos").tobytes()
        # The off-diagonal ~3e-17 weights make it differ from a copy.
        assert not np.array_equal(out, plane)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_returns_a_new_array(self, kernel):
        plane = np.random.default_rng(7).uniform(0.0, 255.0, (16, 24))
        original = plane.copy()
        out = resize_plane(plane, 16, 24, kernel)
        assert out is not plane
        out[...] = -1.0
        np.testing.assert_array_equal(plane, original)

    def test_uint8_input_comes_back_float64(self):
        plane = np.arange(48, dtype=np.uint8).reshape(6, 8)
        out = resize_plane(plane, 6, 8, "bilinear")
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, plane)
        out[0, 0] = 300.0
        assert plane[0, 0] == 0

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resize_plane(np.zeros((8, 8)), 8, 8, "nearest-ish")


class TestResizeRgb:
    def test_dtype_and_shape(self):
        rng = np.random.default_rng(3)
        rgb = rng.integers(0, 256, (32, 48, 3)).astype(np.uint8)
        out = resize_rgb(rgb, 16, 24)
        assert out.shape == (16, 24, 3)
        assert out.dtype == np.uint8

    def test_antialiasing_reduces_aliasing_energy(self):
        # A fine checkerboard downsampled 4x: the antialiased result must
        # be close to the mean, not to either extreme.
        pattern = np.indices((64, 64)).sum(axis=0) % 2 * 255.0
        out = resize_plane(pattern, 16, 16, "bilinear")
        assert abs(out.mean() - 127.5) < 4.0
        assert out.std() < 35.0


class TestFitWithin:
    @pytest.mark.parametrize(
        "in_size,box,expected",
        [
            ((1000, 500), (720, 720), (720, 360)),
            ((500, 1000), (720, 720), (360, 720)),
            ((100, 100), (720, 720), (100, 100)),  # never upscale
            ((130, 130), (130, 130), (130, 130)),
        ],
    )
    def test_examples(self, in_size, box, expected):
        assert fit_within(*in_size, *box) == expected

    def test_aspect_preserved(self):
        height, width = fit_within(900, 600, 300, 300)
        assert height / width == pytest.approx(1.5, rel=0.02)
