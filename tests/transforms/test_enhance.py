"""Tests for enhancement operations."""

import numpy as np
import pytest
from scipy import ndimage

from repro.transforms.enhance import (
    adjust_contrast,
    adjust_gamma,
    gaussian_blur,
    sharpen,
    unsharp_mask,
)


class TestGaussianBlur:
    def test_preserves_constant(self):
        assert np.allclose(gaussian_blur(np.full((16, 16), 42.0), 2.0), 42.0)

    def test_reduces_variance(self):
        rng = np.random.default_rng(0)
        plane = rng.normal(128, 30, (32, 32))
        assert gaussian_blur(plane, 1.5).std() < plane.std()

    def test_sigma_zero_identity(self):
        plane = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(gaussian_blur(plane, 0.0), plane)


def _planes(shape, seed):
    """A random float plane, an integer-valued float plane, a uint8 one."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 256, shape)
    return {
        "random": rng.normal(128.0, 60.0, shape),
        "integer": levels.astype(np.float64),
        "uint8": levels.astype(np.uint8),
    }


class TestNdimageOracle:
    """The numpy blur is ndimage's ``gaussian_filter`` bit for bit."""

    SIGMAS = (0.5, 1.0, 1.5, 2.5)
    # 1x1 to 3x3 are smaller than every radius here (2 to 10).
    SHAPES = ((1, 1), (1, 17), (17, 1), (3, 3), (75, 75), (130, 97), (512, 512))

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_blur_equals_gaussian_filter(self, sigma, shape):
        for kind, plane in _planes(shape, seed=shape[0] * 1000 + shape[1]).items():
            expected = ndimage.gaussian_filter(
                plane.astype(np.float64), sigma=sigma, mode="nearest"
            )
            assert np.array_equal(gaussian_blur(plane, sigma), expected), kind

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_unsharp_mask_equals_ndimage_expression(self, sigma, shape):
        amount = 0.4
        for kind, plane in _planes(shape, seed=shape[0] + shape[1]).items():
            as_float = plane.astype(np.float64)
            blurred = ndimage.gaussian_filter(
                as_float, sigma=sigma, mode="nearest"
            )
            expected = as_float + amount * (plane - blurred)
            produced = unsharp_mask(plane, radius=sigma, amount=amount)
            assert np.array_equal(produced, expected), kind


    @pytest.mark.parametrize("shape", ((1, 1), (2, 9), (9, 16), (40, 33)))
    def test_strided_views(self, shape):
        """A channel of an interleaved image and reversed or transposed
        planes blur as their C-ordered copies do."""
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        interleaved = rng.integers(0, 256, (*shape, 3)).astype(np.uint8)
        transposed = np.ascontiguousarray(rng.normal(128, 60, shape).T).T
        for plane in (interleaved[..., 1], transposed, transposed[::-1, ::-1]):
            as_float = plane.astype(np.float64)
            blurred = ndimage.gaussian_filter(as_float, sigma=1.0, mode="nearest")
            assert np.array_equal(gaussian_blur(plane, 1.0), blurred)
            expected = as_float + 0.4 * (plane - blurred)
            assert np.array_equal(unsharp_mask(plane, 1.0, 0.4), expected)

    def test_unsharp_mask_without_radius(self):
        """``radius <= 0`` blurs nothing: the mask adds zero."""
        plane = np.random.default_rng(2).normal(128, 60, (5, 7))
        expected = plane + 0.4 * (plane - plane.copy())
        assert np.array_equal(unsharp_mask(plane, radius=0.0, amount=0.4), expected)


class TestUnsharpMask:
    def test_amount_zero_identity(self):
        plane = np.arange(64.0).reshape(8, 8)
        assert np.array_equal(unsharp_mask(plane, amount=0.0), plane)

    def test_increases_edge_contrast(self):
        plane = np.zeros((16, 16))
        plane[:, 8:] = 100.0
        sharpened = sharpen(plane, amount=1.0)
        # Overshoot on both sides of the step edge.
        assert sharpened[:, 7].max() < 0 + 1e-9 or sharpened.min() < 0.0
        assert sharpened.max() > 100.0

    def test_is_linear(self):
        from repro.transforms.operators import check_linearity
        from repro.system.reverse import SharpenOperator

        rng = np.random.default_rng(1)
        assert check_linearity(SharpenOperator(amount=0.7), (20, 20), rng)

    def test_preserves_constant(self):
        plane = np.full((12, 12), 50.0)
        assert np.allclose(unsharp_mask(plane, amount=0.8), 50.0)


class TestGamma:
    def test_gamma_one_identity(self):
        plane = np.linspace(0, 255, 64).reshape(8, 8)
        assert np.allclose(adjust_gamma(plane, 1.0), plane)

    def test_gamma_below_one_brightens(self):
        plane = np.full((4, 4), 64.0)
        assert adjust_gamma(plane, 0.5).mean() > plane.mean()

    def test_endpoints_fixed(self):
        plane = np.array([[0.0, 255.0]])
        out = adjust_gamma(plane, 2.2)
        assert out[0, 0] == pytest.approx(0.0)
        assert out[0, 1] == pytest.approx(255.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            adjust_gamma(np.zeros((2, 2)), 0.0)

    def test_gamma_is_nonlinear(self):
        # This nonlinearity is precisely why gamma is excluded from the
        # Eq. 2 operator (see repro.system.reverse).
        a = np.full((4, 4), 50.0)
        b = np.full((4, 4), 150.0)
        assert not np.allclose(
            adjust_gamma(a + b, 2.0),
            adjust_gamma(a, 2.0) + adjust_gamma(b, 2.0),
        )


class TestContrast:
    def test_factor_one_identity_inside_range(self):
        plane = np.full((4, 4), 100.0)
        assert np.allclose(adjust_contrast(plane, 1.0), plane)

    def test_expansion_clips(self):
        plane = np.array([[0.0, 255.0]])
        out = adjust_contrast(plane, 2.0)
        assert out[0, 0] == 0.0
        assert out[0, 1] == 255.0
