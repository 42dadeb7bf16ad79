"""Tests for Eq. 2: reconstruction under linear server-side transforms."""

import numpy as np
import pytest

from repro.core.linear import (
    reconstruct_transformed_planes,
    secret_difference_planes,
)
from repro.core.reconstruction import correction_image
from repro.core.splitting import split_image
from repro.jpeg.codec import (
    decode_coefficients,
    encode_gray,
    gray_to_coefficients,
    rgb_to_coefficients,
)
from repro.jpeg.decoder import coefficients_to_planes, planes_to_pixels
from repro.transforms.crop import Crop
from repro.transforms.operators import Compose, FunctionOperator, Identity
from repro.transforms.resize import Resize
from repro.vision.metrics import psnr


@pytest.fixture(scope="module")
def split_setup(gray_image):
    image = decode_coefficients(encode_gray(gray_image, quality=88))
    threshold = 12
    split = split_image(image, threshold)
    original_planes = coefficients_to_planes(image, level_shift=True)
    public_planes = coefficients_to_planes(split.public, level_shift=True)
    return image, split, threshold, original_planes, public_planes


def _reconstruct(split_setup, operator):
    image, split, threshold, original_planes, public_planes = split_setup
    transformed_public = [operator(p) for p in public_planes]
    reconstructed = reconstruct_transformed_planes(
        transformed_public, split.secret, threshold, operator
    )
    target = [operator(p) for p in original_planes]
    return reconstructed, target


class TestIdentityOperator:
    def test_exact_reconstruction(self, split_setup):
        reconstructed, target = _reconstruct(split_setup, Identity())
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestCrop:
    def test_block_aligned_crop_exact(self, split_setup):
        crop = Crop(top=16, left=24, height=48, width=64)
        reconstructed, target = _reconstruct(split_setup, crop)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)

    def test_unaligned_crop_exact(self, split_setup):
        # Any crop is linear; 8x8 alignment only matters for
        # coefficient-domain shortcuts, not the pixel-domain path.
        crop = Crop(top=5, left=3, height=50, width=41)
        reconstructed, target = _reconstruct(split_setup, crop)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestResize:
    @pytest.mark.parametrize("kernel", ["box", "bilinear", "bicubic", "lanczos"])
    def test_resize_exact_per_kernel(self, split_setup, kernel):
        operator = Resize(64, 64, kernel)
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)

    def test_upscale_exact(self, split_setup):
        operator = Resize(192, 160, "bilinear")
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)

    def test_compose_resize_crop(self, split_setup):
        operator = Compose(
            operators=(Resize(96, 96, "bicubic"), Crop(8, 8, 64, 64))
        )
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestArbitraryLinearOperator:
    def test_row_averaging_operator(self, split_setup):
        matrix_rng = np.random.default_rng(4)
        mixing = matrix_rng.uniform(0, 1, (32, 128))
        mixing /= mixing.sum(axis=1, keepdims=True)
        operator = FunctionOperator(
            function=lambda plane: mixing @ plane,
            shape_map=lambda shape: (32, shape[1]),
        )
        reconstructed, target = _reconstruct(split_setup, operator)
        assert np.allclose(reconstructed[0], target[0], atol=1e-6)


class TestRealisticLossPath:
    def test_requantized_public_still_high_psnr(self, split_setup):
        """When the transformed public part goes through a real JPEG
        re-encode (the PSP serving path), reconstruction is no longer
        exact but stays perceptually lossless (paper: ~49 dB known
        transforms)."""
        from repro.jpeg.codec import decode_coefficients as dc
        from repro.jpeg.codec import encode_gray as eg

        image, split, threshold, original_planes, public_planes = split_setup
        operator = Resize(64, 64, "bilinear")
        served_pixels = np.clip(operator(public_planes[0]), 0, 255)
        served_jpeg = eg(served_pixels, quality=95)
        served_planes = coefficients_to_planes(
            dc(served_jpeg), level_shift=True
        )
        reconstructed = reconstruct_transformed_planes(
            served_planes, split.secret, threshold, operator
        )
        target = operator(original_planes[0])
        assert psnr(target, reconstructed[0]) > 40.0

    def test_shape_mismatch_detected(self, split_setup):
        image, split, threshold, _, public_planes = split_setup
        with pytest.raises(ValueError):
            reconstruct_transformed_planes(
                public_planes, split.secret, threshold, Resize(10, 10)
            )


class TestSecretDifferencePlanes:
    def test_zero_centred(self, split_setup):
        image, split, threshold, _, _ = split_setup
        planes = secret_difference_planes(split.secret, threshold)
        # Difference images are roughly zero-mean apart from DC content.
        assert planes[0].shape == (image.height, image.width)

    def test_planes_to_pixels_gray(self, split_setup):
        image, split, threshold, original_planes, _ = split_setup
        out = planes_to_pixels([original_planes[0]])
        assert out.ndim == 2
        assert out.min() >= 0.0 and out.max() <= 255.0


def _two_render_difference(secret, threshold):
    """Oracle: the secret and correction images rendered separately."""
    secret_planes = coefficients_to_planes(secret, level_shift=False)
    correction = correction_image(secret, threshold)
    correction_planes = coefficients_to_planes(correction, level_shift=False)
    return [s + c for s, c in zip(secret_planes, correction_planes)]


class TestOneRenderDifference:
    """One render of the integer sum equals the two renders, summed."""

    @pytest.fixture(params=["gray", "4:4:4", "4:2:0"])
    def image(self, request, odd_gray_image, rgb_image):
        if request.param == "gray":
            return gray_to_coefficients(odd_gray_image, quality=90)
        # Odd sizes exercise the padded block grid and chroma crop.
        return rgb_to_coefficients(
            rgb_image[:93, :77], quality=90, subsampling=request.param
        )

    @pytest.mark.parametrize("threshold", [1, 15, 50])
    def test_matches_two_render_sum(self, image, threshold):
        secret = split_image(image, threshold).secret
        expected = _two_render_difference(secret, threshold)
        planes = secret_difference_planes(secret, threshold)
        assert len(planes) == len(expected) == image.num_components
        for plane, oracle in zip(planes, expected):
            assert plane.shape == oracle.shape == (image.height, image.width)
            np.testing.assert_allclose(plane, oracle, rtol=0, atol=1e-9)

    def test_secret_part_left_unchanged(self, image):
        secret = split_image(image, 15).secret
        before = secret.copy()
        secret_difference_planes(secret, 15)
        for component, original in zip(secret.components, before.components):
            np.testing.assert_array_equal(
                component.coefficients, original.coefficients
            )
