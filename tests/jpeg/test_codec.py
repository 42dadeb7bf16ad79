"""Codec round-trip tests: pixels <-> bytes <-> coefficients."""

import numpy as np
import pytest

from repro.jpeg import codec
from repro.jpeg.structures import CoefficientImage
from repro.vision.metrics import psnr


class TestGrayRoundTrip:
    def test_bytes_start_with_soi(self, gray_image):
        data = codec.encode_gray(gray_image, quality=85)
        assert data[:2] == b"\xff\xd8"
        assert data[-2:] == b"\xff\xd9"

    def test_decode_close_to_original(self, gray_image):
        data = codec.encode_gray(gray_image, quality=90)
        decoded = codec.decode(data)
        assert decoded.shape == gray_image.shape
        assert psnr(gray_image, decoded) > 30.0

    def test_higher_quality_smaller_error(self, gray_image):
        low = codec.decode(codec.encode_gray(gray_image, quality=40))
        high = codec.decode(codec.encode_gray(gray_image, quality=95))
        assert psnr(gray_image, high) > psnr(gray_image, low)

    def test_higher_quality_bigger_file(self, gray_image):
        small = codec.encode_gray(gray_image, quality=40)
        big = codec.encode_gray(gray_image, quality=95)
        assert len(big) > len(small)

    def test_odd_dimensions(self, odd_gray_image):
        data = codec.encode_gray(odd_gray_image, quality=90)
        decoded = codec.decode(data)
        assert decoded.shape == odd_gray_image.shape
        assert psnr(odd_gray_image, decoded) > 30.0

    def test_tiny_image(self):
        image = np.full((3, 5), 77.0)
        decoded = codec.decode(codec.encode_gray(image, quality=90))
        assert decoded.shape == (3, 5)
        assert np.allclose(decoded, 77.0, atol=3.0)

    def test_flat_image_compresses_tightly(self):
        image = np.full((64, 64), 128.0)
        data = codec.encode_gray(image, quality=85)
        assert len(data) < 1200


class TestColorRoundTrip:
    @pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:2", "4:2:0"])
    def test_roundtrip(self, rgb_image, subsampling):
        data = codec.encode_rgb(rgb_image, quality=92, subsampling=subsampling)
        decoded = codec.decode(data)
        assert decoded.shape == rgb_image.shape
        assert decoded.dtype == np.uint8
        assert psnr(rgb_image, decoded) > 20.0

    def test_subsampling_shrinks_file(self, rgb_image):
        full = codec.encode_rgb(rgb_image, quality=92, subsampling="4:4:4")
        sub = codec.encode_rgb(rgb_image, quality=92, subsampling="4:2:0")
        assert len(sub) < len(full)

    def test_invalid_subsampling_rejected(self, rgb_image):
        with pytest.raises(ValueError):
            codec.encode_rgb(rgb_image, subsampling="4:1:1")


class TestCoefficientAccess:
    def test_transcode_is_lossless(self, gray_image):
        data = codec.encode_gray(gray_image, quality=85)
        image = codec.decode_coefficients(data)
        recoded = codec.encode_coefficients(image)
        image2 = codec.decode_coefficients(recoded)
        for a, b in zip(image.components, image2.components):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert np.array_equal(a.quant_table, b.quant_table)

    def test_color_transcode_lossless(self, rgb_image):
        data = codec.encode_rgb(rgb_image, quality=88, subsampling="4:2:0")
        image = codec.decode_coefficients(data)
        image2 = codec.decode_coefficients(codec.encode_coefficients(image))
        for a, b in zip(image.components, image2.components):
            assert np.array_equal(a.coefficients, b.coefficients)

    def test_geometry_recorded(self, rgb_image):
        data = codec.encode_rgb(rgb_image, quality=88)
        image = codec.decode_coefficients(data)
        assert (image.height, image.width) == rgb_image.shape[:2]
        assert image.num_components == 3

    def test_subsampled_component_grids(self, rgb_image):
        data = codec.encode_rgb(rgb_image, quality=88, subsampling="4:2:0")
        image = codec.decode_coefficients(data)
        luma, cb, cr = image.components
        assert luma.h_sampling == 2 and luma.v_sampling == 2
        assert cb.blocks_x <= (luma.blocks_x + 1) // 2 + 1

    def test_decode_gray_returns_luma_for_color(self, rgb_image):
        data = codec.encode_rgb(rgb_image, quality=90)
        luma = codec.decode_gray(data)
        assert luma.ndim == 2
        assert luma.shape == rgb_image.shape[:2]


class TestProgressive:
    def test_progressive_decodes_identically(self, gray_image):
        baseline = codec.encode_gray(gray_image, quality=88, progressive=False)
        progressive = codec.encode_gray(gray_image, quality=88, progressive=True)
        assert np.array_equal(codec.decode(baseline), codec.decode(progressive))

    def test_progressive_color(self, rgb_image):
        baseline = codec.encode_rgb(rgb_image, quality=88)
        progressive = codec.encode_rgb(rgb_image, quality=88, progressive=True)
        assert np.array_equal(codec.decode(baseline), codec.decode(progressive))

    def test_progressive_flag_in_info(self, gray_image):
        data = codec.encode_gray(gray_image, quality=88, progressive=True)
        info = codec.image_info(data)
        assert info.progressive
        assert info.num_scans > 1

    def test_progressive_coefficients_match_baseline(self, gray_image):
        baseline = codec.decode_coefficients(
            codec.encode_gray(gray_image, quality=88)
        )
        progressive = codec.decode_coefficients(
            codec.encode_gray(gray_image, quality=88, progressive=True)
        )
        assert np.array_equal(
            baseline.luma.coefficients, progressive.luma.coefficients
        )


#: Baseline, spectral selection and successive approximation.
every_mode = pytest.mark.parametrize(
    "progressive", [False, True, "sa"], ids=["baseline", "progressive", "sa"]
)


class TestImageInfo:
    def test_dimensions(self, rgb_image):
        info = codec.image_info(codec.encode_rgb(rgb_image, quality=85))
        assert (info.height, info.width) == rgb_image.shape[:2]
        assert info.num_components == 3
        assert not info.progressive

    @every_mode
    def test_app_markers_listed(self, gray_image, progressive):
        from repro.jpeg.codec import gray_to_coefficients
        from repro.jpeg import markers as m

        image = gray_to_coefficients(gray_image, quality=85)
        image.app_segments.append((m.APP0 + 4, b"Exif-ish"))
        data = codec.encode_coefficients(image, progressive=progressive)
        info = codec.image_info(data)
        assert "APP4" in info.app_markers
        decoded = codec.decode_coefficients(data)
        assert decoded.app_segments == image.app_segments

    @every_mode
    def test_comment_flag(self, gray_image, progressive):
        from repro.jpeg.codec import gray_to_coefficients

        image = gray_to_coefficients(gray_image, quality=85)
        image.comment = b"P3 was here"
        data = codec.encode_coefficients(image, progressive=progressive)
        info = codec.image_info(data)
        assert info.has_comment
        assert codec.decode_coefficients(data).comment == image.comment


class TestStructures:
    def test_copy_is_deep(self, gray_image):
        image = codec.decode_coefficients(
            codec.encode_gray(gray_image, quality=85)
        )
        clone = image.copy()
        clone.luma.coefficients[0, 0, 0, 0] += 1
        assert not np.array_equal(
            clone.luma.coefficients, image.luma.coefficients
        )

    def test_same_geometry_and_quantization(self, gray_image):
        data = codec.encode_gray(gray_image, quality=85)
        a = codec.decode_coefficients(data)
        b = codec.decode_coefficients(data)
        assert a.same_geometry(b)
        assert a.same_quantization(b)
        c = codec.decode_coefficients(
            codec.encode_gray(gray_image, quality=50)
        )
        assert a.same_geometry(c)
        assert not a.same_quantization(c)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            CoefficientImage(width=0, height=8, components=[])
