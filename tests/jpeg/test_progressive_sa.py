"""Tests for successive-approximation progressive mode and restarts."""

import numpy as np
import pytest

from repro.jpeg.codec import (
    decode_coefficients,
    encode_coefficients,
    gray_to_coefficients,
    image_info,
    rgb_to_coefficients,
)
from repro.jpeg.encoder import encode_baseline, encode_progressive
from repro.jpeg.scans import ScanSpec, default_sa_script


@pytest.fixture(scope="module")
def gray_coefficients(gray_image):
    return gray_to_coefficients(gray_image, quality=88)


@pytest.fixture(scope="module")
def color_coefficients(rgb_image):
    return rgb_to_coefficients(rgb_image, quality=90, subsampling="4:2:0")


class TestScanSpec:
    def test_valid_dc(self):
        ScanSpec((0, 1, 2), 0, 0, 0, 1)

    def test_dc_ac_mix_rejected(self):
        with pytest.raises(ValueError):
            ScanSpec((0,), 0, 5, 0, 0)

    def test_interleaved_ac_rejected(self):
        with pytest.raises(ValueError):
            ScanSpec((0, 1), 1, 5, 0, 0)

    def test_multi_bit_refinement_rejected(self):
        with pytest.raises(ValueError):
            ScanSpec((0,), 1, 5, 2, 0)

    def test_band_bounds(self):
        with pytest.raises(ValueError):
            ScanSpec((0,), 5, 3, 0, 0)

    def test_default_script_structure(self):
        script = default_sa_script(3)
        assert script[0].is_dc and not script[0].is_refinement
        refinements = [s for s in script if s.is_refinement]
        assert len(refinements) == 7  # 1 DC + 6 AC (2 bands x 3 comps)
        # Every refinement shifts exactly one bit.
        for spec in refinements:
            assert spec.ah == spec.al + 1


class TestSuccessiveApproximation:
    def test_gray_coefficients_exact(self, gray_coefficients):
        data = encode_coefficients(gray_coefficients, progressive="sa")
        decoded = decode_coefficients(data)
        assert np.array_equal(
            decoded.luma.coefficients, gray_coefficients.luma.coefficients
        )

    def test_color_coefficients_exact(self, color_coefficients):
        data = encode_coefficients(color_coefficients, progressive="sa")
        decoded = decode_coefficients(data)
        for a, b in zip(decoded.components, color_coefficients.components):
            assert np.array_equal(a.coefficients, b.coefficients)

    def test_marked_progressive_with_many_scans(self, gray_coefficients):
        data = encode_coefficients(gray_coefficients, progressive="sa")
        info = image_info(data)
        assert info.progressive
        assert info.num_scans == len(default_sa_script(1))

    def test_two_level_script(self, gray_coefficients):
        """A deeper point transform (Al=2 first, two refinements)."""
        script = [
            ScanSpec((0,), 0, 0, 0, 2),
            ScanSpec((0,), 1, 63, 0, 2),
            ScanSpec((0,), 0, 0, 2, 1),
            ScanSpec((0,), 1, 63, 2, 1),
            ScanSpec((0,), 0, 0, 1, 0),
            ScanSpec((0,), 1, 63, 1, 0),
        ]
        data = encode_progressive(gray_coefficients, script)
        decoded = decode_coefficients(data)
        assert np.array_equal(
            decoded.luma.coefficients, gray_coefficients.luma.coefficients
        )

    def test_sa_size_comparable_to_baseline(self, gray_coefficients):
        baseline = encode_baseline(gray_coefficients)
        progressive = encode_coefficients(gray_coefficients, progressive="sa")
        assert len(progressive) < 2.0 * len(baseline)

    def test_extreme_coefficients(self):
        """Large magnitudes exercise multi-bit refinement paths."""
        rng = np.random.default_rng(5)
        from repro.jpeg.structures import CoefficientImage, ComponentInfo

        coefficients = rng.integers(-1023, 1024, (3, 3, 8, 8)).astype(
            np.int32
        )
        image = CoefficientImage(
            width=24,
            height=24,
            components=[
                ComponentInfo(
                    identifier=1,
                    h_sampling=1,
                    v_sampling=1,
                    quant_table=np.ones((8, 8), dtype=np.int32),
                    coefficients=coefficients,
                )
            ],
        )
        data = encode_coefficients(image, progressive="sa")
        decoded = decode_coefficients(data)
        assert np.array_equal(decoded.luma.coefficients, coefficients)


class TestRestartMarkers:
    @pytest.mark.parametrize("interval", [1, 2, 7, 64])
    def test_gray_roundtrip(self, gray_coefficients, interval):
        data = encode_baseline(gray_coefficients, restart_interval=interval)
        decoded = decode_coefficients(data)
        assert np.array_equal(
            decoded.luma.coefficients, gray_coefficients.luma.coefficients
        )

    @pytest.mark.parametrize("interval", [1, 3])
    def test_color_roundtrip(self, color_coefficients, interval):
        data = encode_baseline(color_coefficients, restart_interval=interval)
        decoded = decode_coefficients(data)
        for a, b in zip(decoded.components, color_coefficients.components):
            assert np.array_equal(a.coefficients, b.coefficients)

    def test_restart_markers_present_in_stream(self, gray_coefficients):
        data = encode_baseline(gray_coefficients, restart_interval=4)
        assert b"\xff\xd0" in data  # RST0 appears

    def test_restarts_cost_bytes(self, gray_coefficients):
        plain = encode_baseline(gray_coefficients)
        with_restarts = encode_baseline(
            gray_coefficients, restart_interval=1
        )
        assert len(with_restarts) > len(plain)

    def test_invalid_interval_rejected(self, gray_coefficients):
        with pytest.raises(ValueError):
            encode_baseline(gray_coefficients, restart_interval=-1)
        with pytest.raises(ValueError):
            encode_baseline(gray_coefficients, restart_interval=70000)
