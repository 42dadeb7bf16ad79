"""Differential tests: the native C kernel vs the scalar T.81 engine.

The native kernel (:mod:`repro.jpeg.native`) runs each scan's entire
symbol loop in C; the scalar T.81 reference is its oracle.  These tests
fuzz all five scan types — baseline, DC first, DC refinement, AC first,
AC refinement — over random coefficient blocks, and probe the
adversarial corners where whole-segment C code most plausibly diverges
from the per-symbol reference: restart markers, 0xFF byte-stuffing at
segment boundaries, padding-produced 0xFF bytes, and truncated streams
(EndOfData parity).

The kernel is required: :class:`TestKernelRequired` checks that a
failed build surfaces as a typed error naming it, while the scalar
oracle keeps working.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import P3Encryptor
from repro.jpeg.codec import (
    encode_coefficients,
    gray_to_coefficients,
    rgb_to_coefficients,
)
from repro.jpeg.decoder import decode_to_coefficients
from repro.jpeg.encoder import encode_baseline, encode_progressive
from repro.jpeg.engines import ENGINES, engine_info, resolve_engine
from repro.jpeg import markers
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.native import kernel as native_kernel
from repro.jpeg.native.kernel import NativeUnavailableError
from repro.jpeg.scans import ScanSpec


def _gray(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    ramp = np.linspace(0, 60, width)[None, :]
    noise = rng.normal(0, 30, size=(height, width))
    return np.clip(ramp + noise + 96, 0, 255)


def _rgb(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    return rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8)


def _with_p3_parts(image):
    """``image`` plus the public and secret halves P3 splits it into
    (:meth:`P3Encryptor.split_jpeg`), which must code identically too."""
    split = P3Encryptor(bytes(16)).split_jpeg(encode_baseline(image))
    return [image, split.public, split.secret]


def _assert_same_coefficients(jpeg: bytes) -> None:
    """Decode ``jpeg`` with both engines; coefficients must agree."""
    image = decode_to_coefficients(jpeg, engine="native")
    reference = decode_to_coefficients(jpeg, engine="scalar")
    assert len(image.components) == len(reference.components)
    for ours, theirs in zip(image.components, reference.components):
        np.testing.assert_array_equal(ours.coefficients, theirs.coefficients)


class TestDifferentialEncodeDecode:
    """All five scan types, both engines, byte/coefficient identity,
    for each input and the P3 public/secret parts split from it."""

    @pytest.mark.parametrize("restart_interval", [0, 2, 5])
    def test_baseline_gray(self, restart_interval):
        rng = np.random.default_rng(11)
        image = gray_to_coefficients(_gray(rng, 40, 56), quality=70)
        for part in _with_p3_parts(image):
            streams = {
                engine: encode_baseline(
                    part, restart_interval=restart_interval, engine=engine
                )
                for engine in ENGINES
            }
            assert streams["scalar"] == streams["native"]
            _assert_same_coefficients(streams["native"])

    @pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:0"])
    def test_baseline_rgb(self, subsampling):
        rng = np.random.default_rng(12)
        image = rgb_to_coefficients(
            _rgb(rng, 32, 48), quality=80, subsampling=subsampling
        )
        for part in _with_p3_parts(image):
            streams = {
                engine: encode_baseline(part, engine=engine)
                for engine in ENGINES
            }
            assert streams["scalar"] == streams["native"]
            _assert_same_coefficients(streams["native"])

    def test_progressive_spectral_selection(self):
        # DC-first scan + AC-first scans with EOB runs.
        rng = np.random.default_rng(13)
        image = gray_to_coefficients(_gray(rng, 48, 48), quality=60)
        for part in _with_p3_parts(image):
            streams = {
                engine: encode_progressive(part, engine=engine)
                for engine in ENGINES
            }
            assert streams["scalar"] == streams["native"]
            _assert_same_coefficients(streams["native"])

    @pytest.mark.parametrize("channels", ["gray", "rgb"])
    def test_progressive_successive_approximation(self, channels):
        # DC first + DC refinement + AC first + AC refinement scans.
        rng = np.random.default_rng(14)
        if channels == "gray":
            image = gray_to_coefficients(_gray(rng, 40, 40), quality=75)
        else:
            image = rgb_to_coefficients(
                _rgb(rng, 32, 32), quality=75, subsampling="4:2:0"
            )
        for part in _with_p3_parts(image):
            streams = {
                engine: encode_coefficients(
                    part, progressive="sa", engine=engine
                )
                for engine in ENGINES
            }
            assert streams["scalar"] == streams["native"]
            _assert_same_coefficients(streams["native"])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fuzz_random_blocks_all_modes(self, seed):
        """Random coefficient content through every scan type."""
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(24, 24)).astype(float)
        image = gray_to_coefficients(pixels, quality=50)
        for part in _with_p3_parts(image):
            for encode in (
                lambda eng: encode_baseline(part, engine=eng),
                lambda eng: encode_baseline(
                    part, restart_interval=3, engine=eng
                ),
                lambda eng: encode_progressive(part, engine=eng),
                lambda eng: encode_coefficients(
                    part, progressive="sa", engine=eng
                ),
            ):
                streams = {engine: encode(engine) for engine in ENGINES}
                assert streams["scalar"] == streams["native"]
                _assert_same_coefficients(streams["native"])


class TestAdversarialBitstreams:
    """Corrupt/truncated input parity: same verdict from every engine."""

    @staticmethod
    def _outcome(engine: str, jpeg: bytes):
        """(kind, detail) summary of a decode attempt."""
        try:
            image = decode_to_coefficients(jpeg, engine=engine)
        except JpegFormatError:
            return ("format-error",)
        except OverflowError:
            return ("overflow",)
        return ("ok",) + tuple(
            component.coefficients.tobytes()
            for component in image.components
        )

    @pytest.mark.parametrize("restart_interval", [0, 3])
    def test_truncation_parity(self, restart_interval):
        """Cut the stream at many offsets; every engine must agree
        whether the result is decodable (EndOfData surfaces as the
        same JpegFormatError) and, when decodable, on the bytes."""
        rng = np.random.default_rng(21)
        image = gray_to_coefficients(_gray(rng, 32, 32), quality=65)
        jpeg = encode_baseline(image, restart_interval=restart_interval)
        cuts = sorted(
            {len(jpeg) // 3, len(jpeg) // 2, len(jpeg) - 24,
             len(jpeg) - 9, len(jpeg) - 3}
        )
        for cut in cuts:
            truncated = jpeg[:cut]
            outcomes = {
                engine: self._outcome(engine, truncated)
                for engine in ENGINES
            }
            assert outcomes["native"] == outcomes["scalar"], f"cut={cut}"

    def test_truncated_progressive_parity(self):
        rng = np.random.default_rng(22)
        image = gray_to_coefficients(_gray(rng, 32, 32), quality=65)
        jpeg = encode_coefficients(image, progressive="sa")
        for cut in (len(jpeg) // 2, len(jpeg) - 30, len(jpeg) - 6):
            outcomes = {
                engine: self._outcome(engine, jpeg[:cut])
                for engine in ENGINES
            }
            assert outcomes["native"] == outcomes["scalar"]

    @given(seed=st.integers(0, 2**32 - 1), flips=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_bitflip_parity(self, seed, flips):
        """Random corruption in the entropy segment: all engines must
        reach the same verdict (ok / format error / overflow) and the
        same coefficients when they do decode."""
        rng = np.random.default_rng(seed)
        image = gray_to_coefficients(_gray(rng, 24, 24), quality=55)
        jpeg = bytearray(encode_baseline(image))
        # Only corrupt the entropy-coded body, not the headers: marker
        # parsing is shared code, the engines are what's under test.
        sos = bytes(jpeg).rfind(b"\xff\xda")
        body_start = sos + 2 + ((jpeg[sos + 2] << 8) | jpeg[sos + 3])
        body = list(range(body_start, len(jpeg) - 2))
        for position in rng.choice(body, size=min(flips, len(body)),
                                   replace=False):
            jpeg[position] ^= 1 << int(rng.integers(0, 8))
            # Never fabricate a marker prefix (0xFF) or destroy a
            # stuffed zero — those change *segmentation*, which the
            # scalar reader handles byte-at-a-time and the kernel
            # pre-scans; parity for legal streams is the contract.
            if jpeg[position] == 0xFF:
                jpeg[position] = 0xFE
            if jpeg[position - 1] == 0xFF:
                jpeg[position - 1] = 0x7F
        corrupted = bytes(jpeg)
        outcomes = {
            engine: self._outcome(engine, corrupted)
            for engine in ENGINES
        }
        assert outcomes["native"] == outcomes["scalar"]

    def test_restart_marker_streams_roundtrip(self):
        """Dense restart markers (every MCU) exercise the segment-switch
        path — where the native reader's destuffed-buffer bookkeeping
        must agree with the scalar reader's marker scan."""
        rng = np.random.default_rng(23)
        image = gray_to_coefficients(_gray(rng, 24, 40), quality=70)
        streams = {
            engine: encode_baseline(
                image, restart_interval=1, engine=engine
            )
            for engine in ENGINES
        }
        assert streams["scalar"] == streams["native"]
        _assert_same_coefficients(streams["native"])


class TestNativeBitWriter:
    """The encode loops' shared bit writer pads the last byte with
    1-bits, and a padding-produced 0xFF still gets its stuffed zero."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_padding_produced_ff_is_stuffed(self, engine):
        # DC = 1 under a point transform of 1: the refinement scan sends
        # one 1-bit, and the padding makes it 0xFF.
        image = gray_to_coefficients(np.full((8, 8), 128.0), quality=75)
        image.components[0].coefficients[0, 0, 0, 0] = 1
        script = [ScanSpec((0,), 0, 0, 0, 1), ScanSpec((0,), 0, 0, 1, 0)]
        jpeg = encode_progressive(image, script, engine=engine)
        scans = [
            segment.entropy_data
            for segment in markers.parse_segments(jpeg)
            if segment.marker == markers.SOS
        ]
        assert scans[1] == b"\xff\x00"


class TestKernelRequired:
    """A kernel that cannot build is a typed error naming the build
    failure, never a silent fall back; the scalar oracle still works."""

    BUILD_ERROR = "no working C compiler for the native kernel: cc: not found"

    @pytest.fixture()
    def broken_kernel(self, monkeypatch):
        def fail():
            raise RuntimeError(self.BUILD_ERROR)

        monkeypatch.setattr(native_kernel, "_compile_and_load", fail)
        native_kernel._STATE.reset_for_tests()
        yield
        monkeypatch.undo()
        native_kernel._STATE.reset_for_tests()

    @staticmethod
    def _image():
        rng = np.random.default_rng(31)
        return gray_to_coefficients(_gray(rng, 24, 24), quality=70)

    def test_default_engine_raises_naming_build_error(self, broken_kernel):
        image = self._image()
        jpeg = encode_baseline(image, engine="scalar")
        with pytest.raises(NativeUnavailableError, match=self.BUILD_ERROR):
            decode_to_coefficients(jpeg, engine=None)
        with pytest.raises(NativeUnavailableError, match=self.BUILD_ERROR):
            encode_baseline(image, engine=None)

    def test_scalar_engine_still_round_trips(self, broken_kernel):
        image = self._image()
        jpeg = encode_baseline(image, engine="scalar")
        decoded = decode_to_coefficients(jpeg, engine="scalar")
        np.testing.assert_array_equal(
            decoded.components[0].coefficients,
            image.components[0].coefficients,
        )

    def test_engine_info_reports_build_error(self, broken_kernel):
        native = engine_info()["native"]
        assert native["available"] is False
        assert self.BUILD_ERROR in native["build_error"]

    def test_numpy_engine_is_gone(self):
        assert ENGINES == ("scalar", "native")
        with pytest.raises(ValueError, match="'scalar', 'native'"):
            resolve_engine("numpy")

    def test_explicit_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown codec engine"):
            resolve_engine("turbo")

    def test_status_shape(self):
        status = native_kernel.status()
        assert status["available"] is True
        assert set(status) >= {"available", "build_error", "source_digest"}
