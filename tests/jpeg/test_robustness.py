"""Decoder robustness: malformed inputs must raise, never crash or hang.

The recipient proxy decodes bytes served by an *untrusted* PSP, so the
decoder's failure mode matters: every malformed input must surface as
``JpegFormatError`` (or a clean ValueError subclass), never an
unhandled IndexError/panic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jpeg.codec import (
    decode_coefficients,
    encode_coefficients,
    encode_gray,
    rgb_to_coefficients,
)
from repro.jpeg.engines import ENGINES
from repro.jpeg.markers import JpegFormatError


def _accept(data: bytes) -> None:
    """Decode; any failure must be a JpegFormatError family error."""
    try:
        decode_coefficients(data)
    except (JpegFormatError, ValueError):
        pass


class TestMalformedInputs:
    def test_empty(self):
        with pytest.raises(JpegFormatError):
            decode_coefficients(b"")

    def test_garbage(self):
        with pytest.raises((JpegFormatError, ValueError)):
            decode_coefficients(b"not a jpeg at all, sorry")

    def test_soi_only(self):
        with pytest.raises((JpegFormatError, ValueError)):
            decode_coefficients(b"\xff\xd8\xff\xd9")

    def test_truncations_never_crash(self, gray_image):
        data = encode_gray(gray_image, quality=85)
        for cut in range(2, len(data), max(1, len(data) // 60)):
            _accept(data[:cut])

    def test_single_byte_corruptions_never_crash(self, gray_image):
        data = bytearray(encode_gray(gray_image[:32, :32], quality=85))
        rng = np.random.default_rng(0)
        for _ in range(200):
            position = int(rng.integers(2, len(data)))
            original = data[position]
            data[position] ^= int(rng.integers(1, 256))
            _accept(bytes(data))
            data[position] = original

    def test_header_dimension_tampering(self, gray_image):
        data = bytearray(encode_gray(gray_image[:16, :16], quality=85))
        # Find the SOF0 segment and zero its height field.
        index = data.find(b"\xff\xc0")
        assert index >= 0
        data[index + 5] = 0
        data[index + 6] = 0
        _accept(bytes(data))


def _mutate_frame_header(data: bytearray, marker: bytes, mutation: str):
    """Apply one frame-header mutation in place (T.81 B.2.2 layout:
    FF Cn, Lf, P, Y, X, Nf, then Ci, HiVi, Tqi per component)."""
    nf = data.index(marker) + 9
    luma_sampling = nf + 2
    if mutation == "all_sampling_zero":
        for index in range(data[nf]):
            data[luma_sampling + 3 * index] = 0x00
    elif mutation == "luma_h0":
        data[luma_sampling] &= 0x0F
    elif mutation == "luma_h5":
        data[luma_sampling] = 0x50 | (data[luma_sampling] & 0x0F)
    elif mutation == "luma_v0":
        data[luma_sampling] &= 0xF0
    elif mutation == "luma_v5":
        data[luma_sampling] = (data[luma_sampling] & 0xF0) | 0x05
    elif mutation == "height0":
        data[nf - 4 : nf - 2] = b"\x00\x00"
    elif mutation == "width0":
        data[nf - 2 : nf] = b"\x00\x00"
    else:
        data[nf] = 0


class TestFrameHeaderValidation:
    """T.81 B.2.2: Nf >= 1, non-zero Y and X (no DNL support), and
    every H, V in 1-4.  The MCU grid is sized from them, so each
    violation must be rejected by the frame header check on every
    engine, before any scan is read."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "progressive", [False, True], ids=["baseline", "progressive"]
    )
    @pytest.mark.parametrize(
        "mutation",
        [
            "all_sampling_zero",
            "luma_h0",
            "luma_h5",
            "luma_v0",
            "luma_v5",
            "nf0",
            "height0",
            "width0",
        ],
    )
    def test_invalid_frame_header_is_a_format_error(
        self, rgb_image, mutation, progressive, engine
    ):
        image = rgb_to_coefficients(
            rgb_image[:32, :48], quality=75, subsampling="4:2:0"
        )
        data = bytearray(encode_coefficients(image, progressive=progressive))
        marker = b"\xff\xc2" if progressive else b"\xff\xc0"
        _mutate_frame_header(data, marker, mutation)
        with pytest.raises(JpegFormatError, match="invalid frame header"):
            decode_coefficients(bytes(data), engine=engine)


def _rename_component(
    data: bytearray, old: int, new: int, sof: bytes | None
) -> None:
    """Rename component ``old`` to ``new`` in every SOS (FF DA, Ls, Ns,
    then Cs, Td/Ta per component), and in the frame header that starts
    with the ``sof`` marker unless it is None."""
    if sof is not None:
        nf = data.index(sof) + 9
        for offset in range(nf + 1, nf + 1 + 3 * data[nf], 3):
            if data[offset] == old:
                data[offset] = new
    sos = data.find(b"\xff\xda")
    while sos >= 0:
        for offset in range(sos + 5, sos + 5 + 2 * data[sos + 4], 2):
            if data[offset] == old:
                data[offset] = new
        sos = data.find(b"\xff\xda", sos + 2)


class TestComponentIdValidation:
    """T.81 B.2.2 and B.2.3: component ids are unique in a frame, and a
    scan names each component once.  A clash would decode one
    component's data into another and leave the first all zero, so the
    header checks reject it on every engine before any scan is read."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "progressive", [False, True], ids=["baseline", "progressive"]
    )
    @pytest.mark.parametrize("in_frame", [True, False], ids=["sof", "sos"])
    def test_duplicate_component_id_is_a_format_error(
        self, rgb_image, in_frame, progressive, engine
    ):
        image = rgb_to_coefficients(rgb_image[:32, :32], quality=85)
        assert [c.identifier for c in image.components] == [1, 2, 3]
        data = bytearray(encode_coefficients(image, progressive=progressive))
        sof = b"\xff\xc2" if progressive else b"\xff\xc0"
        _rename_component(data, 3, 2, sof if in_frame else None)
        header = "frame" if in_frame else "scan"
        with pytest.raises(JpegFormatError, match=f"invalid {header} header"):
            decode_coefficients(bytes(data), engine=engine)


class TestFuzzProperties:
    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=120, deadline=None)
    def test_random_bytes_never_crash(self, blob):
        _accept(blob)

    @given(st.binary(min_size=0, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes_with_soi_prefix_never_crash(self, blob):
        _accept(b"\xff\xd8" + blob)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_truncation_never_crashes(self, seed, cut_percent):
        rng = np.random.default_rng(seed)
        image = rng.uniform(0, 255, (16, 16))
        data = encode_gray(image, quality=80)
        cut = max(2, len(data) * cut_percent // 100)
        _accept(data[:cut])
