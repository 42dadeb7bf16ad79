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
from repro.jpeg import markers
from repro.jpeg.encoder import encode_baseline, encode_progressive
from repro.jpeg.engines import ENGINES
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.scans import ScanSpec
from repro.jpeg.structures import CoefficientImage, ComponentInfo


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

    #: T.81 B.2.3: Ns in 1-4 and at most 10 blocks per MCU of an
    #: interleaved scan; B.2.2 and B.2.4.1: Tq in 0-3.
    HEADER_CASES = {
        "ns0": "invalid scan header: 0 components",
        "ns5": "invalid scan header: 5 components",
        "blocks_per_mcu_12": "invalid scan header: 12 blocks per MCU",
        "sof_tq5": "invalid frame header: component 1 quantization table 5",
        "dqt_tq5": "invalid quantization table header: Tq 5",
        "sof_and_dqt_tq5": "invalid quantization table header: Tq 5",
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "progressive", [False, True], ids=["baseline", "progressive"]
    )
    @pytest.mark.parametrize("case", sorted(HEADER_CASES))
    def test_invalid_scan_or_table_header_is_a_format_error(
        self, case, progressive, engine
    ):
        data = _header_case(case, progressive)
        with pytest.raises(JpegFormatError, match=self.HEADER_CASES[case]):
            decode_coefficients(data, engine=engine)


def _synthetic_image(
    samplings: list[tuple[int, int]], width: int = 16, height: int = 16
) -> CoefficientImage:
    """Small random coefficients, one component per sampling pair."""
    rng = np.random.default_rng(5)
    max_h = max(h for h, _ in samplings)
    max_v = max(v for _, v in samplings)
    components = []
    for index, (h, v) in enumerate(samplings):
        plane_h = -(-height * v // max_v)
        plane_w = -(-width * h // max_h)
        rows, cols = -(-plane_h // 8), -(-plane_w // 8)
        components.append(
            ComponentInfo(
                identifier=index + 1,
                h_sampling=h,
                v_sampling=v,
                quant_table=np.ones((8, 8), dtype=np.int32),
                coefficients=rng.integers(
                    -20, 21, size=(rows, cols, 8, 8)
                ).astype(np.int32),
            )
        )
    return CoefficientImage(width=width, height=height, components=components)


def _per_component_dc_script(num_components: int) -> list[ScanSpec]:
    """Full precision with one DC scan per component: codes an image
    whose components cannot share an interleaved scan."""
    return [ScanSpec((index,), 0, 0, 0, 0) for index in range(num_components)] + [
        ScanSpec((index,), 1, 63, 0, 0) for index in range(num_components)
    ]


def _interleaved_first_scan(image: CoefficientImage, progressive: bool) -> bytes:
    """A stream whose first scan header interleaves every component of
    ``image``, which the encoder refuses to write past T.81 B.2.3's
    limits: the image is coded one DC scan per component, then the
    first scan's header is rewritten to name them all (and the frame
    made SOF0 unless ``progressive``)."""
    count = len(image.components)
    data = encode_progressive(image, _per_component_dc_script(count))
    segments = markers.parse_segments(data)
    for segment in segments:
        if segment.marker == markers.SOF2 and not progressive:
            segment.marker = markers.SOF0
    sos = next(s for s in segments if s.marker == markers.SOS)
    sos.payload = (
        bytes([count])
        + b"".join(bytes([c.identifier, 0]) for c in image.components)
        + bytes([0, 0 if progressive else 63, 0])
    )
    return markers.serialize_segments(segments)


def _header_case(case: str, progressive: bool) -> bytes:
    """A stream whose scan or table headers break T.81 B.2.3/B.2.4.1
    (or SOF's Tq range) in one way."""
    if case == "ns5":
        return _interleaved_first_scan(
            _synthetic_image([(1, 1)] * 5), progressive
        )
    if case == "blocks_per_mcu_12":
        return _interleaved_first_scan(
            _synthetic_image([(2, 2)] * 3), progressive
        )
    image = _synthetic_image([(2, 2), (1, 1), (1, 1)])
    data = bytearray(encode_coefficients(image, progressive=progressive))
    sof = data.index(b"\xff\xc2" if progressive else b"\xff\xc0")
    dqt = data.index(b"\xff\xdb")
    if case == "ns0":
        data[data.index(b"\xff\xda") + 4] = 0
    if case in ("sof_tq5", "sof_and_dqt_tq5"):
        data[sof + 12] = 5  # luma Tq: FF Cn, Lf, P, Y, X, Nf, Ci, HiVi
    if case in ("dqt_tq5", "sof_and_dqt_tq5"):
        data[dqt + 4] = (data[dqt + 4] & 0xF0) | 5  # Pq/Tq of table 0
    return bytes(data)


class TestInterleaveLimits:
    """The encoders keep to T.81 B.2.3 as the decoder does: an
    interleaved scan of more than 4 components or more than 10 blocks
    per MCU is a JpegFormatError on both engines (libjpeg's
    JERR_COMPONENT_COUNT and JERR_BAD_MCU_SIZE), not a stream the
    decoder then refuses.  One DC scan per component still codes such
    an image progressively."""

    CASES = {
        "5_components": ([(1, 1)] * 5, "interleaved scan of 5 components"),
        "3x2x2": ([(2, 2)] * 3, "interleaved scan of 12 blocks per MCU"),
        "4_components_11_blocks": (
            [(2, 2), (2, 2), (2, 1), (1, 1)],
            "interleaved scan of 11 blocks per MCU",
        ),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("progressive", [False, True, "sa"], ids=str)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_interleaved_scan_past_limits_is_a_format_error(
        self, case, progressive, engine
    ):
        samplings, message = self.CASES[case]
        with pytest.raises(JpegFormatError, match=message):
            encode_coefficients(
                _synthetic_image(samplings),
                progressive=progressive,
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_widest_interleaved_scan_encodes(self, engine):
        # 4:2:0 with a 2x2 fourth component: 4 components, 10 blocks.
        image = _synthetic_image([(2, 2), (1, 1), (1, 1), (2, 2)])
        for progressive in (False, True):
            data = encode_coefficients(
                image, progressive=progressive, engine=engine
            )
            decoded = decode_coefficients(data, engine=engine)
            for got, want in zip(decoded.components, image.components):
                np.testing.assert_array_equal(
                    got.coefficients, want.coefficients
                )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_dc_scan_per_component_encodes(self, case, engine):
        samplings, _ = self.CASES[case]
        image = _synthetic_image(samplings)
        data = encode_progressive(
            image, _per_component_dc_script(len(samplings)), engine=engine
        )
        decoded = decode_coefficients(data, engine=engine)
        for got, want in zip(decoded.components, image.components):
            np.testing.assert_array_equal(got.coefficients, want.coefficients)


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


def _one_ac_image(value: int) -> CoefficientImage:
    """A gray image whose first block carries ``value`` at zigzag
    position 1 among small coefficients."""
    image = _synthetic_image([(1, 1)])
    image.components[0].coefficients[0, 0, 0, 1] = value
    return image


class TestCoefficientRange:
    """An AC value's symbol has a 4-bit size field, so it carries at
    most 15 magnitude bits.  Both engines reject a wider one with
    libjpeg's JERR_BAD_DCT_COEF message instead of writing a symbol
    whose size overflows into its run nibble (an undecodable baseline
    stream, or wrong coefficients after a progressive decode)."""

    #: Widest AC value each mode codes: the SA script's first AC scan
    #: sends ``|v| >> 1``.
    LIMITS = {False: 32767, True: 32767, "sa": 65535}

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("progressive", sorted(LIMITS, key=str))
    def test_widest_ac_value_round_trips(self, engine, progressive):
        for value in (self.LIMITS[progressive], -self.LIMITS[progressive]):
            image = _one_ac_image(value)
            data = encode_coefficients(
                image, progressive=progressive, engine=engine
            )
            decoded = decode_coefficients(data, engine=engine)
            np.testing.assert_array_equal(
                decoded.components[0].coefficients,
                image.components[0].coefficients,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("progressive", sorted(LIMITS, key=str))
    def test_wider_ac_value_is_a_format_error(self, engine, progressive):
        limit = self.LIMITS[progressive]
        for value in (limit + 1, -limit - 1):
            with pytest.raises(
                JpegFormatError, match="DCT coefficient out of range"
            ):
                encode_coefficients(
                    _one_ac_image(value), progressive=progressive, engine=engine
                )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "dc, ac, symbol", [(2048, 1, 0x0C), (0, 1024, 0x0B)]
    )
    def test_symbol_missing_from_annex_k_tables(self, engine, dc, ac, symbol):
        # DC category 12 and AC size 11 have no code in the Annex K
        # tables, which only an unoptimized baseline encode uses.
        image = _one_ac_image(ac)
        image.components[0].coefficients[0, 0, 0, 0] = dc
        with pytest.raises(
            ValueError, match=f"symbol {symbol:#x} not in Huffman table"
        ):
            encode_baseline(image, optimize_huffman=False, engine=engine)
