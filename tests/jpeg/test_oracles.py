"""The fast codec layers against the reference forms they replaced.

Each production function is diffed against its oracle in
``tests/jpeg/oracles.py``: the GEMM forward DCT against the three-operand
einsum, the heap-built Huffman tables against libjpeg's least-count
scan, the ``bytes.find`` scan-end search against the byte loop, and the
one-buffer colour conversion against the textbook formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.jpeg import markers
from repro.jpeg.codec import encode_coefficients, rgb_to_coefficients
from repro.jpeg.color import rgb_to_ycbcr, ycbcr_to_rgb
from repro.jpeg.dct import forward_dct
from repro.jpeg.huffman import build_optimized_table
from repro.jpeg.quantization import quantize
from tests.jpeg.oracles import (
    bytewise_find_scan_end,
    einsum_forward_dct,
    scan_optimized_table,
    textbook_rgb_to_ycbcr,
    textbook_ycbcr_to_rgb,
)

#: Largest float gap allowed between the GEMM and einsum transforms.
FDCT_TOLERANCE = 1e-9


def assert_quantized_agree(blocks, table):
    """Quantized coefficients may differ only at a rounding tie: where
    the einsum's scaled value is within the tolerance of k + 1/2, and
    then by exactly one step."""
    reference = einsum_forward_dct(blocks)
    ours = quantize(forward_dct(blocks), table)
    theirs = quantize(reference, table)
    differ = ours != theirs
    if not differ.any():
        return
    assert np.all(np.abs(ours[differ].astype(np.int64) - theirs[differ]) == 1)
    scaled = np.abs(reference / table.astype(np.float64))[differ]
    assert np.all(np.abs(scaled - np.floor(scaled) - 0.5) <= FDCT_TOLERANCE)


block_stacks = st.integers(1, 24).flatmap(
    lambda count: st.one_of(
        arrays(
            np.float64,
            (count, 8, 8),
            elements=st.floats(-128.0, 127.0, allow_nan=False),
        ),
        # Integer pixels after the level shift: their sums hit exact
        # k + 1/2 ties after quantization far more often.
        arrays(np.int64, (count, 8, 8), elements=st.integers(-128, 127)),
    )
)
quant_tables = arrays(np.int32, (8, 8), elements=st.integers(1, 255))


class TestForwardDctAgainstEinsum:
    @given(block_stacks)
    @settings(max_examples=80, deadline=None)
    def test_float_coefficients_within_tolerance(self, blocks):
        ours = forward_dct(blocks)
        reference = einsum_forward_dct(blocks)
        assert ours.dtype == np.float64
        assert ours.shape == reference.shape
        assert np.max(np.abs(ours - reference)) <= FDCT_TOLERANCE

    @given(block_stacks, quant_tables)
    @settings(max_examples=80, deadline=None)
    def test_quantized_coefficients_differ_only_at_ties(self, blocks, table):
        assert_quantized_agree(blocks, table)

    def test_constructed_dc_ties(self):
        """Integer blocks whose sum is 4 mod 8 have DC = sum / 8 exactly
        halfway between two integers, so at q = 1 either rounding may
        win; both transforms must still agree within one step."""
        rng = np.random.default_rng(7)
        blocks = rng.integers(-128, 128, (256, 8, 8)).astype(np.float64)
        blocks[:, 0, 0] -= (blocks.sum(axis=(1, 2)) - 4) % 8
        dc = einsum_forward_dct(blocks)[:, 0, 0]
        assert np.all(np.abs(np.abs(dc) % 1.0 - 0.5) <= FDCT_TOLERANCE)
        table = np.ones((8, 8), dtype=np.int32)
        assert_quantized_agree(blocks, table)

    @pytest.mark.parametrize(
        "shape", [(8, 8), (5, 8, 8), (3, 4, 8, 8), (0, 8, 8)]
    )
    def test_any_stack_shape(self, shape):
        blocks = np.random.default_rng(1).uniform(-128, 127, shape)
        ours = forward_dct(blocks)
        assert ours.shape == shape
        assert np.allclose(ours, einsum_forward_dct(blocks), atol=1e-9)

    def test_strided_and_integer_inputs(self):
        pixels = np.random.default_rng(2).integers(0, 256, (4, 8, 8))
        for blocks in (
            pixels.astype(np.uint8),
            pixels.astype(np.float32).swapaxes(1, 2),
        ):
            assert np.max(
                np.abs(forward_dct(blocks) - einsum_forward_dct(blocks))
            ) <= FDCT_TOLERANCE


def power_of_two_counts(symbols: int) -> dict[int, int]:
    """Counts 1, 2, 4, ... build a maximally skewed tree, deeper than
    16 bits once there are more than 16 symbols."""
    return {symbol: 1 << symbol for symbol in range(symbols)}


class TestHeapTablesAgainstScan:
    @given(
        st.dictionaries(
            st.integers(0, 255), st.integers(0, 10**6), max_size=256
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_histograms(self, frequencies):
        assert build_optimized_table(frequencies) == scan_optimized_table(
            frequencies
        )

    @pytest.mark.parametrize(
        "frequencies",
        [
            {0: 1},
            {200: 7},
            {symbol: 5 for symbol in range(40)},
            {symbol: 1 for symbol in range(256)},
            {symbol: symbol + 1 for symbol in range(256)},
            {10: 3, 11: 0, 12: 3},
        ],
        ids=["one", "one-high", "equal-40", "equal-256", "ramp-256", "zeros"],
    )
    def test_edge_histograms(self, frequencies):
        assert build_optimized_table(frequencies) == scan_optimized_table(
            frequencies
        )

    @pytest.mark.parametrize("symbols", [17, 20, 25, 30])
    def test_length_limit(self, symbols):
        frequencies = power_of_two_counts(symbols)
        table = build_optimized_table(frequencies)
        assert table == scan_optimized_table(frequencies)
        assert table.bits[15] > 0  # the K.3 adjustment ran

    def test_rejects_out_of_range_symbols(self):
        for symbol in (-1, 256):
            with pytest.raises(ValueError, match="out of range"):
                build_optimized_table({symbol: 1})


#: Byte runs a scan can contain, plus the markers that end one.
SCAN_PIECES = [
    b"\x00",
    b"\x12",
    b"\xfe",
    b"\xff\x00",  # stuffed data byte
    *(bytes([0xFF, marker]) for marker in range(0xD0, 0xD8)),  # RST0-7
    b"\xff\xff",  # fill
    b"\xff\xd9",  # EOI
    b"\xff\xc4",  # DHT
    b"\xff",
]


class TestScanEndAgainstByteLoop:
    @given(
        st.lists(st.sampled_from(SCAN_PIECES), max_size=40),
        st.integers(0, 100),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_streams(self, pieces, start):
        data = b"".join(pieces)
        start = min(start, len(data) + 2)
        assert markers._find_scan_end(data, start) == bytewise_find_scan_end(
            data, start
        )

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\xff",
            b"\x12\xff",
            b"\x12\xff\x00\xff",
            b"\xff\xd0\xff\xd7\xff\xff\xd9",
            b"\x12\xff\xff\x00",
            b"\x12\x34\xff\xd9",
        ],
    )
    def test_every_start_position(self, data):
        for start in range(len(data) + 3):
            assert markers._find_scan_end(
                data, start
            ) == bytewise_find_scan_end(data, start)

    def test_parse_segments_on_encoded_streams(self, monkeypatch):
        rng = np.random.default_rng(3)
        rgb = rng.integers(0, 256, (40, 56, 3)).astype(np.uint8)
        image = rgb_to_coefficients(rgb, quality=95)
        streams = [
            encode_coefficients(image, progressive=False),
            encode_coefficients(image, progressive=False, restart_interval=3),
            encode_coefficients(image, progressive=True),
        ]
        assert any(b"\xff\x00" in data for data in streams)
        assert b"\xff\xd2" in streams[1]
        ours = [markers.parse_segments(data) for data in streams]
        monkeypatch.setattr(markers, "_find_scan_end", bytewise_find_scan_end)
        assert ours == [markers.parse_segments(data) for data in streams]


def colour_images(dtype):
    """(h, w, 3) images of ``dtype``: floats include exact x.5 values
    and values far outside [0, 255]."""
    if dtype == np.uint8:
        elements = st.integers(0, 255)
    else:
        width = 32 if dtype == np.float32 else 64
        elements = st.one_of(
            st.floats(-300.0, 600.0, width=width),
            st.integers(-300, 600).map(lambda value: value + 0.5),
        )
    shapes = st.tuples(st.integers(1, 9), st.integers(1, 9), st.just(3))
    return shapes.flatmap(
        lambda shape: arrays(dtype, shape, elements=elements)
    )


def assert_bitwise_equal(ours, theirs):
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


class TestColourAgainstTextbook:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ycbcr_to_rgb_bitwise(self, dtype, data):
        ycbcr = data.draw(colour_images(dtype))
        assert_bitwise_equal(ycbcr_to_rgb(ycbcr), textbook_ycbcr_to_rgb(ycbcr))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rgb_to_ycbcr_bitwise(self, dtype, data):
        rgb = data.draw(colour_images(dtype))
        assert_bitwise_equal(rgb_to_ycbcr(rgb), textbook_rgb_to_ycbcr(rgb))

    def test_half_levels_round_to_even(self):
        """Neutral chroma keeps R = B = Y, so x.5 luma lands exactly on
        a rounding tie."""
        luma = np.array([-0.5, 0.5, 1.5, 2.5, 127.5, 254.5, 255.5])
        ycbcr = np.stack(
            [luma, np.full_like(luma, 128.0), np.full_like(luma, 128.0)], -1
        )[np.newaxis]
        rgb = ycbcr_to_rgb(ycbcr)
        assert_bitwise_equal(rgb, textbook_ycbcr_to_rgb(ycbcr))
        assert rgb[0, :, 0].tolist() == [0, 0, 2, 2, 128, 254, 255]

    def test_full_range_uint8_and_strided_inputs(self):
        levels = np.arange(256, dtype=np.uint8)
        rgb = np.stack(np.meshgrid(levels, levels[::-1], indexing="ij"), -1)
        rgb = np.concatenate([rgb, rgb[..., :1] ^ 0x5A], axis=-1)
        assert_bitwise_equal(rgb_to_ycbcr(rgb), textbook_rgb_to_ycbcr(rgb))
        ycbcr = textbook_rgb_to_ycbcr(rgb)[::3, ::-2]
        assert_bitwise_equal(ycbcr_to_rgb(ycbcr), textbook_ycbcr_to_rgb(ycbcr))
