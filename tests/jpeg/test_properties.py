"""Property-based tests for the JPEG substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.jpeg import codec
from repro.jpeg.huffman import build_optimized_table
from repro.jpeg.zigzag import from_zigzag, to_zigzag
from tests.jpeg.scalar_codec import (
    BitReader,
    BitWriter,
    HuffmanDecoder,
    HuffmanEncoder,
    decode_magnitude_bits,
    encode_magnitude_bits,
    magnitude_category,
)


@st.composite
def bit_chunks(draw):
    count = draw(st.integers(1, 80))
    chunks = []
    for _ in range(count):
        bits = draw(st.integers(1, 24))
        value = draw(st.integers(0, (1 << bits) - 1))
        chunks.append((value, bits))
    return chunks


class TestBitstreamProperties:
    @given(bit_chunks())
    @settings(max_examples=60, deadline=None)
    def test_write_read_roundtrip(self, chunks):
        writer = BitWriter()
        for value, bits in chunks:
            writer.write(value, bits)
        writer.flush()
        reader = BitReader(writer.getvalue())
        for value, bits in chunks:
            assert reader.read(bits) == value

    @given(bit_chunks())
    @settings(max_examples=30, deadline=None)
    def test_output_never_contains_bare_marker(self, chunks):
        writer = BitWriter()
        for value, bits in chunks:
            writer.write(value, bits)
        writer.flush()
        data = writer.getvalue()
        for index in range(len(data) - 1):
            if data[index] == 0xFF:
                assert data[index + 1] == 0x00


class TestMagnitudeProperties:
    @given(st.integers(-32767, 32767))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, value):
        category = magnitude_category(value)
        assert decode_magnitude_bits(
            encode_magnitude_bits(value, category), category
        ) == value

    @given(st.integers(-32767, 32767))
    @settings(max_examples=100, deadline=None)
    def test_category_is_bit_length(self, value):
        assert magnitude_category(value) == abs(value).bit_length()


class TestZigzagProperties:
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, by, bx, seed):
        rng = np.random.default_rng(seed)
        blocks = rng.integers(-1000, 1000, (by, bx, 64))
        assert np.array_equal(from_zigzag(to_zigzag(blocks)), blocks)


class TestHuffmanProperties:
    @given(
        st.dictionaries(
            st.integers(0, 255), st.integers(1, 10_000), min_size=1,
            max_size=60,
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_optimized_table_roundtrips_any_frequencies(
        self, frequencies, seed
    ):
        table = build_optimized_table(frequencies)
        assert set(table.values) == set(frequencies)
        assert max(table.code_lengths().values()) <= 16
        encoder = HuffmanEncoder(table)
        decoder = HuffmanDecoder(table)
        rng = np.random.default_rng(seed)
        symbols = rng.choice(list(frequencies), size=50)
        writer = BitWriter()
        for symbol in symbols:
            encoder.encode(writer, int(symbol))
        writer.flush()
        reader = BitReader(writer.getvalue())
        for symbol in symbols:
            assert decoder.decode(reader) == symbol


class TestCodecProperties:
    @given(
        st.integers(8, 40),
        st.integers(8, 40),
        st.integers(0, 2**31 - 1),
        st.sampled_from([50, 75, 90, 100]),
    )
    @settings(max_examples=15, deadline=None)
    def test_gray_roundtrip_never_crashes_and_bounds_error(
        self, height, width, seed, quality
    ):
        rng = np.random.default_rng(seed)
        # Smooth random images (noise + gradient) to keep error modest.
        image = rng.uniform(0, 255, (height, width))
        data = codec.encode_gray(image, quality=quality)
        decoded = codec.decode(data)
        assert decoded.shape == (height, width)
        assert decoded.min() >= 0.0 and decoded.max() <= 255.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_transcode_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.uniform(0, 255, (24, 24))
        data = codec.encode_gray(image, quality=85)
        coefficients = codec.decode_coefficients(data)
        once = codec.encode_coefficients(coefficients)
        twice = codec.encode_coefficients(codec.decode_coefficients(once))
        assert once == twice
