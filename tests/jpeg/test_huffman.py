"""Tests for Huffman table construction and coding."""

import pytest

from repro.jpeg.huffman import (
    HuffmanTable,
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
    build_optimized_table,
)
from repro.jpeg.markers import JpegFormatError
from tests.jpeg.scalar_codec import (
    BitReader,
    BitWriter,
    HuffmanDecoder,
    HuffmanEncoder,
    decode_magnitude_bits,
    encode_magnitude_bits,
    magnitude_category,
)


class TestTableValidation:
    def test_bits_length_checked(self):
        with pytest.raises(ValueError):
            HuffmanTable(bits=(1,) * 15, values=(0,))

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            HuffmanTable(bits=(2,) + (0,) * 15, values=(0,))

    def test_standard_tables_consistent(self):
        for table in (
            STANDARD_DC_LUMINANCE,
            STANDARD_DC_CHROMINANCE,
            STANDARD_AC_LUMINANCE,
            STANDARD_AC_CHROMINANCE,
        ):
            assert sum(table.bits) == len(table.values)


class TestCanonicalCodes:
    def test_known_dc_luminance_codes(self):
        # Annex K.3.1: category 0 -> 00 (2 bits), category 2 -> 100.
        encoder = HuffmanEncoder(STANDARD_DC_LUMINANCE)
        assert encoder.code_for(0) == (0b00, 2)
        assert encoder.code_for(1) == (0b010, 3)
        assert encoder.code_for(2) == (0b011, 3)

    def test_codes_are_prefix_free(self):
        encoder = HuffmanEncoder(STANDARD_AC_LUMINANCE)
        codes = [
            encoder.code_for(symbol)
            for symbol in STANDARD_AC_LUMINANCE.values
        ]
        strings = [format(c, f"0{l}b") for c, l in codes]
        for i, a in enumerate(strings):
            for j, b in enumerate(strings):
                if i != j:
                    assert not b.startswith(a)


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "table",
        [STANDARD_DC_LUMINANCE, STANDARD_AC_LUMINANCE],
        ids=["dc", "ac"],
    )
    def test_roundtrip_all_symbols(self, table):
        encoder = HuffmanEncoder(table)
        decoder = HuffmanDecoder(table)
        writer = BitWriter()
        for symbol in table.values:
            encoder.encode(writer, symbol)
        writer.flush()
        reader = BitReader(writer.getvalue())
        for symbol in table.values:
            assert decoder.decode(reader) == symbol

    def test_unknown_symbol_raises(self):
        encoder = HuffmanEncoder(STANDARD_DC_LUMINANCE)
        with pytest.raises(ValueError):
            encoder.encode(BitWriter(), 0x99)


class TestOptimizedTables:
    def test_skewed_frequencies_give_short_codes(self):
        frequencies = {0: 10_000, 1: 100, 2: 10, 3: 1}
        table = build_optimized_table(frequencies)
        lengths = table.code_lengths()
        assert lengths[0] <= lengths[1] <= lengths[3]

    def test_all_symbols_present(self):
        frequencies = {i: i + 1 for i in range(40)}
        table = build_optimized_table(frequencies)
        assert set(table.values) == set(range(40))

    def test_roundtrip_with_optimized_table(self):
        frequencies = {i: (i * 37) % 19 + 1 for i in range(25)}
        table = build_optimized_table(frequencies)
        encoder = HuffmanEncoder(table)
        decoder = HuffmanDecoder(table)
        writer = BitWriter()
        symbols = [s for s in frequencies for _ in range(3)]
        for symbol in symbols:
            encoder.encode(writer, symbol)
        writer.flush()
        reader = BitReader(writer.getvalue())
        for symbol in symbols:
            assert decoder.decode(reader) == symbol

    def test_lengths_capped_at_16(self):
        # Exponential frequencies drive unbalanced trees; lengths must
        # still be limited to 16 bits.
        frequencies = {i: 2**i for i in range(30)}
        table = build_optimized_table(frequencies)
        assert max(table.code_lengths().values()) <= 16

    def test_tree_deeper_than_32_is_a_format_error(self):
        # Doubling counts build a 40-deep unlimited tree, past the
        # 33-entry BITS count the limiting step works on.
        with pytest.raises(
            JpegFormatError, match="Huffman code size table overflow"
        ):
            build_optimized_table({s: 2**s for s in range(40)})

    def test_single_symbol_table(self):
        table = build_optimized_table({7: 100})
        assert table.values == (7,)
        assert max(table.code_lengths().values()) >= 1

    def test_optimized_beats_standard_on_matching_data(self):
        frequencies = {0x01: 5000, 0x02: 3000, 0x00: 2000, 0x11: 100}
        table = build_optimized_table(frequencies)
        standard = HuffmanEncoder(STANDARD_AC_LUMINANCE)
        optimized = HuffmanEncoder(table)
        total_standard = sum(
            standard.code_for(s)[1] * n for s, n in frequencies.items()
        )
        total_optimized = sum(
            optimized.code_for(s)[1] * n for s, n in frequencies.items()
        )
        assert total_optimized <= total_standard


class TestMagnitudeCoding:
    @pytest.mark.parametrize(
        "value,category",
        [(0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (-3, 2), (255, 8),
         (-255, 8), (1023, 10), (-2047, 11)],
    )
    def test_categories(self, value, category):
        assert magnitude_category(value) == category

    @pytest.mark.parametrize("value", [0, 1, -1, 5, -5, 127, -128, 1000, -2000])
    def test_roundtrip(self, value):
        category = magnitude_category(value)
        bits = encode_magnitude_bits(value, category)
        assert decode_magnitude_bits(bits, category) == value
