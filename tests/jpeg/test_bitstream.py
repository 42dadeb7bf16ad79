"""Tests for the scalar oracle's bit-level I/O and byte stuffing."""

import pytest

from tests.jpeg.scalar_codec import BitReader, BitWriter, EndOfData, MarkerFound


class TestBitWriter:
    def test_single_byte(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        assert writer.getvalue() == b"\xab"

    def test_msb_first_ordering(self):
        writer = BitWriter()
        writer.write(0b1, 1)
        writer.write(0b0, 1)
        writer.write(0b101010, 6)
        assert writer.getvalue() == bytes([0b10101010])

    def test_flush_pads_with_ones(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.flush()
        assert writer.getvalue() == bytes([0b10111111])

    def test_byte_stuffing_on_ff(self):
        writer = BitWriter()
        writer.write(0xFF, 8)
        assert writer.getvalue() == b"\xff\x00"

    def test_stuffing_from_flush_padding(self):
        writer = BitWriter()
        writer.write(0b1111111, 7)  # flush pads to 0xFF
        writer.flush()
        assert writer.getvalue() == b"\xff\x00"

    def test_zero_bits_is_noop(self):
        writer = BitWriter()
        writer.write(123, 0)
        writer.flush()
        assert writer.getvalue() == b""

    def test_masks_excess_bits(self):
        writer = BitWriter()
        writer.write(0x1FF, 8)  # only the low 8 bits count
        assert writer.getvalue() == b"\xff\x00"

    def test_invalid_num_bits(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(0, 33)


class TestBitReader:
    def test_reads_msb_first(self):
        reader = BitReader(bytes([0b10110000]))
        assert reader.read_bit() == 1
        assert reader.read_bit() == 0
        assert reader.read(2) == 0b11

    def test_destuffs_ff00(self):
        reader = BitReader(b"\xff\x00\x80")
        assert reader.read(8) == 0xFF
        assert reader.read(8) == 0x80

    def test_stops_at_marker(self):
        reader = BitReader(b"\xaa\xff\xd9")
        assert reader.read(8) == 0xAA
        with pytest.raises(MarkerFound):
            reader.read_bit()
        assert reader.at_marker()
        assert reader.position == 1  # points at the 0xFF

    def test_end_of_data(self):
        reader = BitReader(b"\x12")
        reader.read(8)
        with pytest.raises(EndOfData):
            reader.read_bit()

    def test_align_to_byte(self):
        reader = BitReader(b"\xf0\x0f")
        reader.read(3)
        reader.align_to_byte()
        assert reader.read(8) == 0x0F


class TestRoundTrip:
    def test_writer_reader_roundtrip(self):
        import random

        random.seed(9)
        values = [
            (random.getrandbits(n), n)
            for n in (1, 3, 5, 8, 11, 16, 7, 2) * 25
        ]
        writer = BitWriter()
        for value, bits in values:
            writer.write(value, bits)
        writer.flush()
        reader = BitReader(writer.getvalue())
        for value, bits in values:
            assert reader.read(bits) == value
