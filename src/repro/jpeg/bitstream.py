"""Bit-level I/O for JPEG entropy-coded segments (ITU-T T.81 F.1.2.3).

JPEG writes entropy-coded data MSB-first.  Any 0xFF byte produced inside
an entropy-coded segment must be followed by a stuffed 0x00 so decoders
can distinguish data from markers; the reader strips the stuffing and
stops cleanly at a real marker.

The scalar :class:`BitReader`/:class:`BitWriter` pair is the readable
T.81 reference implementation, retained as the test oracle.  The
native engine's C kernel does its own bit I/O: it splits each scan at
its RSTn markers and destuffs the segments when decoding, and writes
stuffed bytes itself when encoding.
"""

from __future__ import annotations


class BitWriter:
    """Accumulates MSB-first bits into a byte-stuffed JPEG segment."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._bit_accumulator = 0
        self._bit_count = 0

    def write(self, value: int, num_bits: int) -> None:
        """Append the low ``num_bits`` bits of ``value``, MSB first."""
        if num_bits == 0:
            return
        if num_bits < 0 or num_bits > 32:
            raise ValueError(f"num_bits out of range: {num_bits}")
        value &= (1 << num_bits) - 1
        self._bit_accumulator = (self._bit_accumulator << num_bits) | value
        self._bit_count += num_bits
        while self._bit_count >= 8:
            self._bit_count -= 8
            byte = (self._bit_accumulator >> self._bit_count) & 0xFF
            self._buffer.append(byte)
            if byte == 0xFF:
                self._buffer.append(0x00)
        # Keep only the unwritten low bits to bound the accumulator size.
        self._bit_accumulator &= (1 << self._bit_count) - 1

    def flush(self) -> None:
        """Pad the final partial byte with 1-bits (T.81 F.1.2.3)."""
        if self._bit_count > 0:
            pad = 8 - self._bit_count
            self.write((1 << pad) - 1, pad)

    def write_restart_marker(self, index: int) -> None:
        """Flush to a byte boundary and emit RSTn (T.81 F.1.2.3)."""
        if not 0 <= index <= 7:
            raise ValueError(f"restart index out of range: {index}")
        self.flush()
        self._buffer.append(0xFF)
        self._buffer.append(0xD0 + index)

    def getvalue(self) -> bytes:
        """Return the stuffed entropy-coded bytes written so far."""
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class BitReader:
    """Reads MSB-first bits from a byte-stuffed entropy-coded segment.

    Reading stops (raises :class:`MarkerFound`) when a non-stuffed marker
    byte pair ``FF xx`` (xx != 0) is encountered, leaving the position at
    the 0xFF byte so the caller can parse the marker.
    """

    def __init__(self, data: bytes, position: int = 0) -> None:
        self._data = data
        self._position = position
        self._bit_accumulator = 0
        self._bit_count = 0
        self._marker_pending = False

    @property
    def position(self) -> int:
        """Byte offset of the next unread byte in the underlying data."""
        return self._position

    def _fill(self) -> None:
        if self._marker_pending:
            raise MarkerFound(self._position)
        if self._position >= len(self._data):
            raise EndOfData(self._position)
        byte = self._data[self._position]
        if byte == 0xFF:
            if self._position + 1 >= len(self._data):
                raise EndOfData(self._position)
            next_byte = self._data[self._position + 1]
            if next_byte == 0x00:
                self._position += 2  # stuffed data byte
            else:
                # Real marker: leave position at the 0xFF.
                self._marker_pending = True
                raise MarkerFound(self._position)
        else:
            self._position += 1
        self._bit_accumulator = (self._bit_accumulator << 8) | byte
        self._bit_count += 8

    def read_bit(self) -> int:
        """Read a single bit."""
        if self._bit_count == 0:
            self._fill()
        self._bit_count -= 1
        return (self._bit_accumulator >> self._bit_count) & 1

    def read(self, num_bits: int) -> int:
        """Read ``num_bits`` bits MSB-first and return them as an int."""
        value = 0
        for _ in range(num_bits):
            value = (value << 1) | self.read_bit()
        return value

    def align_to_byte(self) -> None:
        """Discard buffered bits so reading resumes on a byte boundary."""
        self._bit_count = 0
        self._bit_accumulator = 0

    def at_marker(self) -> bool:
        """True if the reader has stopped in front of a marker byte."""
        return self._marker_pending

    def consume_restart_marker(self) -> int:
        """Skip an RSTn marker at the current byte position.

        Returns the restart index n (0-7).  Discards any buffered bits
        first (restart markers are byte-aligned by construction).
        """
        self.align_to_byte()
        self._marker_pending = False
        data = self._data
        position = self._position
        if position + 1 >= len(data) or data[position] != 0xFF:
            raise ValueError(
                f"expected restart marker at offset {position}"
            )
        marker = data[position + 1]
        if not 0xD0 <= marker <= 0xD7:
            raise ValueError(
                f"expected RSTn at offset {position}, found 0x{marker:02X}"
            )
        self._position = position + 2
        return marker - 0xD0


class MarkerFound(Exception):
    """Raised by :class:`BitReader` when a real marker interrupts data."""

    def __init__(self, position: int) -> None:
        super().__init__(f"marker encountered at byte offset {position}")
        self.position = position


class EndOfData(Exception):
    """Raised by :class:`BitReader` at the end of the byte stream."""

    def __init__(self, position: int) -> None:
        super().__init__(f"end of data at byte offset {position}")
        self.position = position
