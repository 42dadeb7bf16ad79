"""Canonical Huffman tables and codecs for JPEG (ITU-T T.81 Annex C/F/K).

A JPEG Huffman table is transmitted as BITS (the number of codes of each
length 1..16) plus HUFFVAL (the symbol values in code order).  This module
builds encoder maps and Annex-F decoder tables from that representation,
ships the Annex-K standard tables, and can derive optimized tables from
symbol frequencies (the equivalent of libjpeg's two-pass optimal coding).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.jpeg.bitstream import BitReader, BitWriter
from repro.jpeg.markers import JpegFormatError


@dataclass(frozen=True)
class HuffmanTable:
    """A JPEG Huffman table in its transmitted (BITS, HUFFVAL) form."""

    bits: tuple[int, ...]  # 16 counts, bits[i] = #codes of length i+1
    values: tuple[int, ...]  # symbols in canonical order

    def __post_init__(self) -> None:
        if len(self.bits) != 16:
            raise ValueError(f"BITS must have 16 entries, got {len(self.bits)}")
        if sum(self.bits) != len(self.values):
            raise ValueError(
                f"BITS promises {sum(self.bits)} codes but HUFFVAL has "
                f"{len(self.values)}"
            )

    def code_lengths(self) -> dict[int, int]:
        """Map each symbol to its code length in bits."""
        lengths: dict[int, int] = {}
        index = 0
        for length_minus_1, count in enumerate(self.bits):
            for _ in range(count):
                lengths[self.values[index]] = length_minus_1 + 1
                index += 1
        return lengths


class HuffmanEncoder:
    """Encodes symbols with a canonical Huffman table."""

    def __init__(self, table: HuffmanTable) -> None:
        self._codes: dict[int, tuple[int, int]] = {}
        code = 0
        index = 0
        for length_minus_1, count in enumerate(table.bits):
            length = length_minus_1 + 1
            for _ in range(count):
                symbol = table.values[index]
                self._codes[symbol] = (code, length)
                code += 1
                index += 1
            code <<= 1

    def encode(self, writer: BitWriter, symbol: int) -> None:
        """Write the code for ``symbol`` to ``writer``."""
        try:
            code, length = self._codes[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol:#x} not in Huffman table")
        writer.write(code, length)

    def code_for(self, symbol: int) -> tuple[int, int]:
        """Return ``(code, length)`` for a symbol (for testing)."""
        return self._codes[symbol]

    def __contains__(self, symbol: int) -> bool:
        return symbol in self._codes


class HuffmanDecoder:
    """Decodes symbols using the Annex F.2.2.3 MINCODE/MAXCODE procedure."""

    def __init__(self, table: HuffmanTable) -> None:
        self._min_code = [0] * 17
        self._max_code = [-1] * 17
        self._val_pointer = [0] * 17
        self._values = table.values
        code = 0
        index = 0
        for length in range(1, 17):
            count = table.bits[length - 1]
            if count:
                self._val_pointer[length] = index
                self._min_code[length] = code
                code += count
                index += count
                self._max_code[length] = code - 1
            else:
                self._max_code[length] = -1
            code <<= 1

    def decode(self, reader: BitReader) -> int:
        """Read one Huffman-coded symbol from ``reader``."""
        code = reader.read_bit()
        length = 1
        while code > self._max_code[length]:
            length += 1
            if length > 16:
                raise ValueError("corrupt Huffman code (length > 16)")
            code = (code << 1) | reader.read_bit()
        offset = code - self._min_code[length]
        return self._values[self._val_pointer[length] + offset]


def build_optimized_table(frequencies: dict[int, int]) -> HuffmanTable:
    """Build a length-limited (16 bit) Huffman table from symbol counts.

    Implements the Annex K.2 two-step procedure used by libjpeg's
    optimal-coding pass, including the reserved all-ones codeword (a
    dummy 256 symbol) and the code-length limiting adjustment.  Like
    libjpeg, raises :class:`~repro.jpeg.markers.JpegFormatError` when
    the unlimited tree is deeper than 32 bits, before limiting.
    """
    # Symbol 256 is the dummy guaranteeing no real symbol gets the
    # all-ones code (T.81 K.2).  libjpeg's scan merges the two smallest
    # counts, taking the highest symbol on ties (its ``<=``); a heap keyed
    # ``(count, -symbol)`` pops in exactly that order.
    heap = [(1, -256)]
    for symbol, count in frequencies.items():
        if not 0 <= symbol <= 255:
            raise ValueError(f"symbol out of range: {symbol}")
        if count > 0:
            heap.append((count, -symbol))
    heapq.heapify(heap)

    code_size = [0] * 257
    others = [-1] * 257

    while len(heap) > 1:
        count1, v1 = heapq.heappop(heap)
        count2, v2 = heapq.heappop(heap)
        v1, v2 = -v1, -v2
        heapq.heappush(heap, (count1 + count2, -v1))
        code_size[v1] += 1
        while others[v1] >= 0:
            v1 = others[v1]
            code_size[v1] += 1
        others[v1] = v2
        code_size[v2] += 1
        while others[v2] >= 0:
            v2 = others[v2]
            code_size[v2] += 1

    bits = [0] * 33
    for i in range(257):
        if code_size[i]:
            if code_size[i] > 32:
                # libjpeg's check (jchuff.c): counts shaped like a
                # Fibonacci sequence can build a tree this deep.
                raise JpegFormatError("Huffman code size table overflow")
            bits[code_size[i]] += 1

    # Limit code lengths to 16 bits (T.81 K.2 figure K.3).
    for length in range(32, 16, -1):
        while bits[length] > 0:
            shorter = length - 2
            while bits[shorter] == 0:
                shorter -= 1
            bits[length] -= 2
            bits[length - 1] += 1
            bits[shorter + 1] += 2
            bits[shorter] -= 1

    # Remove the dummy symbol's code (the longest one).
    for length in range(16, 0, -1):
        if bits[length] > 0:
            bits[length] -= 1
            break

    # Sort symbols by code size then value (canonical order).
    pairs = sorted(
        (code_size[symbol], symbol)
        for symbol in range(256)
        if code_size[symbol] > 0
    )
    values = tuple(symbol for _, symbol in pairs)
    return HuffmanTable(bits=tuple(bits[1:17]), values=values)


def _table(bits: list[int], values: list[int]) -> HuffmanTable:
    return HuffmanTable(bits=tuple(bits), values=tuple(values))


#: Annex K Table K.3 — standard luminance DC table.
STANDARD_DC_LUMINANCE = _table(
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)

#: Annex K Table K.4 — standard chrominance DC table.
STANDARD_DC_CHROMINANCE = _table(
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)

#: Annex K Table K.5 — standard luminance AC table.
STANDARD_AC_LUMINANCE = _table(
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)

#: Annex K Table K.6 — standard chrominance AC table.
STANDARD_AC_CHROMINANCE = _table(
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)


def magnitude_category(value: int) -> int:
    """Return the JPEG magnitude category (SSSS) of a coefficient."""
    magnitude = abs(int(value))
    category = 0
    while magnitude:
        magnitude >>= 1
        category += 1
    return category


def encode_magnitude_bits(value: int, category: int) -> int:
    """Return the 'additional bits' for a value in the given category.

    Positive values are written as-is; negative values use the one's
    complement convention of T.81 F.1.2.1.
    """
    if category == 0:
        return 0
    if value >= 0:
        return value
    return value + (1 << category) - 1


def decode_magnitude_bits(bits: int, category: int) -> int:
    """Inverse of :func:`encode_magnitude_bits` (T.81 F.2.2.1 EXTEND)."""
    if category == 0:
        return 0
    if bits < (1 << (category - 1)):
        return bits - (1 << category) + 1
    return bits


# ---------------------------------------------------------------------------
# Native engine: tables in the flat forms the C kernel's decode and
# encode loops read.
# ---------------------------------------------------------------------------


class HuffmanLookupTable:
    """Flat peek-16 decoding table: one probe per symbol.

    ``entries[p]`` for any 16-bit lookahead ``p`` is
    ``(code_length << 8) | symbol`` when the prefix of ``p`` is a valid
    code, else 0 (no code is length 0, and symbol 0 always carries a
    nonzero length, so 0 is unambiguous).  The C kernel's decode loops
    probe it once per symbol (``p3_huff_symbol``): a zero entry is a
    corrupt code, else they consume ``entry >> 8`` bits and take
    ``entry & 0xFF``.  ``entries`` is an int32 array of 256 KB per table.
    """

    __slots__ = ("entries",)

    def __init__(self, table: HuffmanTable) -> None:
        entries = np.zeros(1 << 16, dtype=np.int32)
        code = 0
        index = 0
        for length_minus_1, count in enumerate(table.bits):
            length = length_minus_1 + 1
            for _ in range(count):
                start = code << (16 - length)
                span = 1 << (16 - length)
                entries[start : start + span] = (
                    (length << 8) | table.values[index]
                )
                code += 1
                index += 1
            code <<= 1
        self.entries = entries


@lru_cache(maxsize=64)
def lookup_table(table: HuffmanTable) -> HuffmanLookupTable:
    """Cached :class:`HuffmanLookupTable` for a (hashable) table."""
    return HuffmanLookupTable(table)


@lru_cache(maxsize=64)
def encoder_code_arrays(table: HuffmanTable) -> tuple[np.ndarray, np.ndarray]:
    """Canonical codes as symbol-indexed arrays ``(codes, lengths)``.

    ``lengths[s] == 0`` marks a symbol absent from the table; both
    arrays have 256 entries, one per symbol, which is how the C
    kernel's encode loops look codes up.
    """
    codes = np.zeros(256, dtype=np.uint64)
    lengths = np.zeros(256, dtype=np.int64)
    code = 0
    index = 0
    for length_minus_1, count in enumerate(table.bits):
        length = length_minus_1 + 1
        for _ in range(count):
            symbol = table.values[index]
            codes[symbol] = code
            lengths[symbol] = length
            code += 1
            index += 1
        code <<= 1
    codes.setflags(write=False)
    lengths.setflags(write=False)
    return codes, lengths
