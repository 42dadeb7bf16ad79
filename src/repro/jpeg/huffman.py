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

from repro.jpeg.bitstream import BitReader, BitWriter, pack_entropy_bits
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
# Native engine: flat lookup tables for the C decoder, and batch symbol
# generation, the encode front end of the C packer.
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
    arrays have 256 entries so any uint8 symbol array can fancy-index
    them directly.
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


def magnitude_categories(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`magnitude_category`: bit length of ``|value|``.

    Exact for ``|value| < 2**53`` (frexp on float64); JPEG coefficients
    and DC differences are far below that.
    """
    return np.frexp(np.abs(values).astype(np.float64))[1].astype(np.int64)


def encode_magnitude_bits_batch(
    values: np.ndarray, categories: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`encode_magnitude_bits` (one's complement)."""
    values = values.astype(np.int64)
    return np.where(
        values >= 0,
        values,
        values + (np.int64(1) << categories) - 1,
    )


def encode_dc_symbols(
    dc_values: np.ndarray,
    reset_before: np.ndarray | None = None,
    al: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Difference-code a visit-ordered DC sequence.

    ``dc_values`` are the component's DC coefficients in scan visit
    order; ``reset_before[i]`` True restarts the predictor at block
    ``i`` (restart-marker boundaries).  Returns ``(categories,
    extra_bits)`` — the Huffman symbols and their magnitude payloads.
    ``al`` applies the progressive point transform (arithmetic shift).
    """
    shifted = dc_values.astype(np.int64) >> al
    previous = np.empty_like(shifted)
    if shifted.size:
        previous[0] = 0
        previous[1:] = shifted[:-1]
        if reset_before is not None:
            previous[reset_before] = 0
    diffs = shifted - previous
    categories = magnitude_categories(diffs)
    extras = encode_magnitude_bits_batch(diffs, categories)
    return categories, extras


@dataclass
class AcTokenBatch:
    """Run-length tokens for a stack of blocks, ready to order and pack.

    Token arrays are parallel; ``rank`` orders tokens *within* a block:
    the value token for band position ``k`` has rank ``(k + 1) * 8 + 7``
    and its preceding ZRLs ranks ``(k + 1) * 8 + j`` — so callers can
    splice in extra tokens (DC pairs at rank 0, EOB markers at rank
    ``END_RANK``, EOB-runs at negative ranks) and sort once by
    ``(block, rank)``.  ``last_nonzero`` is per-block, -1 for blocks
    with no nonzero coefficient in the (point-transformed) band.
    """

    block: np.ndarray  # token -> block index
    rank: np.ndarray  # token order within its block
    symbol: np.ndarray  # (run << 4) | size Huffman symbols
    extra: np.ndarray  # magnitude payload bits
    extra_length: np.ndarray  # payload widths (0 for ZRL)
    last_nonzero: np.ndarray  # per block, band-relative, -1 if empty
    band_length: int
    num_blocks: int

    #: Rank placing a token after every in-band token of its block.
    END_RANK = 10**6


def encode_block_symbols(
    blocks: np.ndarray,
    spectral_start: int = 1,
    spectral_end: int = 63,
    al: int = 0,
) -> AcTokenBatch:
    """Batch the AC run-length/magnitude symbols for a block stack.

    ``blocks`` is an (N, 64) array of zigzag blocks.  Computes, for the
    whole stack at once, the (ZRL*, (run|size), magnitude-bits) token
    sequences of T.81 F.1.2.2 restricted to the band
    ``[spectral_start, spectral_end]``, after the progressive point
    transform ``sign(v) * (|v| >> al)``.  End-of-block/EOB-run tokens
    are the caller's: baseline and progressive treat them differently.
    """
    band = blocks[:, spectral_start : spectral_end + 1].astype(np.int64)
    if al:
        band = np.sign(band) * (np.abs(band) >> al)
    num_blocks, band_length = band.shape

    block_ids, positions = np.nonzero(band)
    values = band[block_ids, positions]

    # Zero-run before each nonzero: distance to the previous nonzero in
    # the same block (np.nonzero returns row-major order, so previous
    # entry is the previous nonzero unless the block changes).
    previous = np.concatenate(([-1], positions[:-1]))
    first_in_block = np.empty(block_ids.size, dtype=bool)
    if block_ids.size:
        first_in_block[0] = True
        first_in_block[1:] = block_ids[1:] != block_ids[:-1]
    previous = np.where(first_in_block, -1, previous)
    runs = positions - previous - 1

    zrl_counts = runs >> 4
    final_runs = runs & 15
    categories = magnitude_categories(values)
    extras = encode_magnitude_bits_batch(values, categories)
    value_symbols = (final_runs << 4) | categories
    value_ranks = (positions + 1) * 8 + 7

    total_zrl = int(zrl_counts.sum())
    if total_zrl:
        zrl_blocks = np.repeat(block_ids, zrl_counts)
        starts = np.cumsum(zrl_counts) - zrl_counts
        within = np.arange(total_zrl) - np.repeat(starts, zrl_counts)
        zrl_ranks = np.repeat((positions + 1) * 8, zrl_counts) + within
        token_block = np.concatenate([block_ids, zrl_blocks])
        token_rank = np.concatenate([value_ranks, zrl_ranks])
        token_symbol = np.concatenate(
            [value_symbols, np.full(total_zrl, 0xF0, dtype=np.int64)]
        )
        token_extra = np.concatenate(
            [extras, np.zeros(total_zrl, dtype=np.int64)]
        )
        token_extra_length = np.concatenate(
            [categories, np.zeros(total_zrl, dtype=np.int64)]
        )
    else:
        token_block = block_ids
        token_rank = value_ranks
        token_symbol = value_symbols
        token_extra = extras
        token_extra_length = categories

    last_nonzero = np.full(num_blocks, -1, dtype=np.int64)
    if block_ids.size:
        np.maximum.at(last_nonzero, block_ids, positions)

    return AcTokenBatch(
        block=token_block,
        rank=token_rank,
        symbol=token_symbol,
        extra=token_extra,
        extra_length=token_extra_length,
        last_nonzero=last_nonzero,
        band_length=band_length,
        num_blocks=num_blocks,
    )


def interleaved_visit_arrays(
    samplings: list[tuple[int, int]], mcus: tuple[int, int]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorized MCU traversal order for an interleaved scan.

    For each component (given as ``(h, v)`` sampling factors) returns
    ``(flat, g, mcu)`` arrays over that component's blocks in scan visit
    order: ``flat`` indexes the MCU-padded block grid viewed as
    ``(num_blocks, 64)``, ``g`` is the global visit rank (shared across
    components — sorting any token stream by ``g`` reproduces the T.81
    A.2.3 interleave), and ``mcu`` the linear MCU index (for
    restart-interval segmentation).
    """
    mcus_y, mcus_x = mcus
    blocks_per_mcu = sum(h * v for h, v in samplings)
    offset = 0
    result = []
    for h, v in samplings:
        padded_x = mcus_x * h
        my = np.arange(mcus_y).reshape(-1, 1, 1, 1)
        mx = np.arange(mcus_x).reshape(1, -1, 1, 1)
        dy = np.arange(v).reshape(1, 1, -1, 1)
        dx = np.arange(h).reshape(1, 1, 1, -1)
        shape = (mcus_y, mcus_x, v, h)
        flat = ((my * v + dy) * padded_x + mx * h + dx).reshape(-1)
        mcu = np.broadcast_to(my * mcus_x + mx, shape).reshape(-1)
        within = np.broadcast_to(dy * h + dx, shape).reshape(-1)
        g = mcu * blocks_per_mcu + offset + within
        result.append((flat, g, mcu))
        offset += h * v
    return result


def bincount_frequencies(symbols: np.ndarray) -> dict[int, int]:
    """Symbol histogram as the dict :func:`build_optimized_table` takes."""
    if symbols.size == 0:
        return {}
    counts = np.bincount(symbols.astype(np.int64))
    return {
        int(symbol): int(count)
        for symbol, count in enumerate(counts)
        if count
    }


def merge_frequencies(
    accumulator: dict[int, int], symbols: np.ndarray
) -> None:
    """Add a symbol array's histogram into ``accumulator`` in place."""
    for symbol, count in bincount_frequencies(symbols).items():
        accumulator[symbol] = accumulator.get(symbol, 0) + count


def interleave_code_pairs(
    codes: np.ndarray,
    code_lengths: np.ndarray,
    extras: np.ndarray,
    extra_lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Zip (code, extra-bits) token pairs into one packable sequence."""
    values = np.empty(2 * codes.size, dtype=np.uint64)
    lengths = np.empty(2 * codes.size, dtype=np.int64)
    values[0::2] = codes
    values[1::2] = extras.astype(np.uint64)
    lengths[0::2] = code_lengths
    lengths[1::2] = extra_lengths
    return values, lengths


def codes_for_symbols(
    symbols: np.ndarray, table: HuffmanTable
) -> tuple[np.ndarray, np.ndarray]:
    """Map a symbol array to ``(codes, code_lengths)``, validating."""
    codes_by_symbol, lengths_by_symbol = encoder_code_arrays(table)
    codes = codes_by_symbol[symbols]
    lengths = lengths_by_symbol[symbols]
    if symbols.size and not lengths.all():
        missing = int(symbols[np.nonzero(lengths == 0)[0][0]])
        raise ValueError(f"symbol {missing:#x} not in Huffman table")
    return codes, lengths


def pack_tokens_with_table(
    g: np.ndarray,
    rank: np.ndarray,
    symbols: np.ndarray,
    extras: np.ndarray,
    extra_lengths: np.ndarray,
    table: HuffmanTable,
) -> bytes:
    """Order a single-table token stream by (g, rank) and pack it."""
    codes, code_lengths = codes_for_symbols(symbols, table)
    order = np.lexsort((rank, g))
    values, lengths = interleave_code_pairs(
        codes[order],
        code_lengths[order],
        extras[order],
        extra_lengths[order],
    )
    return pack_entropy_bits(values, lengths)


def dc_scan_token_bundles(
    blocks_per_component: list[np.ndarray],
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    al: int = 0,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Batch-difference-code an interleaved DC scan.

    ``blocks_per_component`` holds the MCU-padded zigzag arrays of the
    scan's components.  Returns per-component ``(g, categories,
    extra_bits)`` bundles in visit order.
    """
    visits = interleaved_visit_arrays(samplings, mcus)
    bundles = []
    for (flat, g, _), blocks in zip(visits, blocks_per_component):
        flattened = blocks.reshape(-1, 64)
        categories, extras = encode_dc_symbols(flattened[flat, 0], None, al)
        bundles.append((g, categories, extras))
    return bundles


def pack_dc_scan_tokens(
    bundles: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    tables: list[HuffmanTable],
) -> bytes:
    """Map per-component DC bundles through their tables and pack."""
    all_g = []
    all_codes = []
    all_code_lengths = []
    all_extras = []
    all_extra_lengths = []
    for (g, categories, extras), table in zip(bundles, tables):
        codes, code_lengths = codes_for_symbols(categories, table)
        all_g.append(g)
        all_codes.append(codes)
        all_code_lengths.append(code_lengths)
        all_extras.append(extras)
        all_extra_lengths.append(categories)
    g = np.concatenate(all_g)
    order = np.argsort(g, kind="stable")
    values, lengths = interleave_code_pairs(
        np.concatenate(all_codes)[order],
        np.concatenate(all_code_lengths)[order],
        np.concatenate(all_extras)[order],
        np.concatenate(all_extra_lengths)[order],
    )
    return pack_entropy_bits(values, lengths)


#: Rank offset placing progressive EOB-run tokens before a block's own
#: in-band tokens (which start at rank 8).
_EOB_RUN_RANK = -(1 << 30)

#: Largest EOB run one symbol can carry (T.81 G.1.2.2, jcphuff cap).
MAX_EOB_RUN = 0x7FFF


def progressive_ac_tokens(
    blocks: np.ndarray, spectral_start: int, spectral_end: int, al: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Token stream of one progressive AC first scan, EOB-runs included.

    ``blocks`` is the component's (N, 64) zigzag stack in scan order.
    Empty bands join end-of-band runs; a block whose last nonzero falls
    short of ``spectral_end`` contributes its trailing EOB to the run;
    runs flush before the next non-empty block (or at scan end), split
    at :data:`MAX_EOB_RUN` exactly like the scalar ``_EobState``
    (scans.py).
    Returns ``(g, rank, symbols, extras, extra_lengths)`` ready for
    :func:`pack_tokens_with_table`.
    """
    batch = encode_block_symbols(blocks, spectral_start, spectral_end, al)
    empty = batch.last_nonzero < 0
    trailing = (~empty) & (batch.last_nonzero < batch.band_length - 1)
    contributions = (empty | trailing).astype(np.int64)
    cumulative = np.concatenate(([0], np.cumsum(contributions)))
    barriers = np.nonzero(~empty)[0]
    bounds = np.concatenate([barriers, [batch.num_blocks]])
    previous = np.concatenate(([0], cumulative[barriers]))
    runs = cumulative[bounds] - previous

    has_run = runs > 0
    run_positions = bounds[has_run]
    run_values = runs[has_run]
    full_chunks = run_values // MAX_EOB_RUN
    remainders = run_values % MAX_EOB_RUN
    chunk_counts = full_chunks + (remainders > 0)
    total_chunks = int(chunk_counts.sum())
    if not total_chunks:
        return (
            batch.block,
            batch.rank,
            batch.symbol,
            batch.extra,
            batch.extra_length,
        )

    positions = np.repeat(run_positions, chunk_counts)
    starts = np.cumsum(chunk_counts) - chunk_counts
    within = np.arange(total_chunks) - np.repeat(starts, chunk_counts)
    chunk_runs = np.where(
        within < np.repeat(full_chunks, chunk_counts),
        MAX_EOB_RUN,
        np.repeat(remainders, chunk_counts),
    )
    categories = magnitude_categories(chunk_runs) - 1
    eob_symbols = categories << 4
    eob_extras = chunk_runs - (np.int64(1) << categories)
    eob_ranks = _EOB_RUN_RANK + within

    return (
        np.concatenate([batch.block, positions]),
        np.concatenate([batch.rank, eob_ranks]),
        np.concatenate([batch.symbol, eob_symbols]),
        np.concatenate([batch.extra, eob_extras]),
        np.concatenate([batch.extra_length, categories]),
    )


def encode_ac_first_scan(
    blocks: np.ndarray,
    spectral_start: int,
    spectral_end: int,
    al: int = 0,
) -> tuple[HuffmanTable, bytes]:
    """Encode one progressive AC first scan with an optimized table.

    The recipe ``run_scan`` (scans.py) uses for every AC first scan,
    spectral selection (``al=0``) and successive approximation alike:
    batch the token stream, pick the optimal table from its histogram
    (standard-luminance fallback for an empty scan), and pack.  Returns
    ``(table, entropy_bytes)``.
    """
    token_stream = progressive_ac_tokens(
        blocks, spectral_start, spectral_end, al
    )
    frequencies = bincount_frequencies(token_stream[2])
    table = (
        build_optimized_table(frequencies)
        if frequencies
        else STANDARD_AC_LUMINANCE
    )
    return table, pack_tokens_with_table(*token_stream, table)


#: The scalar ``_EobState`` force-flush thresholds (scans.py): an EOB
#: run splits at 0x7FFF, buffered correction bits at > 900.
MAX_BUFFERED_CORRECTION_BITS = 900


def refinement_ac_stream(
    blocks: np.ndarray, spectral_start: int, spectral_end: int, al: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token stream of one progressive AC *refinement* scan (G.1.2.3).

    Batches, across the whole ``(N, 64)`` zigzag stack, exactly what
    the scalar ``encode_ac_refinement`` + ``_EobState`` pair emits:

    * newly significant coefficients (``|v| >> al == 1``) produce a
      ``(run << 4) | 1`` symbol plus a sign bit, with ZRL symbols
      splitting zero-runs above 15 — but only up to the block's last
      newly significant coefficient;
    * already significant coefficients ride along as buffered
      correction bits, flushed after the *next* emitted symbol;
    * blocks whose tail holds only zeros/corrections join a global
      EOB run that flushes before the next emitting block (or at the
      scalar engine's forced thresholds), carrying the accumulated
      correction bits.

    Returns ``(symbols, raw_values, raw_lengths)`` in final stream
    order: ``symbols[i] >= 0`` is a Huffman symbol, ``-1`` marks a raw
    bit write of ``raw_values[i]`` / ``raw_lengths[i]``.
    """
    band = blocks[:, spectral_start : spectral_end + 1].astype(np.int64)
    num_blocks, length = band.shape
    t = np.abs(band) >> al
    is_zero = t == 0
    is_new = t == 1
    is_corr = t > 1
    cols = np.arange(length)

    has_new = is_new.any(axis=1)
    last_new = np.where(
        has_new, length - 1 - np.argmax(is_new[:, ::-1], axis=1), -1
    )

    # excl_cz[b, k] = zeros at positions < k within block b.
    excl_cz = np.zeros((num_blocks, length + 1), dtype=np.int64)
    np.cumsum(is_zero, axis=1, out=excl_cz[:, 1:])

    # Last newly-significant position <= k, stored as pos+1 (0 = none);
    # shifting right gives the segment delimiter strictly before k.
    last_new_incl = np.maximum.accumulate(
        np.where(is_new, cols + 1, 0), axis=1
    )
    prev_new_plus1 = np.zeros_like(last_new_incl)
    prev_new_plus1[:, 1:] = last_new_incl[:, :-1]

    # Zeros in the current segment strictly before k: run length on
    # arrival (corrections do not reset or extend the run).
    seg_base = np.take_along_axis(excl_cz, prev_new_plus1, axis=1)
    z_seg = excl_cz[:, :length] - seg_base

    # Arrival points: nonzero positions up to last_new, row-major.
    main = cols[None, :] <= last_new[:, None]
    nz_b, nz_k = np.nonzero(~is_zero & main)
    z_nz = z_seg[nz_b, nz_k]
    g_nz = z_nz >> 4  # cumulative ZRLs due in this segment on arrival

    # ZRLs actually fired at each arrival: the increment of g over the
    # previous arrival in the same segment (the newly coefficient that
    # closed the previous segment resets the baseline to zero).
    prev_is_same_block = np.zeros(nz_b.size, dtype=bool)
    prev_is_same_block[1:] = nz_b[1:] == nz_b[:-1]
    prev_k = np.zeros_like(nz_k)
    prev_k[1:] = nz_k[:-1]
    delimiter = prev_new_plus1[nz_b, nz_k] - 1
    same_segment = prev_is_same_block & (prev_k > delimiter)
    prev_g = np.zeros_like(g_nz)
    prev_g[1:] = g_nz[:-1]
    zrl_count = g_nz - np.where(same_segment, prev_g, 0)

    newly_sel = is_new[nz_b, nz_k]
    emits = (zrl_count > 0) | newly_sel

    # Sub-rank layout at one arrival position: ZRL #j at 10*j, the
    # newly symbol at 10*(c+1) and its sign bit right after, buffered
    # correction bits at 15 — after the first emitted token (ZRL #1
    # when c >= 1, the sign bit when c == 0), before ZRL #2.
    total_zrl = int(zrl_count.sum())
    arrival = np.repeat(np.arange(zrl_count.size), zrl_count)
    zrl_j = (
        np.arange(total_zrl)
        - np.repeat(np.cumsum(zrl_count) - zrl_count, zrl_count)
        + 1
    )
    new_b = nz_b[newly_sel]
    new_k = nz_k[newly_sel]
    new_sub = 10 * (zrl_count[newly_sel] + 1)
    new_symbols = ((z_nz[newly_sel] & 15) << 4) | 1
    sign_bits = (band[new_b, new_k] >= 0).astype(np.int64)

    # Correction bits in the main region flush after the first token of
    # the next emitting arrival strictly past their position.
    cb_b, cb_k = np.nonzero(is_corr & main)
    cb_val = t[cb_b, cb_k] & 1
    em_key = nz_b[emits] * (length + 1) + nz_k[emits]
    flush_index = np.searchsorted(
        em_key, cb_b * (length + 1) + cb_k, side="right"
    )
    flush_p = nz_k[emits][flush_index] if cb_b.size else cb_k

    token_b = np.concatenate([nz_b[arrival], new_b, new_b, cb_b])
    token_p = np.concatenate([nz_k[arrival], new_k, new_k, flush_p])
    token_sub = np.concatenate(
        [10 * zrl_j, new_sub, new_sub + 1, np.full(cb_b.size, 15)]
    )
    token_tie = np.concatenate(
        [
            np.zeros(total_zrl, dtype=np.int64),
            np.zeros(2 * new_b.size, dtype=np.int64),
            cb_k,
        ]
    )
    token_sym = np.concatenate(
        [
            np.full(total_zrl, 0xF0, dtype=np.int64),
            new_symbols,
            np.full(new_b.size, -1, dtype=np.int64),
            np.full(cb_b.size, -1, dtype=np.int64),
        ]
    )
    token_raw = np.concatenate(
        [np.zeros(total_zrl, dtype=np.int64), np.zeros(new_b.size, dtype=np.int64), sign_bits, cb_val]
    )
    token_rawlen = np.concatenate(
        [
            np.zeros(total_zrl, dtype=np.int64),
            np.zeros(new_b.size, dtype=np.int64),
            np.ones(new_b.size, dtype=np.int64),
            np.ones(cb_b.size, dtype=np.int64),
        ]
    )
    order = np.lexsort((token_tie, token_sub, token_p, token_b))
    token_b = token_b[order]
    token_sym = token_sym[order]
    token_raw = token_raw[order]
    token_rawlen = token_rawlen[order]

    # Per-block main-token ranges, for splicing EOB flushes between.
    counts = np.bincount(token_b, minlength=num_blocks)
    offsets = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    # Tail state per block: zeros/corrections past last_new join the
    # global EOB run instead of emitting symbols.
    tail_zero = (
        excl_cz[:, length]
        - excl_cz[np.arange(num_blocks), last_new + 1]
    )
    tail_cb_b, tail_cb_k = np.nonzero(
        is_corr & (cols[None, :] > last_new[:, None])
    )
    tail_bits = t[tail_cb_b, tail_cb_k] & 1
    tail_bit_count = np.bincount(tail_cb_b, minlength=num_blocks)
    account = (tail_zero > 0) | (tail_bit_count > 0)

    # Walk the blocks once for the EOB-run bookkeeping (cheap per-block
    # scalars; the heavy token math above is already batched).  Each
    # flush event records where it cuts the main stream and which slice
    # of the global tail-bit array it carries.
    flush_events: list[tuple[int, int, int, int]] = []
    run = 0
    bit_lo = bit_hi = 0
    for b in range(num_blocks):
        if has_new[b] and run > 0:
            flush_events.append((int(offsets[b]), run, bit_lo, bit_hi))
            run = 0
            bit_lo = bit_hi
        if account[b]:
            run += 1
            bit_hi += int(tail_bit_count[b])
            if (
                run == MAX_EOB_RUN
                or bit_hi - bit_lo > MAX_BUFFERED_CORRECTION_BITS
            ):
                flush_events.append(
                    (int(offsets[b + 1]), run, bit_lo, bit_hi)
                )
                run = 0
                bit_lo = bit_hi
    if run > 0:
        flush_events.append((int(offsets[num_blocks]), run, bit_lo, bit_hi))

    pieces_sym: list[np.ndarray] = []
    pieces_raw: list[np.ndarray] = []
    pieces_rawlen: list[np.ndarray] = []

    def main_slice(lo: int, hi: int) -> None:
        if hi > lo:
            pieces_sym.append(token_sym[lo:hi])
            pieces_raw.append(token_raw[lo:hi])
            pieces_rawlen.append(token_rawlen[lo:hi])

    cursor = 0
    for cut, run_value, lo, hi in flush_events:
        main_slice(cursor, cut)
        cursor = cut
        category = run_value.bit_length() - 1
        pieces_sym.append(np.array([category << 4, -1], dtype=np.int64))
        pieces_raw.append(
            np.array([0, run_value - (1 << category)], dtype=np.int64)
        )
        pieces_rawlen.append(np.array([0, category], dtype=np.int64))
        if hi > lo:
            pieces_sym.append(np.full(hi - lo, -1, dtype=np.int64))
            pieces_raw.append(tail_bits[lo:hi].astype(np.int64))
            pieces_rawlen.append(np.ones(hi - lo, dtype=np.int64))
    main_slice(cursor, int(offsets[num_blocks]))

    if not pieces_sym:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return (
        np.concatenate(pieces_sym),
        np.concatenate(pieces_raw),
        np.concatenate(pieces_rawlen),
    )


def encode_ac_refinement_scan(
    blocks: np.ndarray,
    spectral_start: int,
    spectral_end: int,
    al: int,
) -> tuple[HuffmanTable, bytes]:
    """Encode one progressive AC refinement scan with an optimized table.

    The refinement counterpart of :func:`encode_ac_first_scan`: batch
    the token stream via :func:`refinement_ac_stream`, build the
    optimal table from the Huffman-symbol histogram (standard-luminance
    fallback for an all-raw/empty scan, matching the scalar driver),
    and pack symbols and raw bits in stream order.
    """
    symbols, raw_values, raw_lengths = refinement_ac_stream(
        blocks, spectral_start, spectral_end, al
    )
    is_symbol = symbols >= 0
    frequencies = bincount_frequencies(symbols[is_symbol])
    table = (
        build_optimized_table(frequencies)
        if frequencies
        else STANDARD_AC_LUMINANCE
    )
    codes_by_symbol, lengths_by_symbol = encoder_code_arrays(table)
    index = np.where(is_symbol, symbols, 0)
    values = np.where(
        is_symbol, codes_by_symbol[index], raw_values.astype(np.uint64)
    )
    lengths = np.where(is_symbol, lengths_by_symbol[index], raw_lengths)
    return table, pack_entropy_bits(values, lengths)
