"""The scalar T.81 entropy codec: the C kernel's test oracle.

This is the per-symbol ITU-T T.81 transcription that the native kernel
(:mod:`repro.jpeg.native`) replaced: MSB-first bit I/O with byte
stuffing, the Annex F MINCODE/MAXCODE Huffman decoder, and the
per-block scan loops of libjpeg's jdhuff/jdphuff and jchuff/jcphuff.
It is slow (~10 s for a dense 512px decode) but the most literal form
of the standard.  It lives here, not in ``src/``, so production has one
entropy path, and it reaches the production codec through one private
seam per direction:

* decoding: :func:`decode_scan` has the signature of
  :func:`repro.jpeg.native.decode.decode_scan` and runs behind
  :func:`repro.jpeg.decoder._decode_coefficients`, which parses the
  headers, validates and allocates exactly as production does;
* encoding: :func:`scalar_baseline_scan` and :func:`scalar_scans` build
  :class:`ScalarScan` objects (the encoder's
  :class:`~repro.jpeg.scans.Scan` protocol) for
  :func:`repro.jpeg.encoder._encode_baseline` and
  :func:`~repro.jpeg.encoder._encode_progressive`, which write the
  headers and choose the tables as production does.

The entry points at the bottom mirror :mod:`repro.jpeg.codec`'s, and
:data:`CODECS` pairs them with production's under the ids the
parametrized differential tests use.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

import numpy as np

import repro.jpeg.codec
import repro.jpeg.decoder
import repro.jpeg.encoder
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.native.decode import SCAN_NAMES
from repro.jpeg.scans import ScanSpec, TableKey, default_sa_script
from repro.jpeg.structures import CoefficientImage
from repro.jpeg.zigzag import ZIGZAG_ORDER

# -- bit I/O (T.81 F.1.2.3) ---------------------------------------------------


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


# -- Huffman coding (T.81 Annex C and F) --------------------------------------


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


# -- decoding (T.81 F.2 and G.2) ----------------------------------------------


def _decode_dc(
    reader: BitReader, decoder: HuffmanDecoder, prev_dc: int
) -> int:
    """One DC difference added to its predictor (F.2.2.1)."""
    category = decoder.decode(reader)
    dc = prev_dc + decode_magnitude_bits(reader.read(category), category)
    if not -(1 << 20) <= dc <= (1 << 20):
        # 8-bit baseline DCs fit in 12 bits; runaway predictions mean a
        # corrupt stream, not a huge image.
        raise JpegFormatError("DC prediction out of range (corrupt scan)")
    return dc


def _decode_block_sequential(
    reader: BitReader,
    zigzag: np.ndarray,
    dc_decoder: HuffmanDecoder,
    ac_decoder: HuffmanDecoder,
    prev_dc: int,
) -> int:
    dc = _decode_dc(reader, dc_decoder, prev_dc)
    zigzag[0] = dc
    k = 1
    while k <= 63:
        symbol = ac_decoder.decode(reader)
        run = symbol >> 4
        size = symbol & 0x0F
        if size == 0:
            if run == 15:
                k += 16  # ZRL
                continue
            break  # EOB
        k += run
        if k > 63:
            raise JpegFormatError("AC run exceeds block bounds")
        bits = reader.read(size)
        zigzag[k] = decode_magnitude_bits(bits, size)
        k += 1
    return dc


# Each *_interval function decodes one restart interval of a scan: the
# blocks at ``flats[i]`` of ``blocks[slots[i]]``, with the predictors and
# EOB run starting from zero.


def _decode_baseline_interval(reader, spec, blocks, slots, flats) -> None:
    prev_dc = [0] * len(blocks)
    for slot, flat in zip(slots, flats):
        prev_dc[slot] = _decode_block_sequential(
            reader,
            blocks[slot][flat],
            spec.dc_decoders[slot],
            spec.ac_decoders[slot],
            prev_dc[slot],
        )


def _decode_dc_first_interval(reader, spec, blocks, slots, flats) -> None:
    prev_dc = [0] * len(blocks)
    for slot, flat in zip(slots, flats):
        prev_dc[slot] = _decode_dc(
            reader, spec.dc_decoders[slot], prev_dc[slot]
        )
        blocks[slot][flat, 0] = prev_dc[slot] << spec.approx_low


def _decode_dc_refine_interval(reader, spec, blocks, slots, flats) -> None:
    """DC refinement: one raw bit per block sets bit Al of each DC."""
    bit_value = np.int32(1 << spec.approx_low)
    for slot, flat in zip(slots, flats):
        if reader.read_bit():
            blocks[slot][flat, 0] |= bit_value


def _decode_ac_first_interval(reader, spec, blocks, slots, flats) -> None:
    decoder = spec.ac_decoders[0]
    shift = spec.approx_low
    eob_run = 0
    for flat in flats:
        if eob_run > 0:
            eob_run -= 1
            continue
        block = blocks[0][flat]
        k = spec.spectral_start
        while k <= spec.spectral_end:
            symbol = decoder.decode(reader)
            run = symbol >> 4
            size = symbol & 0x0F
            if size == 0:
                if run == 15:
                    k += 16
                    continue
                eob_run = (1 << run) - 1
                if run:
                    eob_run += reader.read(run)
                break
            k += run
            if k > spec.spectral_end:
                raise JpegFormatError("AC run exceeds spectral band")
            bits = reader.read(size)
            block[k] = decode_magnitude_bits(bits, size) << shift
            k += 1


def _decode_ac_refine_interval(reader, spec, blocks, slots, flats) -> None:
    """AC refinement pass (T.81 G.1.2.3 / jdphuff decode_mcu_AC_refine)."""
    decoder = spec.ac_decoders[0]
    positive = np.int32(1 << spec.approx_low)
    negative = np.int32(-(1 << spec.approx_low))
    eob_run = 0

    def correct(block, k) -> None:
        """Read a correction bit for an already-nonzero coefficient."""
        if reader.read_bit():
            if (int(block[k]) & int(positive)) == 0:
                block[k] += positive if block[k] >= 0 else negative

    for flat in flats:
        block = blocks[0][flat]
        k = spec.spectral_start
        if eob_run == 0:
            while k <= spec.spectral_end:
                symbol = decoder.decode(reader)
                run = symbol >> 4
                size = symbol & 0x0F
                new_value = 0
                if size == 0:
                    if run != 15:
                        eob_run = 1 << run
                        if run:
                            eob_run += reader.read(run)
                        break
                    # run == 15 (ZRL): skip 16 zero-history slots.
                else:
                    if size != 1:
                        raise JpegFormatError(
                            "refinement scan symbol with size > 1"
                        )
                    new_value = positive if reader.read_bit() else negative
                # Advance over coefficients, applying correction bits to
                # nonzero-history ones, consuming `run` zero-history
                # positions.
                while k <= spec.spectral_end:
                    if block[k] != 0:
                        correct(block, k)
                    else:
                        if run == 0:
                            break
                        run -= 1
                    k += 1
                if new_value and k <= spec.spectral_end:
                    block[k] = new_value
                k += 1
        if eob_run > 0:
            while k <= spec.spectral_end:
                if block[k] != 0:
                    correct(block, k)
                k += 1
            eob_run -= 1


_SCALAR_INTERVALS = {
    "baseline": _decode_baseline_interval,
    "dc_first": _decode_dc_first_interval,
    "dc_refine": _decode_dc_refine_interval,
    "ac_first": _decode_ac_first_interval,
    "ac_refine": _decode_ac_refine_interval,
}


def decode_scan(
    kind: str,
    data: bytes,
    *,
    restart_interval: int,
    slots: np.ndarray,
    flats: np.ndarray,
    views: list[np.ndarray],
    dc_tables: list[HuffmanTable | None],
    ac_tables: list[HuffmanTable | None],
    spectral: tuple[int, int] = (0, 63),
    al: int = 0,
) -> None:
    """Decode one scan of ``kind`` along its visit plan, as
    :func:`repro.jpeg.native.decode.decode_scan` does, one symbol at a
    time.

    The plan splits into intervals of ``restart_interval`` MCUs; the
    reader takes the RSTn between two, which fails unless the previous
    interval ended within its padding bits.
    """
    spec = SimpleNamespace(
        dc_decoders=[t if t is None else HuffmanDecoder(t) for t in dc_tables],
        ac_decoders=[t if t is None else HuffmanDecoder(t) for t in ac_tables],
        spectral_start=spectral[0],
        spectral_end=spectral[1],
        approx_low=al,
    )
    decode = _SCALAR_INTERVALS[kind]
    reader = BitReader(data)
    interval = restart_interval or len(flats)
    try:
        for start in range(0, len(flats), interval):
            if start:
                reader.consume_restart_marker()
            decode(
                reader,
                spec,
                views,
                slots[start : start + interval].ravel().tolist(),
                flats[start : start + interval].ravel().tolist(),
            )
    except (MarkerFound, EndOfData):
        raise JpegFormatError(
            f"entropy data ended before {SCAN_NAMES[kind]} completed"
        )
    except ValueError as error:
        raise JpegFormatError(str(error))


# -- encoding (T.81 F.1 and G.1.2) --------------------------------------------


def zigzag_blocks(coefficients: np.ndarray) -> np.ndarray:
    """Flatten (by, bx, 8, 8) raster blocks into (by * bx, 64) zigzag
    rows, the layout a visit plan's flat indices address."""
    return coefficients.reshape(-1, 64)[:, ZIGZAG_ORDER]


def _encode_block_sequential(
    zigzag: np.ndarray, prev_dc: int, dc_sink: object, ac_sink: object
) -> int:
    """Encode one full 64-coefficient block (baseline scan); returns
    its DC, the next block's predictor."""
    dc = int(zigzag[0])
    diff = dc - prev_dc
    category = magnitude_category(diff)
    dc_sink.symbol(category)
    dc_sink.bits(encode_magnitude_bits(diff, category), category)

    nonzero = np.nonzero(zigzag[1:])[0]
    if len(nonzero) == 0:
        ac_sink.symbol(0x00)  # EOB
        return dc
    last = int(nonzero[-1]) + 1  # index into zigzag[1..63] space
    run = 0
    for k in range(1, last + 1):
        value = int(zigzag[k])
        if value == 0:
            run += 1
            continue
        while run > 15:
            ac_sink.symbol(0xF0)  # ZRL: run of 16 zeros
            run -= 16
        category = magnitude_category(value)
        if category > 15:
            # The symbol's size field has 4 bits (libjpeg's
            # JERR_BAD_DCT_COEF).
            raise JpegFormatError("DCT coefficient out of range")
        ac_sink.symbol((run << 4) | category)
        ac_sink.bits(encode_magnitude_bits(value, category), category)
        run = 0
    if last < 63:
        ac_sink.symbol(0x00)  # EOB
    return dc


def encode_dc_first(
    blocks: list[np.ndarray],
    slots: list[int],
    flats: list[int],
    al: int,
    sinks: list,
) -> None:
    """DC first scan: difference-code the point-transformed DCs.

    The scan visits block ``flats[i]`` of ``blocks[slots[i]]`` (zigzag
    rows) in turn; ``sinks[slot]`` is the symbol/bit sink of that
    component.
    """
    predictors = [0] * len(blocks)
    for slot, flat in zip(slots, flats):
        value = int(blocks[slot][flat, 0]) >> al  # arithmetic, per G.1.2.1
        diff = value - predictors[slot]
        predictors[slot] = value
        category = magnitude_category(diff)
        sinks[slot].symbol(category)
        sinks[slot].bits(encode_magnitude_bits(diff, category), category)


def encode_dc_refinement(
    blocks: list[np.ndarray],
    slots: list[int],
    flats: list[int],
    al: int,
    writer: BitWriter,
) -> None:
    """DC refinement: one raw bit (bit ``al`` of the DC) per block."""
    for slot, flat in zip(slots, flats):
        writer.write((int(blocks[slot][flat, 0]) >> al) & 1, 1)


class _EobState:
    """EOB-run bookkeeping shared by first and refinement AC passes."""

    def __init__(self, sink) -> None:
        self._sink = sink
        self.run = 0
        self.correction_bits: list[int] = []

    def flush(self) -> None:
        if self.run == 0 and not self.correction_bits:
            return
        if self.run > 0:
            category = self.run.bit_length() - 1
            self._sink.symbol(category << 4)
            self._sink.bits(self.run - (1 << category), category)
        for bit in self.correction_bits:
            self._sink.bits(bit, 1)
        self.run = 0
        self.correction_bits = []

    def account_block(self, bits: list[int]) -> None:
        self.run += 1
        self.correction_bits.extend(bits)
        if self.run == 0x7FFF or len(self.correction_bits) > 900:
            self.flush()


def encode_ac_first(
    blocks: np.ndarray, flats: list[int], ss: int, se: int, al: int, sink
) -> None:
    """AC first pass with point transform ``al`` and EOB runs over
    blocks ``flats`` of ``blocks`` (zigzag rows)."""
    eob = _EobState(sink)
    for flat in flats:
        band = blocks[flat, ss : se + 1].astype(np.int64)
        shifted = np.sign(band) * (np.abs(band) >> al)
        nonzero = np.nonzero(shifted)[0]
        if len(nonzero) == 0:
            eob.account_block([])
            continue
        eob.flush()
        last = int(nonzero[-1])
        run = 0
        for k in range(last + 1):
            value = int(shifted[k])
            if value == 0:
                run += 1
                continue
            while run > 15:
                sink.symbol(0xF0)
                run -= 16
            category = magnitude_category(value)
            if category > 15:
                raise JpegFormatError("DCT coefficient out of range")
            sink.symbol((run << 4) | category)
            sink.bits(encode_magnitude_bits(value, category), category)
            run = 0
        if last < len(band) - 1:
            eob.account_block([])
    eob.flush()


def encode_ac_refinement(
    blocks: np.ndarray, flats: list[int], ss: int, se: int, al: int, sink
) -> None:
    """AC refinement pass (G.1.2.3 / jcphuff encode_mcu_AC_refine)."""
    eob = _EobState(sink)
    for flat in flats:
        band = blocks[flat, ss : se + 1].astype(np.int64)
        absolute = np.abs(band) >> al
        newly = np.nonzero(absolute == 1)[0]
        last_new = int(newly[-1]) if len(newly) else -1

        run = 0
        buffered: list[int] = []
        for k in range(len(band)):
            t = int(absolute[k])
            if t == 0:
                run += 1
                continue
            while run > 15 and k <= last_new:
                eob.flush()
                sink.symbol(0xF0)
                run -= 16
                for bit in buffered:
                    sink.bits(bit, 1)
                buffered = []
            if t > 1:
                # Already significant: buffer its correction bit.
                buffered.append(t & 1)
                continue
            # Newly significant coefficient.
            eob.flush()
            sink.symbol((run << 4) | 1)
            sink.bits(1 if band[k] >= 0 else 0, 1)
            for bit in buffered:
                sink.bits(bit, 1)
            buffered = []
            run = 0
        if run > 0 or buffered:
            eob.account_block(buffered)
    eob.flush()


class _CountingSink:
    """Records symbol frequencies; used by the Huffman-optimizing pass."""

    def __init__(self, frequencies: dict[int, int]) -> None:
        self._frequencies = frequencies

    def symbol(self, value: int) -> None:
        self._frequencies[value] = self._frequencies.get(value, 0) + 1

    def bits(self, value: int, num_bits: int) -> None:
        pass  # bit payloads do not affect table optimization


class _WritingSink:
    """Writes Huffman codes and raw bits to a :class:`BitWriter`."""

    def __init__(self, writer: BitWriter, encoder: HuffmanEncoder) -> None:
        self._writer = writer
        self._encoder = encoder

    def symbol(self, value: int) -> None:
        self._encoder.encode(self._writer, value)

    def bits(self, value: int, num_bits: int) -> None:
        self._writer.write(value, num_bits)


class ScalarScan:
    """A scan on the scalar engine.

    ``code(sinks, writer)`` is its per-symbol routine: ``sinks`` maps
    each table key in ``keys`` to a symbol/bit sink, and ``writer`` is
    the pass's :class:`BitWriter` (None while counting).
    """

    def __init__(
        self,
        code: Callable[[dict, BitWriter | None], None],
        keys: list[TableKey],
    ) -> None:
        self._code = code
        self.keys = sorted(set(keys))

    def count(self) -> dict[TableKey, dict[int, int]]:
        frequencies: dict[TableKey, dict[int, int]] = {
            key: {} for key in self.keys
        }
        if self.keys:
            sinks = {key: _CountingSink(frequencies[key]) for key in self.keys}
            self._code(sinks, None)
        return frequencies

    def write(self, tables: dict[TableKey, HuffmanTable]) -> bytes:
        writer = BitWriter()
        sinks = {
            key: _WritingSink(writer, HuffmanEncoder(tables[key]))
            for key in self.keys
        }
        self._code(sinks, writer)
        writer.flush()
        return writer.getvalue()


def _run_baseline_scan(
    blocks: list[np.ndarray],
    slots: np.ndarray,
    flats: np.ndarray,
    restart_interval: int,
    dc_sinks: list[object],
    ac_sinks: list[object],
    writer: BitWriter | None,
) -> None:
    """Encode a baseline scan along its visit plan, ``blocks[slot]``
    holding each component's zigzag rows.

    With ``restart_interval`` > 0, an RSTn marker is emitted (and DC
    predictors reset) after every interval of MCUs; during the
    Huffman-counting pass ``writer`` is None and only the predictor
    resets apply, which is what makes the two passes agree.
    """
    predictors = [0] * len(blocks)
    for mcu, (mcu_slots, mcu_flats) in enumerate(
        zip(slots.tolist(), flats.tolist())
    ):
        if restart_interval and mcu and mcu % restart_interval == 0:
            if writer is not None:
                writer.write_restart_marker((mcu // restart_interval - 1) % 8)
            predictors = [0] * len(blocks)
        for slot, flat in zip(mcu_slots, mcu_flats):
            predictors[slot] = _encode_block_sequential(
                blocks[slot][flat],
                predictors[slot],
                dc_sinks[slot],
                ac_sinks[slot],
            )


def scalar_baseline_scan(
    image: CoefficientImage,
    table_ids: list[int],
    restart_interval: int,
    slots: np.ndarray,
    flats: np.ndarray,
) -> ScalarScan:
    """The one scan of a baseline image along its visit plan, as
    :func:`repro.jpeg.native.encode.baseline_scan` builds it."""
    blocks = [zigzag_blocks(c.coefficients) for c in image.components]
    return ScalarScan(
        lambda sinks, writer: _run_baseline_scan(
            blocks,
            slots,
            flats,
            restart_interval,
            [sinks[0, t] for t in table_ids],
            [sinks[1, t] for t in table_ids],
            writer,
        ),
        [(table_class, t) for t in table_ids for table_class in (0, 1)],
    )


def scalar_scans(
    image: CoefficientImage, table_ids: list[int]
) -> Callable[[ScanSpec, np.ndarray, np.ndarray], ScalarScan]:
    """The scans of a progressive script on the scalar engine: one
    :class:`ScalarScan` per :class:`ScanSpec` and its visit plan
    ``(slots, flats)`` (:func:`~repro.jpeg.blocks.scan_visit_plan`).

    A DC first scan codes each component with the table of its
    ``table_ids`` entry, an AC scan carries one table under id 0, and a
    DC refinement scan none (raw bits only).
    """
    zigzag = [zigzag_blocks(c.coefficients) for c in image.components]

    def scan(
        spec: ScanSpec, slots: np.ndarray, flats: np.ndarray
    ) -> ScalarScan:
        indices = spec.component_indices
        blocks = [zigzag[i] for i in indices]
        slot_list, flat_list = slots.ravel().tolist(), flats.ravel().tolist()
        if spec.is_dc and spec.is_refinement:
            return ScalarScan(
                lambda sinks, writer: encode_dc_refinement(
                    blocks, slot_list, flat_list, spec.al, writer
                ),
                [],
            )
        if spec.is_dc:
            keys = [(0, table_ids[i]) for i in indices]
            return ScalarScan(
                lambda sinks, writer: encode_dc_first(
                    blocks,
                    slot_list,
                    flat_list,
                    spec.al,
                    [sinks[key] for key in keys],
                ),
                keys,
            )
        encode = encode_ac_refinement if spec.is_refinement else encode_ac_first
        return ScalarScan(
            lambda sinks, writer: encode(
                blocks[0], flat_list, spec.ss, spec.se, spec.al, sinks[1, 0]
            ),
            [(1, 0)],
        )

    return scan


# -- entry points -------------------------------------------------------------


def decode_to_coefficients(data: bytes) -> CoefficientImage:
    """:func:`repro.jpeg.decoder.decode_to_coefficients` on this oracle."""
    return repro.jpeg.decoder._decode_coefficients(data, decode_scan)


decode_coefficients = decode_to_coefficients


def encode_baseline(
    image: CoefficientImage,
    optimize_huffman: bool = True,
    restart_interval: int = 0,
) -> bytes:
    """:func:`repro.jpeg.encoder.encode_baseline` on this oracle."""
    return repro.jpeg.encoder._encode_baseline(
        image, optimize_huffman, restart_interval, scalar_baseline_scan
    )


def encode_progressive(
    image: CoefficientImage, script: list[ScanSpec] | None = None
) -> bytes:
    """:func:`repro.jpeg.encoder.encode_progressive` on this oracle."""
    return repro.jpeg.encoder._encode_progressive(image, script, scalar_scans)


def encode_coefficients(
    image: CoefficientImage,
    progressive: bool | str | None = None,
    optimize_huffman: bool = True,
    restart_interval: int = 0,
) -> bytes:
    """:func:`repro.jpeg.codec.encode_coefficients` on this oracle."""
    if progressive is None:
        progressive = image.progressive
    if progressive == "sa":
        script = default_sa_script(len(image.components))
        return encode_progressive(image, script)
    if progressive:
        return encode_progressive(image)
    return encode_baseline(image, optimize_huffman, restart_interval)


#: Production and this oracle under the ids the parametrized
#: differential tests give them, each with the entry points above.
CODECS = {
    "scalar": SimpleNamespace(
        decode_to_coefficients=decode_to_coefficients,
        decode_coefficients=decode_coefficients,
        encode_baseline=encode_baseline,
        encode_progressive=encode_progressive,
        encode_coefficients=encode_coefficients,
    ),
    "native": SimpleNamespace(
        decode_to_coefficients=repro.jpeg.decoder.decode_to_coefficients,
        decode_coefficients=repro.jpeg.codec.decode_coefficients,
        encode_baseline=repro.jpeg.encoder.encode_baseline,
        encode_progressive=repro.jpeg.encoder.encode_progressive,
        encode_coefficients=repro.jpeg.codec.encode_coefficients,
    ),
}
