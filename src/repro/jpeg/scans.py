"""Progressive scan scripts and the scan encoders (T.81 G.1.2).

A progressive JPEG is a *script* of scans.  Each :class:`ScanSpec`
names a coefficient band ``Ss..Se``, the components it codes (several
interleaved for DC, exactly one for AC) and a point transform: ``Ah``
and ``Al`` select which bits of each coefficient the scan sends.  Two
scripts ship:

* :func:`spectral_selection_script` — every scan at full precision
  (``Al = 0``): one DC scan, then AC bands 1-5 and 6-63.  This is the
  layout Facebook transcodes uploads into, and the default of
  :func:`repro.jpeg.encoder.encode_progressive`;
* :func:`default_sa_script` — successive approximation (SA), libjpeg's
  default progressive script: DC and AC bits are sent
  most-significant first across two passes.

:func:`run_scan` codes one scan, baseline or progressive, in two
passes: it counts symbols, builds optimal tables and writes.  The scan
itself comes from either engine: a :class:`ScalarScan` over the
per-symbol encoders below, which follow jcphuff.c and are the
differential reference, or a
:class:`~repro.jpeg.native.encode.NativeScan` over the C kernel.  The
four progressive scan kinds are:

* DC first scan (Ah=0): difference-code ``dc >> Al``;
* DC refinement (Ah>0): one raw bit per block — bit ``Al`` of the DC;
* AC first scan (Ah=0): run/size symbols on ``sign(y) * (|y| >> Al)``
  with EOB-run coding;
* AC refinement (Ah>0): newly significant coefficients emit
  ``(run << 4) | 1`` plus a sign bit; already-significant ones ride
  along as buffered correction bits (G.1.2.3 figure G.7).

An AC value that needs more than 15 magnitude bits does not fit its
symbol's size field; both engines raise
:class:`~repro.jpeg.markers.JpegFormatError` for it, as libjpeg does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.jpeg.bitstream import BitWriter
from repro.jpeg.huffman import (
    HuffmanEncoder,
    HuffmanTable,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_LUMINANCE,
    build_optimized_table,
    encode_magnitude_bits,
    magnitude_category,
)
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.structures import CoefficientImage
from repro.jpeg.zigzag import ZIGZAG_ORDER

#: A Huffman table's place in the stream, as a DHT segment names it:
#: ``(table class, table id)`` with class 0 for DC and 1 for AC.
TableKey = tuple[int, int]


@dataclass(frozen=True)
class ScanSpec:
    """One scan of a progressive script.

    ``component_indices`` index into the image's component list; DC
    scans (``ss == 0``) may interleave several components, AC scans
    must name exactly one.
    """

    component_indices: tuple[int, ...]
    ss: int
    se: int
    ah: int
    al: int

    def __post_init__(self) -> None:
        if not 0 <= self.ss <= self.se <= 63:
            raise ValueError(f"bad spectral band ({self.ss}, {self.se})")
        if self.ss == 0 and self.se != 0:
            raise ValueError("DC and AC cannot share a progressive scan")
        if self.ss > 0 and len(self.component_indices) != 1:
            raise ValueError("AC scans must be non-interleaved")
        if not (0 <= self.ah <= 13 and 0 <= self.al <= 13):
            # T.81 Table B.3; the SOS byte holds each in 4 bits.
            raise ValueError(
                f"point transform out of 0-13 (Ah={self.ah}, Al={self.al})"
            )
        if self.ah and self.ah != self.al + 1:
            raise ValueError(
                f"refinement must shift one bit (Ah={self.ah}, Al={self.al})"
            )

    @property
    def is_dc(self) -> bool:
        return self.ss == 0

    @property
    def is_refinement(self) -> bool:
        return self.ah != 0


def spectral_selection_script(num_components: int) -> list[ScanSpec]:
    """Full-precision spectral selection: one DC scan over every
    component, then AC bands 1-5 and 6-63, band by band and, within a
    band, component by component."""
    everyone = tuple(range(num_components))
    return [ScanSpec(everyone, 0, 0, 0, 0)] + [
        ScanSpec((index,), ss, se, 0, 0)
        for ss, se in ((1, 5), (6, 63))
        for index in range(num_components)
    ]


def default_sa_script(num_components: int) -> list[ScanSpec]:
    """A libjpeg-style successive-approximation script."""
    everyone = tuple(range(num_components))
    script = [ScanSpec(everyone, 0, 0, 0, 1)]
    for index in range(num_components):
        script.append(ScanSpec((index,), 1, 5, 0, 1))
        script.append(ScanSpec((index,), 6, 63, 0, 1))
    script.append(ScanSpec(everyone, 0, 0, 1, 0))
    for index in range(num_components):
        script.append(ScanSpec((index,), 1, 5, 1, 0))
        script.append(ScanSpec((index,), 6, 63, 1, 0))
    return script


def zigzag_blocks(coefficients: np.ndarray) -> np.ndarray:
    """Flatten (by, bx, 8, 8) raster blocks into (by, bx, 64) zigzag."""
    by, bx = coefficients.shape[:2]
    flat = coefficients.reshape(by, bx, 64)
    return flat[..., ZIGZAG_ORDER]


def pad_blocks_to_mcu(
    blocks: np.ndarray, mcus_y: int, mcus_x: int, v: int, h: int
) -> np.ndarray:
    """Edge-pad a (by, bx, 64) block array to the interleaved-MCU grid."""
    need_y = mcus_y * v
    need_x = mcus_x * h
    by, bx = blocks.shape[:2]
    pad_y = need_y - by
    pad_x = need_x - bx
    if pad_y < 0 or pad_x < 0:
        raise ValueError("block array larger than MCU grid")
    if pad_y == 0 and pad_x == 0:
        return blocks
    return np.pad(blocks, ((0, pad_y), (0, pad_x), (0, 0)), mode="edge")


# -- DC scans -----------------------------------------------------------------


def encode_dc_first(
    blocks_per_component: list[np.ndarray],
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    al: int,
    sinks: list,
) -> None:
    """DC first scan: difference-code the point-transformed DCs.

    ``blocks_per_component`` holds MCU-padded (by, bx, 64) zigzag
    arrays; ``sinks[index]`` is the symbol/bit sink of that component.
    """
    mcus_y, mcus_x = mcus
    predictors = [0] * len(blocks_per_component)
    for mcu_y in range(mcus_y):
        for mcu_x in range(mcus_x):
            for index, blocks in enumerate(blocks_per_component):
                h, v = samplings[index]
                sink = sinks[index]
                for dy in range(v):
                    for dx in range(h):
                        dc = int(blocks[mcu_y * v + dy, mcu_x * h + dx, 0])
                        value = dc >> al  # arithmetic shift, per G.1.2.1
                        diff = value - predictors[index]
                        predictors[index] = value
                        category = magnitude_category(diff)
                        sink.symbol(category)
                        sink.bits(
                            encode_magnitude_bits(diff, category), category
                        )


def encode_dc_refinement(
    blocks_per_component: list[np.ndarray],
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    al: int,
    writer: BitWriter,
) -> None:
    """DC refinement: one raw bit (bit ``al`` of the DC) per block."""
    mcus_y, mcus_x = mcus
    for mcu_y in range(mcus_y):
        for mcu_x in range(mcus_x):
            for index, blocks in enumerate(blocks_per_component):
                h, v = samplings[index]
                for dy in range(v):
                    for dx in range(h):
                        dc = int(blocks[mcu_y * v + dy, mcu_x * h + dx, 0])
                        writer.write((dc >> al) & 1, 1)


# -- AC scans -----------------------------------------------------------------


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
    blocks: np.ndarray, ss: int, se: int, al: int, sink
) -> None:
    """AC first pass with point transform ``al`` and EOB runs."""
    by, bx = blocks.shape[:2]
    eob = _EobState(sink)
    for y in range(by):
        for x in range(bx):
            band = blocks[y, x, ss : se + 1].astype(np.int64)
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
    blocks: np.ndarray, ss: int, se: int, al: int, sink
) -> None:
    """AC refinement pass (G.1.2.3 / jcphuff encode_mcu_AC_refine)."""
    by, bx = blocks.shape[:2]
    eob = _EobState(sink)
    for y in range(by):
        for x in range(bx):
            band = blocks[y, x, ss : se + 1].astype(np.int64)
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


# -- scan-level driver --------------------------------------------------------


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


class Scan(Protocol):
    """One scan of either engine, coded in two passes."""

    def count(self) -> dict[TableKey, dict[int, int]]: ...

    def write(self, tables: dict[TableKey, HuffmanTable]) -> bytes: ...


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


def scalar_scans(
    image: CoefficientImage, table_ids: list[int], mcus: tuple[int, int]
) -> Callable[[ScanSpec], ScalarScan]:
    """The scans of a progressive script on the scalar engine, one
    :class:`ScalarScan` per :class:`ScanSpec`.

    DC scans walk the components' zigzag blocks edge-padded to the MCU
    grid, AC scans the one component's own grid.  A DC first scan codes
    each component with the table of its ``table_ids`` entry, an AC
    scan carries one table under id 0, and a DC refinement scan none
    (raw bits only).
    """
    zigzag = [zigzag_blocks(c.coefficients) for c in image.components]
    padded = [
        pad_blocks_to_mcu(blocks, *mcus, c.v_sampling, c.h_sampling)
        for blocks, c in zip(zigzag, image.components)
    ]
    samplings = [(c.h_sampling, c.v_sampling) for c in image.components]

    def scan(spec: ScanSpec) -> ScalarScan:
        indices = spec.component_indices
        scan_padded = [padded[i] for i in indices]
        scan_samplings = [samplings[i] for i in indices]
        if spec.is_dc and spec.is_refinement:
            return ScalarScan(
                lambda sinks, writer: encode_dc_refinement(
                    scan_padded, scan_samplings, mcus, spec.al, writer
                ),
                [],
            )
        if spec.is_dc:
            keys = [(0, table_ids[i]) for i in indices]
            return ScalarScan(
                lambda sinks, writer: encode_dc_first(
                    scan_padded,
                    scan_samplings,
                    mcus,
                    spec.al,
                    [sinks[key] for key in keys],
                ),
                keys,
            )
        encode = encode_ac_refinement if spec.is_refinement else encode_ac_first
        return ScalarScan(
            lambda sinks, writer: encode(
                zigzag[indices[0]], spec.ss, spec.se, spec.al, sinks[1, 0]
            ),
            [(1, 0)],
        )

    return scan


def run_scan(
    scan: Scan, tables: dict[TableKey, HuffmanTable] | None = None
) -> tuple[dict[TableKey, HuffmanTable], bytes]:
    """Code one scan; returns ``(tables, entropy_bytes)``.

    Without ``tables`` this is libjpeg's two-pass ``optimize_coding``:
    the counting pass's histograms build one optimal table per key (the
    standard luminance table of its class for a key without symbols),
    and the writing pass codes with them.
    """
    if tables is None:
        fallback = {0: STANDARD_DC_LUMINANCE, 1: STANDARD_AC_LUMINANCE}
        tables = {
            key: build_optimized_table(counts) if counts else fallback[key[0]]
            for key, counts in scan.count().items()
        }
    return tables, scan.write(tables)
