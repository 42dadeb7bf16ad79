"""Progressive scan scripts and the scan encoder (T.81 G.1.2).

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

:func:`run_scan` encodes one scan of either script.  The scalar
encoders below follow jcphuff.c and are the differential reference for
the batch recipes in :mod:`repro.jpeg.huffman`:

* DC first scan (Ah=0): difference-code ``dc >> Al``;
* DC refinement (Ah>0): one raw bit per block — bit ``Al`` of the DC;
* AC first scan (Ah=0): run/size symbols on ``sign(y) * (|y| >> Al)``
  with EOB-run coding;
* AC refinement (Ah>0): newly significant coefficients emit
  ``(run << 4) | 1`` plus a sign bit; already-significant ones ride
  along as buffered correction bits (G.1.2.3 figure G.7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg.bitstream import BitWriter, pack_entropy_bits
from repro.jpeg.huffman import (
    HuffmanEncoder,
    HuffmanTable,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_LUMINANCE,
    build_optimized_table,
    dc_scan_token_bundles,
    encode_ac_first_scan,
    encode_ac_refinement_scan,
    encode_magnitude_bits,
    interleaved_visit_arrays,
    magnitude_category,
    merge_frequencies,
    pack_dc_scan_tokens,
)


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


def _run_dc_refinement_fast(
    blocks_per_component: list[np.ndarray],
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    al: int,
) -> bytes:
    """Vectorized DC refinement: gather bit ``al`` of every DC in MCU
    visit order and pack them as raw 1-bit writes."""
    visits = interleaved_visit_arrays(samplings, mcus)
    all_g = []
    all_bits = []
    for (flat, g, _), blocks in zip(visits, blocks_per_component):
        dc = blocks.reshape(-1, 64)[flat, 0]
        all_g.append(g)
        all_bits.append((dc.astype(np.int64) >> al) & 1)
    order = np.argsort(np.concatenate(all_g), kind="stable")
    bits = np.concatenate(all_bits)[order]
    return pack_entropy_bits(bits, np.ones(bits.size, dtype=np.int64))


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


def _optimal_tables(
    frequencies: dict[int, dict[int, int]], fallback: HuffmanTable
) -> dict[int, HuffmanTable]:
    """One optimized table per id; ``fallback`` for an id without
    symbols."""
    return {
        table_id: build_optimized_table(counts) if counts else fallback
        for table_id, counts in frequencies.items()
    }


def run_scan(
    spec: ScanSpec,
    blocks_per_component: list[np.ndarray],
    padded_blocks: list[np.ndarray],
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    table_ids: list[int],
    engine: str | None = None,
) -> tuple[dict[int, HuffmanTable], bytes]:
    """Encode one scan; returns ``({table_id: table}, entropy_bytes)``.

    ``blocks_per_component`` are the true (unpadded) zigzag arrays used
    for AC scans; ``padded_blocks`` the MCU-padded ones for DC scans.
    Huffman tables are optimized per scan: a DC first scan codes each
    component with the table of its ``table_ids`` entry, an AC scan
    carries one table under id 0, and a DC refinement scan carries none
    (raw bits only).  Unless ``engine`` is ``"scalar"`` every scan type
    runs on the batch recipes of :mod:`repro.jpeg.huffman` and the C
    packer, byte-identical to the scalar encoders above (which remain
    the differential reference).
    """
    fast = engine != "scalar"
    padded = [padded_blocks[i] for i in spec.component_indices]
    scan_samplings = [samplings[i] for i in spec.component_indices]
    blocks = blocks_per_component[spec.component_indices[0]]
    if spec.is_dc and spec.is_refinement:
        if fast:
            return {}, _run_dc_refinement_fast(
                padded, scan_samplings, mcus, spec.al
            )
        writer = BitWriter()
        encode_dc_refinement(padded, scan_samplings, mcus, spec.al, writer)
        writer.flush()
        return {}, writer.getvalue()

    if fast and not spec.is_dc:
        encode = (
            encode_ac_refinement_scan
            if spec.is_refinement
            else encode_ac_first_scan
        )
        table, entropy = encode(
            blocks.reshape(-1, 64), spec.ss, spec.se, spec.al
        )
        return {0: table}, entropy

    ids = [table_ids[i] for i in spec.component_indices] if spec.is_dc else [0]
    frequencies: dict[int, dict[int, int]] = {
        table_id: {} for table_id in sorted(set(ids))
    }
    if fast:  # a DC first scan; every other fast scan returned above
        bundles = dc_scan_token_bundles(padded, scan_samplings, mcus, spec.al)
        for (_, categories, _), table_id in zip(bundles, ids):
            merge_frequencies(frequencies[table_id], categories)
        tables = _optimal_tables(frequencies, STANDARD_DC_LUMINANCE)
        return tables, pack_dc_scan_tokens(bundles, [tables[t] for t in ids])

    def code(sinks: list) -> None:
        if spec.is_dc:
            encode_dc_first(padded, scan_samplings, mcus, spec.al, sinks)
        elif spec.is_refinement:
            encode_ac_refinement(blocks, spec.ss, spec.se, spec.al, sinks[0])
        else:
            encode_ac_first(blocks, spec.ss, spec.se, spec.al, sinks[0])

    code([_CountingSink(frequencies[t]) for t in ids])
    tables = _optimal_tables(
        frequencies,
        STANDARD_DC_LUMINANCE if spec.is_dc else STANDARD_AC_LUMINANCE,
    )
    writer = BitWriter()
    code([_WritingSink(writer, HuffmanEncoder(tables[t])) for t in ids])
    writer.flush()
    return tables, writer.getvalue()
