"""Progressive scan scripts with successive approximation (T.81 G.1.2).

The spectral-selection-only progressive mode in
:mod:`repro.jpeg.encoder` covers what the P3 pipeline needs; this
module completes the codec with *successive approximation* (SA): DC
and AC coefficients are sent most-significant-bits first across
multiple scans, exactly like libjpeg's default progressive script.

Encoding follows jcphuff.c faithfully:

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
    sink_factory,
) -> None:
    """DC first scan: difference-code the point-transformed DCs.

    ``blocks_per_component`` holds MCU-padded (by, bx, 64) zigzag
    arrays; ``sink_factory(component_index)`` returns the symbol/bit
    sink for that component.
    """
    mcus_y, mcus_x = mcus
    predictors = [0] * len(blocks_per_component)
    for mcu_y in range(mcus_y):
        for mcu_x in range(mcus_x):
            for index, blocks in enumerate(blocks_per_component):
                h, v = samplings[index]
                sink = sink_factory(index)
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
    spec: ScanSpec,
    padded_blocks: list[np.ndarray],
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    engine: str | None = None,
) -> bytes:
    """Vectorized DC refinement: gather bit ``al`` of every DC in MCU
    visit order and pack them as raw 1-bit writes."""
    visits = interleaved_visit_arrays(
        [samplings[i] for i in spec.component_indices], mcus
    )
    all_g = []
    all_bits = []
    for (flat, g, _), index in zip(visits, spec.component_indices):
        dc = padded_blocks[index].reshape(-1, 64)[flat, 0]
        all_g.append(g)
        all_bits.append((dc.astype(np.int64) >> spec.al) & 1)
    order = np.argsort(np.concatenate(all_g), kind="stable")
    bits = np.concatenate(all_bits)[order]
    return pack_entropy_bits(bits, np.ones(bits.size, dtype=np.int64), engine)


# -- scan-level drivers --------------------------------------------------------


class _CountingSink:
    def __init__(self) -> None:
        self.frequencies: dict[int, int] = {}

    def symbol(self, value: int) -> None:
        self.frequencies[value] = self.frequencies.get(value, 0) + 1

    def bits(self, value: int, num_bits: int) -> None:
        pass


class _WritingSink:
    def __init__(self, writer: BitWriter, encoder: HuffmanEncoder) -> None:
        self._writer = writer
        self._encoder = encoder

    def symbol(self, value: int) -> None:
        self._encoder.encode(self._writer, value)

    def bits(self, value: int, num_bits: int) -> None:
        self._writer.write(value, num_bits)


def run_scan(
    spec: ScanSpec,
    blocks_per_component: list[np.ndarray],
    padded_blocks: list[np.ndarray],
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    engine: str | None = None,
):
    """Encode one scan; returns (huffman_table | None, entropy_bytes).

    ``blocks_per_component`` are the true (unpadded) zigzag arrays used
    for AC scans; ``padded_blocks`` the MCU-padded ones for DC scans.
    DC refinement scans carry no Huffman table (raw bits only).  Unless
    ``engine`` is ``"scalar"`` every scan type — DC/AC first passes, DC
    refinement and AC refinement — runs on the batch engine,
    byte-identical to the scalar encoders below (which remain the
    differential reference).
    """
    fast = engine != "scalar"
    if spec.is_dc and spec.is_refinement:
        if fast:
            return None, _run_dc_refinement_fast(
                spec, padded_blocks, samplings, mcus, engine
            )
        writer = BitWriter()
        encode_dc_refinement(
            [padded_blocks[i] for i in spec.component_indices],
            [samplings[i] for i in spec.component_indices],
            mcus,
            spec.al,
            writer,
        )
        writer.flush()
        return None, writer.getvalue()

    if fast and spec.is_dc:
        bundles = dc_scan_token_bundles(
            [padded_blocks[i] for i in spec.component_indices],
            [samplings[i] for i in spec.component_indices],
            mcus,
            spec.al,
        )
        frequencies: dict[int, int] = {}
        for _, categories, _ in bundles:
            merge_frequencies(frequencies, categories)
        table = (
            build_optimized_table(frequencies)
            if frequencies
            else STANDARD_DC_LUMINANCE
        )
        return table, pack_dc_scan_tokens(
            bundles, [table] * len(bundles), engine
        )

    if fast:
        blocks = blocks_per_component[spec.component_indices[0]]
        if spec.is_refinement:
            return encode_ac_refinement_scan(
                blocks.reshape(-1, 64), spec.ss, spec.se, spec.al, engine
            )
        return encode_ac_first_scan(
            blocks.reshape(-1, 64), spec.ss, spec.se, spec.al, engine
        )

    def run_with(sink_or_factory):
        if spec.is_dc:
            encode_dc_first(
                [padded_blocks[i] for i in spec.component_indices],
                [samplings[i] for i in spec.component_indices],
                mcus,
                spec.al,
                sink_or_factory,
            )
        else:
            blocks = blocks_per_component[spec.component_indices[0]]
            if spec.is_refinement:
                encode_ac_refinement(
                    blocks, spec.ss, spec.se, spec.al, sink_or_factory
                )
            else:
                encode_ac_first(
                    blocks, spec.ss, spec.se, spec.al, sink_or_factory
                )

    counting = _CountingSink()
    if spec.is_dc:
        run_with(lambda index: counting)
    else:
        run_with(counting)
    fallback = STANDARD_DC_LUMINANCE if spec.is_dc else STANDARD_AC_LUMINANCE
    table = (
        build_optimized_table(counting.frequencies)
        if counting.frequencies
        else fallback
    )
    writer = BitWriter()
    writing = _WritingSink(writer, HuffmanEncoder(table))
    if spec.is_dc:
        run_with(lambda index: writing)
    else:
        run_with(writing)
    writer.flush()
    return table, writer.getvalue()
