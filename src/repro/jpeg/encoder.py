"""Baseline and progressive JPEG entropy encoding (ITU-T T.81 Annex F/G).

Turns a :class:`~repro.jpeg.structures.CoefficientImage` into a compliant
JPEG byte stream.  Supports:

* baseline sequential (SOF0) with interleaved MCUs and arbitrary
  sampling factors (4:4:4, 4:2:2, 4:2:0), and optional two-pass
  Huffman optimization (libjpeg's ``optimize_coding``);
* progressive (SOF2) driven by a scan script
  (:mod:`repro.jpeg.scans`): spectral selection by default (the layout
  Facebook transcodes uploads into), or successive approximation.

Both start with the same frame header, so every mode keeps the image's
APPn and COM segments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.jpeg import markers
from repro.jpeg.bitstream import (
    BitWriter,
    VectorBitWriter,
    pack_entropy_bits,
)
from repro.jpeg.huffman import (
    AcTokenBatch,
    HuffmanEncoder,
    HuffmanTable,
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
    build_optimized_table,
    codes_for_symbols,
    encode_block_symbols,
    encode_dc_symbols,
    encode_magnitude_bits,
    interleave_code_pairs,
    interleaved_visit_arrays,
    magnitude_category,
    merge_frequencies,
)
from repro.jpeg.markers import Segment
from repro.jpeg.scans import (
    ScanSpec,
    _CountingSink,
    _WritingSink,
    run_scan,
    spectral_selection_script,
)
from repro.jpeg.structures import CoefficientImage
from repro.jpeg.zigzag import ZIGZAG_ORDER


@dataclass
class _ScanComponent:
    """Per-component state used while encoding one baseline scan."""

    zigzag_blocks: np.ndarray  # (by, bx, 64) int32, zigzag order
    h_sampling: int
    v_sampling: int
    dc_sink: object
    ac_sink: object
    prev_dc: int = 0


def _zigzag_blocks(coefficients: np.ndarray) -> np.ndarray:
    """Flatten (by, bx, 8, 8) raster blocks into (by, bx, 64) zigzag."""
    by, bx = coefficients.shape[:2]
    flat = coefficients.reshape(by, bx, 64)
    return flat[..., ZIGZAG_ORDER]


def _pad_blocks_to_mcu(
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


def _encode_block_sequential(
    zigzag: np.ndarray, component: _ScanComponent
) -> None:
    """Encode one full 64-coefficient block (baseline scan)."""
    dc = int(zigzag[0])
    diff = dc - component.prev_dc
    component.prev_dc = dc
    category = magnitude_category(diff)
    component.dc_sink.symbol(category)
    component.dc_sink.bits(encode_magnitude_bits(diff, category), category)

    nonzero = np.nonzero(zigzag[1:])[0]
    if len(nonzero) == 0:
        component.ac_sink.symbol(0x00)  # EOB
        return
    last = int(nonzero[-1]) + 1  # index into zigzag[1..63] space
    run = 0
    for k in range(1, last + 1):
        value = int(zigzag[k])
        if value == 0:
            run += 1
            continue
        while run > 15:
            component.ac_sink.symbol(0xF0)  # ZRL: run of 16 zeros
            run -= 16
        category = magnitude_category(value)
        component.ac_sink.symbol((run << 4) | category)
        component.ac_sink.bits(
            encode_magnitude_bits(value, category), category
        )
        run = 0
    if last < 63:
        component.ac_sink.symbol(0x00)  # EOB


def _encode_interleaved_scan(
    components: list[_ScanComponent],
    mcus_y: int,
    mcus_x: int,
    restart_interval: int = 0,
    writer: BitWriter | None = None,
) -> None:
    """Encode a baseline interleaved scan over the full MCU grid.

    With ``restart_interval`` > 0, an RSTn marker is emitted (and DC
    predictors reset) after every interval of MCUs; during the
    Huffman-counting pass ``writer`` is None and only the predictor
    resets apply, which is what makes the two passes agree.
    """
    mcu_index = 0
    restart_index = 0
    for mcu_y in range(mcus_y):
        for mcu_x in range(mcus_x):
            if (
                restart_interval
                and mcu_index
                and mcu_index % restart_interval == 0
            ):
                if writer is not None:
                    writer.write_restart_marker(restart_index)
                restart_index = (restart_index + 1) % 8
                for component in components:
                    component.prev_dc = 0
            mcu_index += 1
            for component in components:
                v = component.v_sampling
                h = component.h_sampling
                for dy in range(v):
                    for dx in range(h):
                        block = component.zigzag_blocks[
                            mcu_y * v + dy, mcu_x * h + dx
                        ]
                        _encode_block_sequential(block, component)


def _dht_segment(table_class: int, table_id: int, table: HuffmanTable) -> Segment:
    payload = bytes([(table_class << 4) | table_id])
    payload += bytes(table.bits)
    payload += bytes(table.values)
    return Segment(marker=markers.DHT, payload=payload)


def _sos_segment(
    component_specs: list[tuple[int, int, int]],
    spectral_start: int,
    spectral_end: int,
    entropy_data: bytes,
    approx_high: int = 0,
    approx_low: int = 0,
) -> Segment:
    """Build an SOS segment.

    ``component_specs`` holds (component_id, dc_table_id, ac_table_id).
    """
    payload = bytes([len(component_specs)])
    for identifier, dc_id, ac_id in component_specs:
        payload += bytes([identifier, (dc_id << 4) | ac_id])
    payload += bytes(
        [spectral_start, spectral_end, (approx_high << 4) | approx_low]
    )
    return Segment(marker=markers.SOS, payload=payload, entropy_data=entropy_data)


def _frame_header(image: CoefficientImage, progressive: bool) -> list[Segment]:
    """The segments every encode starts with: SOI, JFIF APP0, the
    image's APPn and COM, DQT (8-bit tables in zigzag order) and SOF."""
    quant_tables, quant_ids = _assign_quant_tables(image)
    segments = [
        Segment(marker=markers.SOI),
        Segment(marker=markers.APP0, payload=markers.jfif_app0_payload()),
    ]
    for app_marker, payload in image.app_segments:
        segments.append(Segment(marker=app_marker, payload=payload))
    if image.comment is not None:
        segments.append(Segment(marker=markers.COM, payload=image.comment))
    for table_id, table in enumerate(quant_tables):
        flat = table.reshape(64)[ZIGZAG_ORDER]
        payload = bytes([table_id]) + bytes(int(v) for v in flat)
        segments.append(Segment(marker=markers.DQT, payload=payload))
    sof = struct.pack(
        ">BHHB", 8, image.height, image.width, len(image.components)
    )
    for component, table_id in zip(image.components, quant_ids):
        sampling = (component.h_sampling << 4) | component.v_sampling
        sof += bytes([component.identifier, sampling, table_id])
    marker = markers.SOF2 if progressive else markers.SOF0
    segments.append(Segment(marker=marker, payload=sof))
    return segments


def _assign_quant_tables(image: CoefficientImage) -> tuple[list[np.ndarray], list[int]]:
    """Deduplicate per-component quantization tables into table ids."""
    tables: list[np.ndarray] = []
    ids: list[int] = []
    for component in image.components:
        for table_id, existing in enumerate(tables):
            if np.array_equal(existing, component.quant_table):
                ids.append(table_id)
                break
        else:
            if len(tables) >= 4:
                raise ValueError("more than 4 distinct quantization tables")
            tables.append(component.quant_table)
            ids.append(len(tables) - 1)
    return tables, ids


def _huffman_table_ids(num_components: int) -> list[int]:
    """Component -> Huffman table id (0 luma, 1 chroma), per convention."""
    return [0 if index == 0 else 1 for index in range(num_components)]


def _mcu_grid(image: CoefficientImage) -> tuple[int, int]:
    max_h = image.max_h_sampling
    max_v = image.max_v_sampling
    mcus_x = -(-image.width // (8 * max_h))
    mcus_y = -(-image.height // (8 * max_v))
    return mcus_y, mcus_x


def _build_scan_components(
    image: CoefficientImage,
    dc_sinks: list[object],
    ac_sinks: list[object],
    pad_to_mcu: bool,
) -> list[_ScanComponent]:
    mcus_y, mcus_x = _mcu_grid(image)
    scan_components = []
    for index, component in enumerate(image.components):
        zigzag = _zigzag_blocks(component.coefficients)
        if pad_to_mcu:
            zigzag = _pad_blocks_to_mcu(
                zigzag,
                mcus_y,
                mcus_x,
                component.v_sampling,
                component.h_sampling,
            )
        scan_components.append(
            _ScanComponent(
                zigzag_blocks=zigzag,
                h_sampling=component.h_sampling,
                v_sampling=component.v_sampling,
                dc_sink=dc_sinks[index],
                ac_sink=ac_sinks[index],
            )
        )
    return scan_components


def _run_baseline_scan(
    image: CoefficientImage,
    dc_sinks: list[object],
    ac_sinks: list[object],
    restart_interval: int = 0,
    writer: BitWriter | None = None,
) -> None:
    mcus_y, mcus_x = _mcu_grid(image)
    if len(image.components) == 1:
        # Single-component scans are never interleaved: iterate the
        # component's own block grid directly (one block per MCU).
        component = _build_scan_components(image, dc_sinks, ac_sinks, False)[0]
        by, bx = component.zigzag_blocks.shape[:2]
        mcu_index = 0
        restart_index = 0
        for y in range(by):
            for x in range(bx):
                if (
                    restart_interval
                    and mcu_index
                    and mcu_index % restart_interval == 0
                ):
                    if writer is not None:
                        writer.write_restart_marker(restart_index)
                    restart_index = (restart_index + 1) % 8
                    component.prev_dc = 0
                mcu_index += 1
                _encode_block_sequential(
                    component.zigzag_blocks[y, x], component
                )
    else:
        components = _build_scan_components(image, dc_sinks, ac_sinks, True)
        _encode_interleaved_scan(
            components, mcus_y, mcus_x, restart_interval, writer
        )


# ---------------------------------------------------------------------------
# Native engine: whole-scan token generation and packing in C.
#
# The scalar per-coefficient loops above are the differential-testing
# reference; the functions below produce bit-identical scans by batching
# symbol generation with numpy (repro.jpeg.huffman) and packing whole
# token arrays at once in the C kernel
# (repro.jpeg.bitstream.pack_entropy_bits).
# ---------------------------------------------------------------------------


@dataclass
class _ComponentTokens:
    """One component's baseline-scan tokens, in visit order metadata."""

    g: np.ndarray  # global visit rank of the token's block
    rank: np.ndarray  # order within the block
    symbol: np.ndarray  # Huffman symbol (DC category or AC run|size)
    extra: np.ndarray  # magnitude payload
    extra_length: np.ndarray  # payload width
    mcu: np.ndarray  # linear MCU index (restart segmentation)
    is_dc: np.ndarray  # True -> DC table, False -> AC table


def _baseline_component_tokens(
    image: CoefficientImage, restart_interval: int = 0
) -> tuple[list[_ComponentTokens], int]:
    """Batch the full baseline-scan symbol stream, per component.

    Token multisets (and their ``(g, rank)`` order) reproduce exactly
    what the scalar ``_run_baseline_scan`` feeds its sinks, including
    restart-boundary DC predictor resets; the same bundles drive both
    the frequency-counting and the code-writing pass.
    """
    if len(image.components) == 1:
        component = image.components[0]
        blocks = _zigzag_blocks(component.coefficients).reshape(-1, 64)
        num_blocks = blocks.shape[0]
        indices = np.arange(num_blocks)
        visits = [(indices, indices, indices)]
        blocks_list = [blocks]
        total_mcus = num_blocks
    else:
        mcus_y, mcus_x = _mcu_grid(image)
        samplings = [
            (c.h_sampling, c.v_sampling) for c in image.components
        ]
        visits = interleaved_visit_arrays(samplings, (mcus_y, mcus_x))
        blocks_list = [
            _pad_blocks_to_mcu(
                _zigzag_blocks(c.coefficients),
                mcus_y,
                mcus_x,
                c.v_sampling,
                c.h_sampling,
            ).reshape(-1, 64)
            for c in image.components
        ]
        total_mcus = mcus_y * mcus_x

    result = []
    for (flat, g, mcu), blocks in zip(visits, blocks_list):
        ordered = blocks[flat]
        reset = None
        if restart_interval:
            segment = mcu // restart_interval
            reset = np.zeros(segment.size, dtype=bool)
            reset[1:] = segment[1:] != segment[:-1]
        dc_categories, dc_extras = encode_dc_symbols(ordered[:, 0], reset)
        batch = encode_block_symbols(ordered)
        eob_blocks = np.nonzero(
            batch.last_nonzero < batch.band_length - 1
        )[0]
        num_dc = g.size
        num_eob = eob_blocks.size
        result.append(
            _ComponentTokens(
                g=np.concatenate([g, g[batch.block], g[eob_blocks]]),
                rank=np.concatenate(
                    [
                        np.zeros(num_dc, dtype=np.int64),
                        batch.rank,
                        np.full(
                            num_eob, AcTokenBatch.END_RANK, dtype=np.int64
                        ),
                    ]
                ),
                symbol=np.concatenate(
                    [
                        dc_categories,
                        batch.symbol,
                        np.zeros(num_eob, dtype=np.int64),
                    ]
                ),
                extra=np.concatenate(
                    [
                        dc_extras,
                        batch.extra,
                        np.zeros(num_eob, dtype=np.int64),
                    ]
                ),
                extra_length=np.concatenate(
                    [
                        dc_categories,
                        batch.extra_length,
                        np.zeros(num_eob, dtype=np.int64),
                    ]
                ),
                mcu=np.concatenate(
                    [mcu, mcu[batch.block], mcu[eob_blocks]]
                ),
                is_dc=np.concatenate(
                    [
                        np.ones(num_dc, dtype=bool),
                        np.zeros(
                            batch.block.size + num_eob, dtype=bool
                        ),
                    ]
                ),
            )
        )
    return result, total_mcus


def _frequencies_from_tokens(
    tokens: list[_ComponentTokens], table_ids: list[int]
) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Per-table symbol histograms, matching the scalar counting pass."""
    dc_freqs: list[dict[int, int]] = [{}, {}]
    ac_freqs: list[dict[int, int]] = [{}, {}]
    for bundle, table_id in zip(tokens, table_ids):
        merge_frequencies(dc_freqs[table_id], bundle.symbol[bundle.is_dc])
        merge_frequencies(ac_freqs[table_id], bundle.symbol[~bundle.is_dc])
    return dc_freqs, ac_freqs


def _pack_baseline_tokens(
    tokens: list[_ComponentTokens],
    dc_tables: list[HuffmanTable],
    ac_tables: list[HuffmanTable],
    table_ids: list[int],
    restart_interval: int,
    total_mcus: int,
) -> bytes:
    """Map tokens through their tables, order, and pack the scan."""
    all_g = []
    all_rank = []
    all_codes = []
    all_code_lengths = []
    all_extras = []
    all_extra_lengths = []
    all_mcu = []
    for bundle, table_id in zip(tokens, table_ids):
        symbols = bundle.symbol
        dc_mask = bundle.is_dc
        codes = np.empty(symbols.size, dtype=np.uint64)
        code_lengths = np.empty(symbols.size, dtype=np.int64)
        codes[dc_mask], code_lengths[dc_mask] = codes_for_symbols(
            symbols[dc_mask], dc_tables[table_id]
        )
        codes[~dc_mask], code_lengths[~dc_mask] = codes_for_symbols(
            symbols[~dc_mask], ac_tables[table_id]
        )
        all_g.append(bundle.g)
        all_rank.append(bundle.rank)
        all_codes.append(codes)
        all_code_lengths.append(code_lengths)
        all_extras.append(bundle.extra)
        all_extra_lengths.append(bundle.extra_length)
        all_mcu.append(bundle.mcu)

    g = np.concatenate(all_g)
    order = np.lexsort((np.concatenate(all_rank), g))
    values, lengths = interleave_code_pairs(
        np.concatenate(all_codes)[order],
        np.concatenate(all_code_lengths)[order],
        np.concatenate(all_extras)[order],
        np.concatenate(all_extra_lengths)[order],
    )

    if not restart_interval:
        return pack_entropy_bits(values, lengths)

    # Pack each restart segment separately; RSTn between segments.
    mcu_sorted = np.concatenate(all_mcu)[order]
    num_segments = -(-total_mcus // restart_interval)
    boundaries = np.searchsorted(
        mcu_sorted, np.arange(1, num_segments) * restart_interval
    ).tolist()
    writer = VectorBitWriter()
    start = 0
    for index, boundary in enumerate(boundaries + [mcu_sorted.size]):
        writer.extend(
            values[2 * start : 2 * boundary],
            lengths[2 * start : 2 * boundary],
        )
        if index < len(boundaries):
            writer.write_restart_marker(index % 8)
        start = boundary
    return writer.getvalue()


def _collect_frequencies_baseline(
    image: CoefficientImage, restart_interval: int = 0
) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """First pass of the Huffman-optimizing encoder."""
    table_ids = _huffman_table_ids(len(image.components))
    dc_freqs: list[dict[int, int]] = [{}, {}]
    ac_freqs: list[dict[int, int]] = [{}, {}]
    dc_sinks = [_CountingSink(dc_freqs[t]) for t in table_ids]
    ac_sinks = [_CountingSink(ac_freqs[t]) for t in table_ids]
    _run_baseline_scan(image, dc_sinks, ac_sinks, restart_interval)
    return dc_freqs, ac_freqs


def encode_baseline(
    image: CoefficientImage,
    optimize_huffman: bool = True,
    restart_interval: int = 0,
    engine: str | None = None,
) -> bytes:
    """Encode a coefficient image as a baseline sequential JPEG.

    ``restart_interval`` > 0 emits a DRI segment and RSTn markers every
    that many MCUs (resilience against corrupt scans, at a small size
    cost).  ``engine`` selects the entropy engine (``None`` or
    ``"native"``, the C packer; ``"scalar"``, the reference encoder) —
    both produce byte-identical streams.
    """
    from repro.jpeg.engines import resolve_engine

    engine = resolve_engine(engine)
    if restart_interval < 0 or restart_interval > 0xFFFF:
        raise ValueError(f"invalid restart interval {restart_interval}")
    segments = _frame_header(image, progressive=False)
    table_ids = _huffman_table_ids(len(image.components))
    fast = engine != "scalar"
    if fast:
        tokens, total_mcus = _baseline_component_tokens(
            image, restart_interval
        )
    if optimize_huffman:
        dc_freqs, ac_freqs = (
            _frequencies_from_tokens(tokens, table_ids)
            if fast
            else _collect_frequencies_baseline(image, restart_interval)
        )
        dc_tables = [
            build_optimized_table(freq) if freq else STANDARD_DC_LUMINANCE
            for freq in dc_freqs
        ]
        ac_tables = [
            build_optimized_table(freq) if freq else STANDARD_AC_LUMINANCE
            for freq in ac_freqs
        ]
    else:
        dc_tables = [STANDARD_DC_LUMINANCE, STANDARD_DC_CHROMINANCE]
        ac_tables = [STANDARD_AC_LUMINANCE, STANDARD_AC_CHROMINANCE]

    if fast:
        entropy = _pack_baseline_tokens(
            tokens,
            dc_tables,
            ac_tables,
            table_ids,
            restart_interval,
            total_mcus,
        )
    else:
        writer = BitWriter()
        dc_sinks = [
            _WritingSink(writer, HuffmanEncoder(dc_tables[t]))
            for t in table_ids
        ]
        ac_sinks = [
            _WritingSink(writer, HuffmanEncoder(ac_tables[t]))
            for t in table_ids
        ]
        _run_baseline_scan(
            image, dc_sinks, ac_sinks, restart_interval, writer
        )
        writer.flush()
        entropy = writer.getvalue()

    if restart_interval:
        segments.append(
            Segment(
                marker=markers.DRI,
                payload=struct.pack(">H", restart_interval),
            )
        )
    for table_id in range(max(table_ids) + 1):
        segments.append(_dht_segment(0, table_id, dc_tables[table_id]))
        segments.append(_dht_segment(1, table_id, ac_tables[table_id]))
    specs = [
        (component.identifier, table_id, table_id)
        for component, table_id in zip(image.components, table_ids)
    ]
    segments.append(_sos_segment(specs, 0, 63, entropy))
    segments.append(Segment(marker=markers.EOI))
    return markers.serialize_segments(segments)


def encode_progressive(
    image: CoefficientImage,
    script: list[ScanSpec] | None = None,
    engine: str | None = None,
) -> bytes:
    """Encode a coefficient image as a progressive JPEG (SOF2).

    ``script`` lists the scans (:class:`repro.jpeg.scans.ScanSpec`).
    The default, :func:`~repro.jpeg.scans.spectral_selection_script`,
    sends every coefficient at full precision, one band per scan;
    :func:`~repro.jpeg.scans.default_sa_script` adds successive
    approximation.  Each scan's Huffman tables are optimized for it and
    sent just before it (:func:`~repro.jpeg.scans.run_scan`).
    ``engine`` selects the entropy engine as in :func:`encode_baseline`.
    """
    from repro.jpeg.engines import resolve_engine

    engine = resolve_engine(engine)
    if script is None:
        script = spectral_selection_script(len(image.components))
    segments = _frame_header(image, progressive=True)
    table_ids = _huffman_table_ids(len(image.components))
    mcus = _mcu_grid(image)
    zigzag = [_zigzag_blocks(c.coefficients) for c in image.components]
    padded = [
        _pad_blocks_to_mcu(blocks, *mcus, c.v_sampling, c.h_sampling)
        for blocks, c in zip(zigzag, image.components)
    ]
    samplings = [(c.h_sampling, c.v_sampling) for c in image.components]
    for spec in script:
        tables, entropy = run_scan(
            spec, zigzag, padded, samplings, mcus, table_ids, engine
        )
        for table_id, table in tables.items():
            segments.append(
                _dht_segment(0 if spec.is_dc else 1, table_id, table)
            )
        # Only a DC first scan uses its DC table field; libjpeg writes 0
        # in every field a scan does not use.
        dc_first = spec.is_dc and not spec.is_refinement
        component_specs = [
            (
                image.components[index].identifier,
                table_ids[index] if dc_first else 0,
                0,
            )
            for index in spec.component_indices
        ]
        segments.append(
            _sos_segment(
                component_specs, spec.ss, spec.se, entropy, spec.ah, spec.al
            )
        )
    segments.append(Segment(marker=markers.EOI))
    return markers.serialize_segments(segments)
