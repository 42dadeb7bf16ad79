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

Each scan is coded in two passes by :func:`~repro.jpeg.scans.run_scan`
on one of two engines.  The native engine (the default) runs each scan
kind's token generation, symbol counting and bit writing in the C
kernel (:mod:`repro.jpeg.native.encode`); the scalar engine walks the
per-symbol T.81 loops below and in :mod:`repro.jpeg.scans`, and is the
native engine's byte-for-byte oracle.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.jpeg import markers
from repro.jpeg.bitstream import BitWriter
from repro.jpeg.huffman import (
    HuffmanTable,
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
    encode_magnitude_bits,
    magnitude_category,
)
from repro.jpeg.markers import JpegFormatError, Segment
from repro.jpeg.native import encode as native_encode
from repro.jpeg.scans import (
    Scan,
    ScalarScan,
    ScanSpec,
    pad_blocks_to_mcu,
    run_scan,
    scalar_scans,
    spectral_selection_script,
    zigzag_blocks,
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
        if category > 15:
            # The symbol's size field has 4 bits (libjpeg's
            # JERR_BAD_DCT_COEF).
            raise JpegFormatError("DCT coefficient out of range")
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


def _check_interleave(
    image: CoefficientImage, component_indices: Sequence[int]
) -> None:
    """T.81 B.2.3: an interleaved scan names at most 4 components and
    its MCU holds at most 10 blocks (libjpeg's JERR_COMPONENT_COUNT and
    JERR_BAD_MCU_SIZE).  The decoder rejects any other scan, so the
    encoder must not write one."""
    if len(component_indices) < 2:
        return
    if len(component_indices) > 4:
        raise JpegFormatError(
            f"interleaved scan of {len(component_indices)} components, over 4"
        )
    blocks = sum(
        image.components[index].h_sampling
        * image.components[index].v_sampling
        for index in component_indices
    )
    if blocks > 10:
        raise JpegFormatError(
            f"interleaved scan of {blocks} blocks per MCU, over 10"
        )


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
        zigzag = zigzag_blocks(component.coefficients)
        if pad_to_mcu:
            zigzag = pad_blocks_to_mcu(
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
    ``"native"``, the C kernel; ``"scalar"``, the reference encoder) —
    both produce byte-identical streams, and both raise
    :class:`~repro.jpeg.markers.JpegFormatError` for an AC value that
    needs more than 15 magnitude bits.  The one scan interleaves every
    component, so an image of more than 4 components or more than 10
    blocks per MCU is a ``JpegFormatError`` too.
    """
    from repro.jpeg.engines import resolve_engine

    engine = resolve_engine(engine)
    if restart_interval < 0 or restart_interval > 0xFFFF:
        raise ValueError(f"invalid restart interval {restart_interval}")
    _check_interleave(image, range(len(image.components)))
    segments = _frame_header(image, progressive=False)
    table_ids = _huffman_table_ids(len(image.components))
    scan: Scan
    if engine == "scalar":
        scan = ScalarScan(
            lambda sinks, writer: _run_baseline_scan(
                image,
                [sinks[0, t] for t in table_ids],
                [sinks[1, t] for t in table_ids],
                restart_interval,
                writer,
            ),
            [(table_class, t) for t in table_ids for table_class in (0, 1)],
        )
    else:
        scan = native_encode.baseline_scan(
            image, table_ids, restart_interval, _mcu_grid(image)
        )
    standard = None
    if not optimize_huffman:
        standard = {
            (0, 0): STANDARD_DC_LUMINANCE,
            (1, 0): STANDARD_AC_LUMINANCE,
            (0, 1): STANDARD_DC_CHROMINANCE,
            (1, 1): STANDARD_AC_CHROMINANCE,
        }
    tables, entropy = run_scan(scan, standard)

    if restart_interval:
        segments.append(
            Segment(
                marker=markers.DRI,
                payload=struct.pack(">H", restart_interval),
            )
        )
    for table_id in range(max(table_ids) + 1):
        segments.append(_dht_segment(0, table_id, tables[0, table_id]))
        segments.append(_dht_segment(1, table_id, tables[1, table_id]))
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
    A DC scan that interleaves more than 4 components or more than 10
    blocks per MCU is a :class:`~repro.jpeg.markers.JpegFormatError`;
    a script with one DC scan per component codes such an image.
    """
    from repro.jpeg.engines import resolve_engine

    engine = resolve_engine(engine)
    if script is None:
        script = spectral_selection_script(len(image.components))
    for spec in script:
        _check_interleave(image, spec.component_indices)
    segments = _frame_header(image, progressive=True)
    table_ids = _huffman_table_ids(len(image.components))
    scans = scalar_scans if engine == "scalar" else native_encode.progressive_scans
    scan_for = scans(image, table_ids, _mcu_grid(image))
    for spec in script:
        tables, entropy = run_scan(scan_for(spec))
        for (table_class, table_id), table in tables.items():
            segments.append(_dht_segment(table_class, table_id, table))
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
