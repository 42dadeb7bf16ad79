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

Each scan is coded in two passes by :func:`~repro.jpeg.scans.run_scan`:
the C kernel (:mod:`repro.jpeg.native.encode`) runs each scan kind's
token generation, symbol counting and bit writing, visiting the scan's
blocks along its :func:`~repro.jpeg.blocks.scan_visit_plan`, the order
a decoder reads them in.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from typing import Callable

import numpy as np

from repro.jpeg import markers
from repro.jpeg.blocks import block_grid_shape, scan_visit_plan
from repro.jpeg.huffman import (
    HuffmanTable,
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
)
from repro.jpeg.markers import JpegFormatError, Segment
from repro.jpeg.native import encode as native_encode
from repro.jpeg.scans import (
    Scan,
    ScanSpec,
    run_scan,
    spectral_selection_script,
)
from repro.jpeg.structures import CoefficientImage
from repro.jpeg.zigzag import ZIGZAG_ORDER


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
    image's APPn and COM, DQT (8-bit tables in zigzag order) and SOF.

    Each component's block grid must be the one the frame gives it
    (T.81 A.1.1), the grid a decoder fills and every visit plan walks.
    """
    for index, component in enumerate(image.components):
        grid = block_grid_shape(*image.component_plane_size(index))
        if (component.blocks_y, component.blocks_x) != grid:
            raise ValueError(
                f"component {component.identifier} has a "
                f"{component.blocks_y}x{component.blocks_x} block grid; "
                f"a {image.width}x{image.height} frame gives it "
                f"{grid[0]}x{grid[1]}"
            )
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


def _visit_plan(
    image: CoefficientImage, component_indices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The visit plan of a scan over ``component_indices``, MCU padding
    clamped to the edge block."""
    components = [image.components[index] for index in component_indices]
    return scan_visit_plan(
        [(c.h_sampling, c.v_sampling) for c in components],
        [(c.blocks_y, c.blocks_x) for c in components],
    )


def encode_baseline(
    image: CoefficientImage,
    optimize_huffman: bool = True,
    restart_interval: int = 0,
) -> bytes:
    """Encode a coefficient image as a baseline sequential JPEG.

    ``restart_interval`` > 0 emits a DRI segment and RSTn markers every
    that many MCUs (resilience against corrupt scans, at a small size
    cost).  An AC value that needs more than 15 magnitude bits is a
    :class:`~repro.jpeg.markers.JpegFormatError`.  The one scan
    interleaves every component, so an image of more than 4 components
    or more than 10 blocks per MCU is a ``JpegFormatError`` too.  A
    component whose block grid is not the one the frame gives it is a
    ``ValueError``.
    """
    return _encode_baseline(
        image, optimize_huffman, restart_interval, native_encode.baseline_scan
    )


def _encode_baseline(
    image: CoefficientImage,
    optimize_huffman: bool,
    restart_interval: int,
    baseline_scan: Callable[..., Scan],
) -> bytes:
    """:func:`encode_baseline` with its one :class:`~repro.jpeg.scans.Scan`
    built by ``baseline_scan``, which has the signature of
    :func:`repro.jpeg.native.encode.baseline_scan`.  The scalar T.81
    oracle in the tests plugs in here."""
    if restart_interval < 0 or restart_interval > 0xFFFF:
        raise ValueError(f"invalid restart interval {restart_interval}")
    _check_interleave(image, range(len(image.components)))
    segments = _frame_header(image, progressive=False)
    table_ids = _huffman_table_ids(len(image.components))
    slots, flats = _visit_plan(image, range(len(image.components)))
    scan = baseline_scan(image, table_ids, restart_interval, slots, flats)
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
) -> bytes:
    """Encode a coefficient image as a progressive JPEG (SOF2).

    ``script`` lists the scans (:class:`repro.jpeg.scans.ScanSpec`).
    The default, :func:`~repro.jpeg.scans.spectral_selection_script`,
    sends every coefficient at full precision, one band per scan;
    :func:`~repro.jpeg.scans.default_sa_script` adds successive
    approximation.  Each scan's Huffman tables are optimized for it and
    sent just before it (:func:`~repro.jpeg.scans.run_scan`).
    A DC scan that interleaves more than 4 components or more than 10
    blocks per MCU is a :class:`~repro.jpeg.markers.JpegFormatError`;
    a script with one DC scan per component codes such an image.
    """
    return _encode_progressive(image, script, native_encode.progressive_scans)


def _encode_progressive(
    image: CoefficientImage,
    script: list[ScanSpec] | None,
    progressive_scans: Callable[..., Callable[..., Scan]],
) -> bytes:
    """:func:`encode_progressive` with its :class:`~repro.jpeg.scans.Scan`
    objects built by ``progressive_scans``, which has the signature of
    :func:`repro.jpeg.native.encode.progressive_scans`.  The scalar T.81
    oracle in the tests plugs in here."""
    if script is None:
        script = spectral_selection_script(len(image.components))
    for spec in script:
        _check_interleave(image, spec.component_indices)
    segments = _frame_header(image, progressive=True)
    table_ids = _huffman_table_ids(len(image.components))
    scan_for = progressive_scans(image, table_ids)
    for spec in script:
        plan = _visit_plan(image, spec.component_indices)
        tables, entropy = run_scan(scan_for(spec, *plan))
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
