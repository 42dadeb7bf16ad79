"""JPEG decoding: byte stream -> coefficients -> pixels (T.81 Annex F/G).

Decodes baseline sequential (SOF0/SOF1) and progressive (SOF2) streams:
spectral selection and successive approximation, interleaved or one
component per scan, with or without restart intervals.  Every scan
visits its blocks along :func:`~repro.jpeg.blocks.scan_visit_plan` in
one call of the C kernel (:func:`repro.jpeg.native.decode.decode_scan`).
Decoding stops at the coefficient level
(:func:`decode_to_coefficients`) — which is all P3 needs — and
:func:`coefficients_to_pixels` performs dequantization, inverse DCT,
chroma upsampling and color conversion to produce pixel arrays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.jpeg import markers
from repro.jpeg.blocks import (
    blocks_to_plane,
    scan_block_count,
    scan_visit_plan,
)
from repro.jpeg.color import upsample_plane, ycbcr_to_rgb
from repro.jpeg.dct import inverse_dct
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.markers import JpegFormatError, Segment
from repro.jpeg.native import decode as native_decode
from repro.jpeg.quantization import dequantize
from repro.jpeg.structures import CoefficientImage, ComponentInfo
from repro.jpeg.zigzag import INVERSE_ZIGZAG, ZIGZAG_ORDER

#: The largest frame the decoder accepts, in pixels: 8192 x 8192
#: (67.1 MP) admits a 50 MP phone photo (8160 x 6120), whose int32
#: coefficient arrays stay under 0.8 GiB at 4:4:4.  The frame header
#: sizes those arrays, but a component's array waits for its first scan
#: and that scan's entropy bytes (:func:`_allocate_first_reached`), so
#: a forged header alone allocates nothing.
MAX_FRAME_PIXELS = 8192 * 8192


@dataclass
class _FrameComponent:
    identifier: int
    h_sampling: int
    v_sampling: int
    quant_table_id: int
    blocks_y: int = 0
    blocks_x: int = 0
    # (blocks_y * blocks_x + 1, 64) zigzag rows; the last row takes the
    # MCU padding of interleaved scans and is dropped.  None until the
    # first scan that reaches the component.
    coefficients: np.ndarray | None = None


@dataclass
class _DecoderState:
    width: int = 0
    height: int = 0
    progressive: bool = False
    components: list[_FrameComponent] = field(default_factory=list)
    quant_tables: dict[int, np.ndarray] = field(default_factory=dict)
    dc_tables: dict[int, HuffmanTable] = field(default_factory=dict)
    ac_tables: dict[int, HuffmanTable] = field(default_factory=dict)
    restart_interval: int = 0
    app_segments: list[tuple[int, bytes]] = field(default_factory=list)
    comment: bytes | None = None


def _parse_dqt(state: _DecoderState, payload: bytes) -> None:
    position = 0
    while position < len(payload):
        precision_id = payload[position]
        position += 1
        precision = precision_id >> 4
        table_id = precision_id & 0x0F
        if table_id > 3:  # T.81 B.2.4.1: Tq is 0-3
            raise JpegFormatError(
                f"invalid quantization table header: Tq {table_id} outside 0-3"
            )
        if precision == 0:
            raw = np.frombuffer(
                payload[position : position + 64], dtype=np.uint8
            ).astype(np.int32)
            position += 64
        else:
            raw = np.frombuffer(
                payload[position : position + 128], dtype=">u2"
            ).astype(np.int32)
            position += 128
        if raw.size != 64:
            raise JpegFormatError("truncated DQT payload")
        # DQT stores the table in zigzag order; undo it.
        raster = np.zeros(64, dtype=np.int32)
        raster[ZIGZAG_ORDER] = raw
        state.quant_tables[table_id] = raster.reshape(8, 8)


def _parse_dht(state: _DecoderState, payload: bytes) -> None:
    position = 0
    while position < len(payload):
        class_id = payload[position]
        position += 1
        table_class = class_id >> 4
        table_id = class_id & 0x0F
        bits = tuple(payload[position : position + 16])
        position += 16
        count = sum(bits)
        values = tuple(payload[position : position + count])
        position += count
        table = HuffmanTable(bits=bits, values=values)
        if table_class == 0:
            state.dc_tables[table_id] = table
        else:
            state.ac_tables[table_id] = table


def _parse_sof(state: _DecoderState, segment: Segment) -> None:
    payload = segment.payload
    if len(payload) < 6:
        raise JpegFormatError("truncated SOF payload")
    precision, height, width, num_components = struct.unpack(
        ">BHHB", payload[:6]
    )
    if len(payload) < 6 + 3 * num_components:
        raise JpegFormatError("truncated SOF payload")
    if precision != 8:
        raise JpegFormatError(f"unsupported sample precision {precision}")
    # T.81 B.2.2: Nf >= 1, unique Ci, H and V in 1-4 (they size the
    # MCU grid) and Tq in 0-3.  Y = 0 is legal only with a DNL marker,
    # which this decoder does not read, and X = 0 never is.
    if num_components == 0:
        raise JpegFormatError("invalid frame header: no components")
    if height == 0 or width == 0:
        raise JpegFormatError(
            f"invalid frame header: dimensions {width}x{height}"
        )
    if width * height > MAX_FRAME_PIXELS:
        raise JpegFormatError(
            f"frame {width}x{height} ({width * height} pixels) is over the "
            f"{MAX_FRAME_PIXELS}-pixel budget"
        )
    state.height = height
    state.width = width
    state.progressive = segment.marker == markers.SOF2
    position = 6
    for _ in range(num_components):
        identifier = payload[position]
        h_sampling = payload[position + 1] >> 4
        v_sampling = payload[position + 1] & 0x0F
        quant_table_id = payload[position + 2]
        position += 3
        if not (1 <= h_sampling <= 4 and 1 <= v_sampling <= 4):
            raise JpegFormatError(
                f"invalid frame header: component {identifier} sampling "
                f"{h_sampling}x{v_sampling} outside 1-4"
            )
        if any(c.identifier == identifier for c in state.components):
            raise JpegFormatError(
                f"invalid frame header: duplicate component id {identifier}"
            )
        if quant_table_id > 3:
            raise JpegFormatError(
                f"invalid frame header: component {identifier} quantization "
                f"table {quant_table_id} outside 0-3"
            )
        state.components.append(
            _FrameComponent(
                identifier=identifier,
                h_sampling=h_sampling,
                v_sampling=v_sampling,
                quant_table_id=quant_table_id,
            )
        )
    max_h = max(c.h_sampling for c in state.components)
    max_v = max(c.v_sampling for c in state.components)
    for component in state.components:
        plane_w = -(-width * component.h_sampling // max_h)
        plane_h = -(-height * component.v_sampling // max_v)
        component.blocks_x = -(-plane_w // 8)
        component.blocks_y = -(-plane_h // 8)


@dataclass
class _ScanSpec:
    components: list[_FrameComponent]
    dc_tables: list[HuffmanTable | None]
    ac_tables: list[HuffmanTable | None]
    spectral_start: int
    spectral_end: int
    approx_high: int
    approx_low: int


def _parse_sos(state: _DecoderState, payload: bytes) -> _ScanSpec:
    if not payload:
        raise JpegFormatError("truncated SOS payload")
    num_components = payload[0]
    # T.81 B.2.3: Ns in 1-4, each component named once, and at most 10
    # blocks in the MCU of an interleaved scan.
    if not 1 <= num_components <= 4:
        raise JpegFormatError(
            f"invalid scan header: {num_components} components, not 1-4"
        )
    components = []
    dc_tables: list[HuffmanTable | None] = []
    ac_tables: list[HuffmanTable | None] = []
    position = 1
    if len(payload) < 1 + 2 * num_components + 3:
        raise JpegFormatError("truncated SOS payload")
    for _ in range(num_components):
        identifier = payload[position]
        table_ids = payload[position + 1]
        position += 2
        component = next(
            (c for c in state.components if c.identifier == identifier),
            None,
        )
        if component is None:
            raise JpegFormatError(
                f"SOS names unknown component {identifier}"
            )
        if any(c.identifier == identifier for c in components):
            raise JpegFormatError(
                f"invalid scan header: component {identifier} named twice"
            )
        components.append(component)
        dc_tables.append(state.dc_tables.get(table_ids >> 4))
        ac_tables.append(state.ac_tables.get(table_ids & 0x0F))
    blocks_per_mcu = sum(c.h_sampling * c.v_sampling for c in components)
    if num_components > 1 and blocks_per_mcu > 10:
        raise JpegFormatError(
            f"invalid scan header: {blocks_per_mcu} blocks per MCU, over 10"
        )
    spectral_start = payload[position]
    spectral_end = payload[position + 1]
    approx = payload[position + 2]
    return _ScanSpec(
        components=components,
        dc_tables=dc_tables,
        ac_tables=ac_tables,
        spectral_start=spectral_start,
        spectral_end=spectral_end,
        approx_high=approx >> 4,
        approx_low=approx & 0x0F,
    )


def _check_scan_tables(state: _DecoderState, spec: _ScanSpec) -> None:
    """Verify the Huffman tables a scan references were actually sent,
    its spectral band, and that a progressive AC scan names one
    component."""
    needs_dc = not state.progressive or (
        spec.spectral_start == 0 and spec.approx_high == 0
    )
    needs_ac = not state.progressive or spec.spectral_start > 0
    if needs_dc and any(t is None for t in spec.dc_tables):
        raise JpegFormatError("scan references a missing DC Huffman table")
    if needs_ac and any(t is None for t in spec.ac_tables):
        raise JpegFormatError("scan references a missing AC Huffman table")
    if not 0 <= spec.spectral_start <= spec.spectral_end <= 63:
        raise JpegFormatError(
            f"invalid spectral band ({spec.spectral_start}, "
            f"{spec.spectral_end})"
        )
    if state.progressive and spec.spectral_start and len(spec.components) > 1:
        raise JpegFormatError("progressive AC scans must be non-interleaved")


def _allocate_first_reached(
    kind: str,
    spec: _ScanSpec,
    data: bytes,
    samplings: list[tuple[int, int]],
    grids: list[tuple[int, int]],
) -> None:
    """Allocate the arrays of the components this scan reaches first.

    The frame header sizes them, so they wait for evidence that the
    stream can fill them.  A component's first scan must code its DCs
    (an AC scan first is libjpeg's ``JWRN_BOGUS_PROGRESSION``), and a
    baseline, DC-first or DC-refinement scan codes at least one bit per
    block, so a scan whose entropy bytes hold fewer bits than it has
    blocks is refused before anything is allocated.
    """
    first = [c for c in spec.components if c.coefficients is None]
    if not first:
        return
    if kind.startswith("ac"):
        raise JpegFormatError(
            f"AC scan of component {first[0].identifier} before its DC scan"
        )
    blocks = scan_block_count(samplings, grids)
    if 8 * len(data) < blocks:
        raise JpegFormatError(
            f"scan of {blocks} blocks has only {len(data)} entropy bytes"
        )
    for component in first:
        component.coefficients = np.zeros(
            (component.blocks_y * component.blocks_x + 1, 64), dtype=np.int32
        )


def _decode_scan(
    state: _DecoderState,
    spec: _ScanSpec,
    data: bytes,
    decode_scan: Callable[..., None],
) -> None:
    """Decode one scan along its visit plan with ``decode_scan``.

    The plan splits into intervals of ``restart_interval`` MCUs, one
    restart segment each.
    """
    if not state.progressive:
        kind = "baseline"
    else:
        band = "ac" if spec.spectral_start else "dc"
        kind = f"{band}_{'refine' if spec.approx_high else 'first'}"
    samplings = [(c.h_sampling, c.v_sampling) for c in spec.components]
    grids = [(c.blocks_y, c.blocks_x) for c in spec.components]
    _allocate_first_reached(kind, spec, data, samplings, grids)
    slots, flats = scan_visit_plan(samplings, grids, spill=True)
    decode_scan(
        kind,
        data,
        restart_interval=state.restart_interval,
        slots=slots,
        flats=flats,
        views=[c.coefficients for c in spec.components],
        dc_tables=spec.dc_tables,
        ac_tables=spec.ac_tables,
        spectral=(spec.spectral_start, spec.spectral_end),
        al=spec.approx_low,
    )


def decode_to_coefficients(data: bytes) -> CoefficientImage:
    """Decode a JPEG byte stream to quantized coefficients.

    This is the ``jpegio``-style entry point used by the P3 splitter and
    reconstructor: no dequantization or IDCT is performed.
    """
    return _decode_coefficients(data, native_decode.decode_scan)


def _decode_coefficients(
    data: bytes, decode_scan: Callable[..., None]
) -> CoefficientImage:
    """:func:`decode_to_coefficients` with ``decode_scan``, which has
    the signature of :func:`repro.jpeg.native.decode.decode_scan`,
    decoding each scan.  The scalar T.81 oracle in the tests plugs in
    here."""
    state = _DecoderState()
    segments = markers.parse_segments(data)
    for segment in segments:
        if segment.marker == markers.DQT:
            _parse_dqt(state, segment.payload)
        elif segment.marker == markers.DHT:
            _parse_dht(state, segment.payload)
        elif segment.marker in (markers.SOF0, markers.SOF1, markers.SOF2):
            _parse_sof(state, segment)
        elif segment.marker == markers.DRI:
            (state.restart_interval,) = struct.unpack(
                ">H", segment.payload[:2]
            )
        elif markers.APP0 <= segment.marker <= markers.APP15:
            state.app_segments.append((segment.marker, segment.payload))
        elif segment.marker == markers.COM:
            state.comment = segment.payload
        elif segment.marker == markers.SOS:
            if not state.components:
                raise JpegFormatError("SOS before frame header")
            spec = _parse_sos(state, segment.payload)
            _check_scan_tables(state, spec)
            _decode_scan(state, spec, segment.entropy_data, decode_scan)
    if not state.components:
        raise JpegFormatError("no frame header found")

    components = []
    for frame_component in state.components:
        if frame_component.coefficients is None:
            raise JpegFormatError(
                f"component {frame_component.identifier} has no scan"
            )
        table = state.quant_tables.get(frame_component.quant_table_id)
        if table is None:
            raise JpegFormatError(
                f"missing quantization table "
                f"{frame_component.quant_table_id}"
            )
        blocks_y, blocks_x = frame_component.blocks_y, frame_component.blocks_x
        zigzag = frame_component.coefficients[:-1].reshape(
            blocks_y, blocks_x, 64
        )
        raster = zigzag[..., INVERSE_ZIGZAG].reshape(blocks_y, blocks_x, 8, 8)
        components.append(
            ComponentInfo(
                identifier=frame_component.identifier,
                h_sampling=frame_component.h_sampling,
                v_sampling=frame_component.v_sampling,
                quant_table=table.copy(),
                coefficients=raster,
            )
        )
    # The first (luma) APP0 JFIF segment is implicit; keep any extras.
    app_segments = [
        (m, p)
        for m, p in state.app_segments
        if not (m == markers.APP0 and p.startswith(b"JFIF\x00"))
    ]
    return CoefficientImage(
        width=state.width,
        height=state.height,
        components=components,
        progressive=state.progressive,
        app_segments=app_segments,
        comment=state.comment,
    )


def coefficients_to_planes(
    image: CoefficientImage, level_shift: bool = True
) -> list[np.ndarray]:
    """Render each component to a full-resolution float64 plane.

    No clipping is applied; with ``level_shift=False`` the planes are the
    zero-centred inverse-DCT values.  The P3 pixel-domain reconstruction
    (paper Eq. 2) needs the unclipped, unshifted renderings of the secret
    and correction images so they stay valid difference images.
    """
    offset = 128.0 if level_shift else 0.0
    planes = []
    for index, component in enumerate(image.components):
        dequantized = dequantize(
            component.coefficients, component.quant_table
        )
        pixels = inverse_dct(dequantized) + offset
        plane_h, plane_w = image.component_plane_size(index)
        plane = blocks_to_plane(pixels, plane_h, plane_w)
        factor_y = image.max_v_sampling // component.v_sampling
        factor_x = image.max_h_sampling // component.h_sampling
        plane = upsample_plane(
            plane, factor_y, factor_x, (image.height, image.width)
        )
        planes.append(plane)
    return planes


def planes_to_pixels(planes: list[np.ndarray]) -> np.ndarray:
    """Level-shifted planes to pixels: one luma plane clipped to 0..255,
    or YCbCr planes as an ``(h, w, 3)`` uint8 RGB array."""
    if len(planes) == 1:
        return np.clip(planes[0], 0.0, 255.0)
    return ycbcr_to_rgb(planes)


def coefficients_to_pixels(image: CoefficientImage) -> np.ndarray:
    """Render a coefficient image to pixels.

    Returns a ``(h, w)`` float64 luma plane for grayscale images or an
    ``(h, w, 3)`` uint8 RGB array for color images.
    """
    return planes_to_pixels(coefficients_to_planes(image, level_shift=True))
