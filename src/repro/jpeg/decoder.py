"""JPEG decoding: byte stream -> coefficients -> pixels (T.81 Annex F/G).

Decodes baseline sequential (SOF0) and progressive (SOF2, spectral
selection with Ah=Al=0) streams.  Decoding stops at the coefficient level
(:func:`decode_to_coefficients`) — which is all P3 needs — and
:func:`coefficients_to_pixels` performs dequantization, inverse DCT,
chroma upsampling and color conversion to produce pixel arrays.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.jpeg import markers
from repro.jpeg.bitstream import BitReader, EndOfData, MarkerFound
from repro.jpeg.blocks import blocks_to_plane, mcu_visit_plan
from repro.jpeg.color import upsample_plane, ycbcr_to_rgb
from repro.jpeg.dct import inverse_dct
from repro.jpeg.huffman import (
    HuffmanDecoder,
    HuffmanTable,
    decode_magnitude_bits,
)
from repro.jpeg.markers import JpegFormatError, Segment
from repro.jpeg.native import decode as native_decode
from repro.jpeg.quantization import dequantize
from repro.jpeg.structures import CoefficientImage, ComponentInfo
from repro.jpeg.zigzag import INVERSE_ZIGZAG, ZIGZAG_ORDER


@dataclass
class _FrameComponent:
    identifier: int
    h_sampling: int
    v_sampling: int
    quant_table_id: int
    blocks_y: int = 0  # non-interleaved (true) block grid
    blocks_x: int = 0
    padded_y: int = 0  # MCU-padded block grid
    padded_x: int = 0
    coefficients: np.ndarray | None = None  # (padded_y, padded_x, 64) zigzag


@dataclass
class _DecoderState:
    width: int = 0
    height: int = 0
    progressive: bool = False
    components: list[_FrameComponent] = field(default_factory=list)
    quant_tables: dict[int, np.ndarray] = field(default_factory=dict)
    dc_decoders: dict[int, HuffmanDecoder] = field(default_factory=dict)
    ac_decoders: dict[int, HuffmanDecoder] = field(default_factory=dict)
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
        decoder = HuffmanDecoder(table)
        if table_class == 0:
            state.dc_decoders[table_id] = decoder
            state.dc_tables[table_id] = table
        else:
            state.ac_decoders[table_id] = decoder
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
    mcus_x = -(-width // (8 * max_h))
    mcus_y = -(-height // (8 * max_v))
    for component in state.components:
        plane_w = -(-width * component.h_sampling // max_h)
        plane_h = -(-height * component.v_sampling // max_v)
        component.blocks_x = -(-plane_w // 8)
        component.blocks_y = -(-plane_h // 8)
        component.padded_x = mcus_x * component.h_sampling
        component.padded_y = mcus_y * component.v_sampling
        component.coefficients = np.zeros(
            (component.padded_y, component.padded_x, 64), dtype=np.int32
        )


@dataclass
class _ScanSpec:
    components: list[_FrameComponent]
    dc_decoders: list[HuffmanDecoder | None]
    ac_decoders: list[HuffmanDecoder | None]
    spectral_start: int
    spectral_end: int
    approx_high: int
    approx_low: int
    dc_tables: list[HuffmanTable | None] = field(default_factory=list)
    ac_tables: list[HuffmanTable | None] = field(default_factory=list)


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
    dc_decoders: list[HuffmanDecoder | None] = []
    ac_decoders: list[HuffmanDecoder | None] = []
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
        dc_decoders.append(state.dc_decoders.get(table_ids >> 4))
        ac_decoders.append(state.ac_decoders.get(table_ids & 0x0F))
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
        dc_decoders=dc_decoders,
        ac_decoders=ac_decoders,
        spectral_start=spectral_start,
        spectral_end=spectral_end,
        approx_high=approx >> 4,
        approx_low=approx & 0x0F,
        dc_tables=dc_tables,
        ac_tables=ac_tables,
    )


def _decode_block_sequential(
    reader: BitReader,
    zigzag: np.ndarray,
    dc_decoder: HuffmanDecoder,
    ac_decoder: HuffmanDecoder,
    prev_dc: int,
) -> int:
    category = dc_decoder.decode(reader)
    if category:
        bits = reader.read(category)
        diff = decode_magnitude_bits(bits, category)
    else:
        diff = 0
    dc = prev_dc + diff
    if not -(1 << 20) <= dc <= (1 << 20):
        # 8-bit baseline DCs fit in 12 bits; runaway predictions mean a
        # corrupt stream, not a huge image.
        raise JpegFormatError("DC prediction out of range (corrupt scan)")
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


def _check_scan_tables(state: _DecoderState, spec: _ScanSpec) -> None:
    """Verify the Huffman tables a scan references were actually sent."""
    needs_dc = not state.progressive or (
        spec.spectral_start == 0 and spec.approx_high == 0
    )
    needs_ac = not state.progressive or spec.spectral_start > 0
    if needs_dc and any(d is None for d in spec.dc_decoders):
        raise JpegFormatError("scan references a missing DC Huffman table")
    if needs_ac and any(d is None for d in spec.ac_decoders):
        raise JpegFormatError("scan references a missing AC Huffman table")
    if not 0 <= spec.spectral_start <= spec.spectral_end <= 63:
        raise JpegFormatError(
            f"invalid spectral band ({spec.spectral_start}, "
            f"{spec.spectral_end})"
        )


def _decode_baseline_scan(
    state: _DecoderState, spec: _ScanSpec, data: bytes
) -> None:
    reader = BitReader(data)
    prev_dc = {id(c): 0 for c in spec.components}
    max_h = max(c.h_sampling for c in state.components)
    max_v = max(c.v_sampling for c in state.components)
    interleaved = len(spec.components) > 1
    restart_interval = state.restart_interval
    mcu_index = 0

    def maybe_restart() -> None:
        nonlocal mcu_index
        if (
            restart_interval
            and mcu_index
            and mcu_index % restart_interval == 0
        ):
            reader.consume_restart_marker()
            for component in spec.components:
                prev_dc[id(component)] = 0
        mcu_index += 1

    try:
        if interleaved:
            mcus_x = -(-state.width // (8 * max_h))
            mcus_y = -(-state.height // (8 * max_v))
            for mcu_y in range(mcus_y):
                for mcu_x in range(mcus_x):
                    maybe_restart()
                    for index, component in enumerate(spec.components):
                        v = component.v_sampling
                        h = component.h_sampling
                        for dy in range(v):
                            for dx in range(h):
                                block = component.coefficients[
                                    mcu_y * v + dy, mcu_x * h + dx
                                ]
                                prev_dc[id(component)] = (
                                    _decode_block_sequential(
                                        reader,
                                        block,
                                        spec.dc_decoders[index],
                                        spec.ac_decoders[index],
                                        prev_dc[id(component)],
                                    )
                                )
        else:
            component = spec.components[0]
            for y in range(component.blocks_y):
                for x in range(component.blocks_x):
                    maybe_restart()
                    prev_dc[id(component)] = _decode_block_sequential(
                        reader,
                        component.coefficients[y, x],
                        spec.dc_decoders[0],
                        spec.ac_decoders[0],
                        prev_dc[id(component)],
                    )
    except (MarkerFound, EndOfData):
        raise JpegFormatError("entropy data ended before scan completed")
    except ValueError as error:
        raise JpegFormatError(str(error))


def _decode_progressive_dc_refinement(
    state: _DecoderState, spec: _ScanSpec, data: bytes
) -> None:
    """DC refinement: one raw bit per block sets bit Al of each DC."""
    reader = BitReader(data)
    max_h = max(c.h_sampling for c in state.components)
    max_v = max(c.v_sampling for c in state.components)
    mcus_x = -(-state.width // (8 * max_h))
    mcus_y = -(-state.height // (8 * max_v))
    bit_value = np.int32(1 << spec.approx_low)
    try:
        for mcu_y in range(mcus_y):
            for mcu_x in range(mcus_x):
                for component in spec.components:
                    v = component.v_sampling
                    h = component.h_sampling
                    for dy in range(v):
                        for dx in range(h):
                            if reader.read_bit():
                                component.coefficients[
                                    mcu_y * v + dy, mcu_x * h + dx, 0
                                ] |= bit_value
    except (MarkerFound, EndOfData):
        raise JpegFormatError(
            "entropy data ended before DC refinement completed"
        )


def _decode_progressive_dc_scan(
    state: _DecoderState, spec: _ScanSpec, data: bytes
) -> None:
    if spec.approx_high != 0:
        _decode_progressive_dc_refinement(state, spec, data)
        return
    reader = BitReader(data)
    prev_dc = {id(c): 0 for c in spec.components}
    max_h = max(c.h_sampling for c in state.components)
    max_v = max(c.v_sampling for c in state.components)
    mcus_x = -(-state.width // (8 * max_h))
    mcus_y = -(-state.height // (8 * max_v))
    shift = spec.approx_low
    try:
        for mcu_y in range(mcus_y):
            for mcu_x in range(mcus_x):
                for index, component in enumerate(spec.components):
                    v = component.v_sampling
                    h = component.h_sampling
                    for dy in range(v):
                        for dx in range(h):
                            decoder = spec.dc_decoders[index]
                            category = decoder.decode(reader)
                            if category:
                                bits = reader.read(category)
                                diff = decode_magnitude_bits(bits, category)
                            else:
                                diff = 0
                            dc = prev_dc[id(component)] + diff
                            if not -(1 << 20) <= dc <= (1 << 20):
                                raise JpegFormatError(
                                    "DC prediction out of range "
                                    "(corrupt scan)"
                                )
                            prev_dc[id(component)] = dc
                            component.coefficients[
                                mcu_y * v + dy, mcu_x * h + dx, 0
                            ] = dc << shift
    except (MarkerFound, EndOfData):
        raise JpegFormatError("entropy data ended before DC scan completed")
    except ValueError as error:
        raise JpegFormatError(str(error))


def _decode_progressive_ac_refinement(
    spec: _ScanSpec, data: bytes
) -> None:
    """AC refinement pass (T.81 G.1.2.3 / jdphuff decode_mcu_AC_refine)."""
    component = spec.components[0]
    decoder = spec.ac_decoders[0]
    reader = BitReader(data)
    positive = np.int32(1 << spec.approx_low)
    negative = np.int32(-(1 << spec.approx_low))
    eob_run = 0

    def correct(block, k) -> None:
        """Read a correction bit for an already-nonzero coefficient."""
        if reader.read_bit():
            if (int(block[k]) & int(positive)) == 0:
                block[k] += positive if block[k] >= 0 else negative

    try:
        for y in range(component.blocks_y):
            for x in range(component.blocks_x):
                block = component.coefficients[y, x]
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
                            new_value = (
                                positive if reader.read_bit() else negative
                            )
                        # Advance over coefficients, applying correction
                        # bits to nonzero-history ones, consuming `run`
                        # zero-history positions.
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
    except (MarkerFound, EndOfData):
        raise JpegFormatError(
            "entropy data ended before AC refinement completed"
        )
    except ValueError as error:
        raise JpegFormatError(str(error))


def _decode_progressive_ac_scan(
    spec: _ScanSpec, data: bytes
) -> None:
    if spec.approx_high != 0:
        _decode_progressive_ac_refinement(spec, data)
        return
    if len(spec.components) != 1:
        raise JpegFormatError("progressive AC scans must be non-interleaved")
    component = spec.components[0]
    decoder = spec.ac_decoders[0]
    reader = BitReader(data)
    shift = spec.approx_low
    eob_run = 0
    try:
        for y in range(component.blocks_y):
            for x in range(component.blocks_x):
                if eob_run > 0:
                    eob_run -= 1
                    continue
                block = component.coefficients[y, x]
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
    except (MarkerFound, EndOfData):
        raise JpegFormatError("entropy data ended before AC scan completed")
    except ValueError as error:
        raise JpegFormatError(str(error))


# ---------------------------------------------------------------------------
# Native engine: whole-scan decoding in the C kernel.  The drivers below
# only gather visit-order arrays and Huffman tables; all bit-level work
# happens in repro.jpeg.native, which reaches the scalar functions'
# verdicts on every stream.
# ---------------------------------------------------------------------------


def _mcu_visit_arrays(
    state: _DecoderState,
    spec: _ScanSpec,
    force_interleaved: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], int, int]:
    """Flattened block visit order for an (interleaved) MCU traversal.

    Returns ``(slots, flats, views, total_mcus, blocks_per_mcu)`` where
    ``slots[i]``/``flats[i]`` give the component slot and flat block
    index of the i-th visited block and ``views[slot]`` is that
    component's padded coefficient array viewed as (num_blocks, 64).
    Single-component *baseline* scans are never interleaved and
    traverse the true block grid, one block per MCU (T.81 A.2.2);
    progressive DC scans pass ``force_interleaved`` to match the scalar
    decoder (and both encoders), which always walk the MCU-padded grid
    for DC scans regardless of component count.
    """
    if len(spec.components) == 1 and not force_interleaved:
        component = spec.components[0]
        views = [component.coefficients.reshape(-1, 64)]
        padded_x = component.padded_x
        flats = (
            np.arange(component.blocks_y, dtype=np.int64)[:, None] * padded_x
            + np.arange(component.blocks_x, dtype=np.int64)
        ).ravel()
        slots = np.zeros(flats.size, dtype=np.uint8)
        return slots, flats, views, flats.size, 1
    max_h = max(c.h_sampling for c in state.components)
    max_v = max(c.v_sampling for c in state.components)
    mcus_x = -(-state.width // (8 * max_h))
    mcus_y = -(-state.height // (8 * max_v))
    views = [c.coefficients.reshape(-1, 64) for c in spec.components]
    slots, flats = mcu_visit_plan(
        [(c.h_sampling, c.v_sampling) for c in spec.components],
        (mcus_y, mcus_x),
        [(c.padded_y, c.padded_x) for c in spec.components],
    )
    return slots, flats, views, mcus_x * mcus_y, slots.size // (mcus_x * mcus_y)


def _decode_baseline_scan_native(
    state: _DecoderState, spec: _ScanSpec, data: bytes
) -> None:
    slots, flats, views, total_mcus, blocks_per_mcu = _mcu_visit_arrays(
        state, spec
    )
    native_decode.decode_baseline(
        data,
        restart_interval=state.restart_interval,
        slots=slots,
        flats=flats,
        views=views,
        dc_tables=spec.dc_tables,
        ac_tables=spec.ac_tables,
        total_mcus=total_mcus,
        blocks_per_mcu=blocks_per_mcu,
    )


def _decode_progressive_dc_scan_native(
    state: _DecoderState, spec: _ScanSpec, data: bytes
) -> None:
    slots, flats, views, _, _ = _mcu_visit_arrays(
        state, spec, force_interleaved=True
    )
    if spec.approx_high != 0:
        native_decode.decode_dc_refine(
            data,
            slots=slots,
            flats=flats,
            views=views,
            bit_value=1 << spec.approx_low,
        )
    else:
        native_decode.decode_dc_first(
            data,
            slots=slots,
            flats=flats,
            views=views,
            dc_tables=spec.dc_tables,
            shift=spec.approx_low,
        )


def _decode_progressive_ac_scan_native(
    spec: _ScanSpec, data: bytes
) -> None:
    if len(spec.components) != 1:
        raise JpegFormatError("progressive AC scans must be non-interleaved")
    component = spec.components[0]
    view = component.coefficients.reshape(-1, 64)
    flats = (
        np.arange(component.blocks_y, dtype=np.int64)[:, None]
        * component.padded_x
        + np.arange(component.blocks_x, dtype=np.int64)
    ).ravel()
    if spec.approx_high != 0:
        native_decode.decode_ac_refine(
            data,
            flats=flats,
            view=view,
            ac_table=spec.ac_tables[0],
            spectral_start=spec.spectral_start,
            spectral_end=spec.spectral_end,
            positive=1 << spec.approx_low,
        )
    else:
        native_decode.decode_ac_first(
            data,
            flats=flats,
            view=view,
            ac_table=spec.ac_tables[0],
            spectral_start=spec.spectral_start,
            spectral_end=spec.spectral_end,
            shift=spec.approx_low,
        )


def decode_to_coefficients(
    data: bytes, engine: str | None = None
) -> CoefficientImage:
    """Decode a JPEG byte stream to quantized coefficients.

    This is the ``jpegio``-style entry point used by the P3 splitter and
    reconstructor: no dequantization or IDCT is performed.  ``engine``
    picks the entropy engine (``None`` or ``"native"``, the C kernel;
    ``"scalar"``, the T.81 reference).  Both produce bit-identical
    results.
    """
    from repro.jpeg.engines import resolve_engine

    engine = resolve_engine(engine)
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
            if not state.progressive:
                if engine == "native":
                    _decode_baseline_scan_native(
                        state, spec, segment.entropy_data
                    )
                else:
                    _decode_baseline_scan(state, spec, segment.entropy_data)
            elif spec.spectral_start == 0:
                if engine == "native":
                    _decode_progressive_dc_scan_native(
                        state, spec, segment.entropy_data
                    )
                else:
                    _decode_progressive_dc_scan(
                        state, spec, segment.entropy_data
                    )
            elif engine == "native":
                _decode_progressive_ac_scan_native(spec, segment.entropy_data)
            else:
                _decode_progressive_ac_scan(spec, segment.entropy_data)
    if not state.components:
        raise JpegFormatError("no frame header found")

    components = []
    for frame_component in state.components:
        table = state.quant_tables.get(frame_component.quant_table_id)
        if table is None:
            raise JpegFormatError(
                f"missing quantization table "
                f"{frame_component.quant_table_id}"
            )
        zigzag = frame_component.coefficients[
            : frame_component.blocks_y, : frame_component.blocks_x
        ]
        raster = zigzag[..., INVERSE_ZIGZAG].reshape(
            frame_component.blocks_y, frame_component.blocks_x, 8, 8
        )
        components.append(
            ComponentInfo(
                identifier=frame_component.identifier,
                h_sampling=frame_component.h_sampling,
                v_sampling=frame_component.v_sampling,
                quant_table=table.copy(),
                coefficients=raster.astype(np.int32),
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


def coefficients_to_pixels(image: CoefficientImage) -> np.ndarray:
    """Render a coefficient image to pixels.

    Returns a ``(h, w)`` float64 luma plane for grayscale images or an
    ``(h, w, 3)`` uint8 RGB array for color images.
    """
    planes = coefficients_to_planes(image, level_shift=True)
    if image.is_grayscale:
        return np.clip(planes[0], 0.0, 255.0)
    ycbcr = np.stack(planes, axis=-1)
    return ycbcr_to_rgb(ycbcr)
