"""Whole-scan decode drivers over the C kernel.

Each function decodes one scan type end-to-end: the raw (still-stuffed)
entropy bytes go in, the component coefficient views are mutated in
place, and kernel error codes come back as the exception the scalar
engine raises on the same stream
(:class:`~repro.jpeg.markers.JpegFormatError`, or ``OverflowError``).
The drivers own all the pointer plumbing (destuffed segment buffers
with zero padding, per-slot LUT and view pointer arrays), so
``repro.jpeg.decoder`` only has to hand over visit-order arrays.  Each
raises :class:`~repro.jpeg.native.kernel.NativeUnavailableError` when
the kernel cannot build.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.jpeg.bitstream import split_restart_segments
from repro.jpeg.huffman import HuffmanTable, lookup_table
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.native.kernel import (
    ERR_AC_BOUNDS,
    ERR_DC_RANGE,
    ERR_EOD,
    ERR_HUFF,
    ERR_OVERFLOW,
    ERR_REFINE_SIZE,
    KernelHandle,
    OK,
    require_kernel,
)


class SegmentReader:
    """One destuffed entropy segment plus a C-side bit cursor.

    The buffer is destuffed in place by the kernel (output never
    outruns input) and padded with 8 zero bytes so the 16-bit peek can
    read past the end without bounds checks.
    """

    __slots__ = ("handle", "buffer", "nbits", "pos", "data_ptr")

    def __init__(self, handle: KernelHandle, raw: bytes) -> None:
        self.handle = handle
        n = len(raw)
        buffer = np.zeros(n + 8, dtype=np.uint8)
        if n:
            buffer[:n] = np.frombuffer(raw, dtype=np.uint8)
        ffi = handle.ffi
        self.data_ptr = ffi.cast("uint8_t *", buffer.ctypes.data)
        out_len = int(handle.lib.p3_destuff(self.data_ptr, n, self.data_ptr))
        buffer[out_len : out_len + 8] = 0
        self.buffer = buffer  # keepalive for data_ptr
        self.nbits = 8 * out_len
        self.pos = ffi.new("int64_t *")

    @property
    def bits_remaining(self) -> int:
        return self.nbits - self.pos[0]


def _raise_for(code: int, scan: str) -> None:
    """Map a kernel error code to the scalar engine's exception."""
    if code == OK:
        return
    if code == ERR_HUFF:
        raise JpegFormatError("corrupt Huffman code")
    if code == ERR_EOD:
        raise JpegFormatError(f"entropy data ended before {scan} completed")
    if code == ERR_DC_RANGE:
        raise JpegFormatError("DC prediction out of range (corrupt scan)")
    if code == ERR_AC_BOUNDS:
        raise JpegFormatError(
            "AC run exceeds block bounds" if scan == "scan"
            else "AC run exceeds spectral band"
        )
    if code == ERR_REFINE_SIZE:
        raise JpegFormatError("refinement scan symbol with size > 1")
    if code == ERR_OVERFLOW:
        raise OverflowError("decoded DC coefficient exceeds int32 range")
    raise JpegFormatError(f"native kernel error {code}")


def _lut_pointers(
    handle: KernelHandle, tables: list[HuffmanTable | None]
) -> tuple[Any, list[Any]]:
    """Per-slot LUT pointer array (+ keepalives) for the scan's tables.

    Slots whose table is missing get a NULL pointer; callers only reach
    them on scans the header validation already rejected.
    """
    ffi = handle.ffi
    buffers = [
        ffi.from_buffer("int32_t[]", lookup_table(table).entries)
        if table is not None
        else ffi.NULL
        for table in tables
    ]
    return ffi.new("int32_t *[]", buffers), buffers


def _view_pointers(
    handle: KernelHandle, views: list[np.ndarray]
) -> Any:
    ffi = handle.ffi
    return ffi.new(
        "int32_t *[]",
        [ffi.cast("int32_t *", view.ctypes.data) for view in views],
    )


def _array_ptr(handle: KernelHandle, ctype: str, array: np.ndarray) -> Any:
    return handle.ffi.cast(ctype, array.ctypes.data)


def decode_baseline(
    data: bytes,
    *,
    restart_interval: int,
    slots: np.ndarray,
    flats: np.ndarray,
    views: list[np.ndarray],
    dc_tables: list[HuffmanTable | None],
    ac_tables: list[HuffmanTable | None],
    total_mcus: int,
    blocks_per_mcu: int,
) -> None:
    """Baseline sequential scan, restart segment by restart segment."""
    handle = require_kernel()
    segments, _ = split_restart_segments(data)
    dc_ptrs, dc_keep = _lut_pointers(handle, dc_tables)
    ac_ptrs, ac_keep = _lut_pointers(handle, ac_tables)
    view_ptrs = _view_pointers(handle, views)
    slots = np.ascontiguousarray(slots, dtype=np.uint8)
    flats = np.ascontiguousarray(flats, dtype=np.int64)
    prev_dc = np.zeros(len(views), dtype=np.int32)
    prev_ptr = _array_ptr(handle, "int32_t *", prev_dc)
    ffi = handle.ffi
    reader = SegmentReader(handle, segments[0])
    segment_index = 0
    position = 0
    mcus_done = 0
    while mcus_done < total_mcus:
        if restart_interval:
            mcus_now = min(restart_interval, total_mcus - mcus_done)
        else:
            mcus_now = total_mcus
        if mcus_done:
            # Parity with the scalar engine: the previous segment must
            # be consumed to within its <8 padding bits when the RSTn
            # arrives.
            if reader.bits_remaining >= 8:
                raise JpegFormatError("expected restart marker mid-scan")
            segment_index += 1
            if segment_index >= len(segments):
                raise JpegFormatError("expected restart marker mid-scan")
            reader = SegmentReader(handle, segments[segment_index])
            prev_dc[:] = 0
        nblocks = mcus_now * blocks_per_mcu
        code = handle.lib.p3_decode_baseline(
            reader.data_ptr,
            reader.nbits,
            reader.pos,
            dc_ptrs,
            ac_ptrs,
            view_ptrs,
            ffi.cast("uint8_t *", slots.ctypes.data + position),
            ffi.cast("int64_t *", flats.ctypes.data + 8 * position),
            nblocks,
            prev_ptr,
        )
        _raise_for(code, "scan")
        position += nblocks
        mcus_done += mcus_now
    del dc_keep, ac_keep  # keepalives for the LUT pointer arrays


def decode_dc_first(
    data: bytes,
    *,
    slots: np.ndarray,
    flats: np.ndarray,
    views: list[np.ndarray],
    dc_tables: list[HuffmanTable | None],
    shift: int,
) -> None:
    """Progressive DC first scan (Ah=0): DC diffs shifted by Al."""
    handle = require_kernel()
    segments, _ = split_restart_segments(data)
    reader = SegmentReader(handle, segments[0])
    dc_ptrs, dc_keep = _lut_pointers(handle, dc_tables)
    view_ptrs = _view_pointers(handle, views)
    slots = np.ascontiguousarray(slots, dtype=np.uint8)
    flats = np.ascontiguousarray(flats, dtype=np.int64)
    prev_dc = np.zeros(len(views), dtype=np.int32)
    code = handle.lib.p3_decode_dc_first(
        reader.data_ptr,
        reader.nbits,
        reader.pos,
        dc_ptrs,
        view_ptrs,
        _array_ptr(handle, "uint8_t *", slots),
        _array_ptr(handle, "int64_t *", flats),
        flats.size,
        shift,
        _array_ptr(handle, "int32_t *", prev_dc),
    )
    _raise_for(code, "DC scan")
    del dc_keep


def decode_dc_refine(
    data: bytes,
    *,
    slots: np.ndarray,
    flats: np.ndarray,
    views: list[np.ndarray],
    bit_value: int,
) -> None:
    """Progressive DC refinement: one raw bit (bit Al) per block."""
    handle = require_kernel()
    segments, _ = split_restart_segments(data)
    reader = SegmentReader(handle, segments[0])
    slots = np.ascontiguousarray(slots, dtype=np.uint8)
    flats = np.ascontiguousarray(flats, dtype=np.int64)
    code = handle.lib.p3_decode_dc_refine(
        reader.data_ptr,
        reader.nbits,
        reader.pos,
        _view_pointers(handle, views),
        _array_ptr(handle, "uint8_t *", slots),
        _array_ptr(handle, "int64_t *", flats),
        flats.size,
        bit_value,
    )
    _raise_for(code, "DC refinement")


def decode_ac_first(
    data: bytes,
    *,
    flats: np.ndarray,
    view: np.ndarray,
    ac_table: HuffmanTable,
    spectral_start: int,
    spectral_end: int,
    shift: int,
) -> None:
    """Progressive AC first scan (single component, EOB runs)."""
    handle = require_kernel()
    segments, _ = split_restart_segments(data)
    reader = SegmentReader(handle, segments[0])
    flats = np.ascontiguousarray(flats, dtype=np.int64)
    lut = handle.ffi.from_buffer("int32_t[]", lookup_table(ac_table).entries)
    code = handle.lib.p3_decode_ac_first(
        reader.data_ptr,
        reader.nbits,
        reader.pos,
        lut,
        _array_ptr(handle, "int64_t *", flats),
        flats.size,
        spectral_start,
        spectral_end,
        shift,
        _array_ptr(handle, "int32_t *", view),
    )
    _raise_for(code, "AC scan")


def decode_ac_refine(
    data: bytes,
    *,
    flats: np.ndarray,
    view: np.ndarray,
    ac_table: HuffmanTable,
    spectral_start: int,
    spectral_end: int,
    positive: int,
) -> None:
    """Progressive AC refinement (correction bits + new significants)."""
    handle = require_kernel()
    segments, _ = split_restart_segments(data)
    reader = SegmentReader(handle, segments[0])
    flats = np.ascontiguousarray(flats, dtype=np.int64)
    lut = handle.ffi.from_buffer("int32_t[]", lookup_table(ac_table).entries)
    code = handle.lib.p3_decode_ac_refine(
        reader.data_ptr,
        reader.nbits,
        reader.pos,
        lut,
        _array_ptr(handle, "int64_t *", flats),
        flats.size,
        spectral_start,
        spectral_end,
        positive,
        _array_ptr(handle, "int32_t *", view),
    )
    _raise_for(code, "AC refinement")
