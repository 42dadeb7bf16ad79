"""The whole-scan decode driver over the C kernel.

:func:`decode_scan` decodes one scan of any of the five kinds end to
end: the raw (still-stuffed) entropy bytes go in, the component
coefficient views are filled in place, and kernel error codes come
back as the exception the scalar engine raises on the same stream
(:class:`~repro.jpeg.markers.JpegFormatError`, or ``OverflowError``).
It owns all the pointer plumbing (destuffed restart segments with zero
padding, per-slot LUT and view pointer arrays), so
``repro.jpeg.decoder`` only hands over the scan's visit plan.  It
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

#: What the five scan kinds are called in "entropy data ended before
#: ... completed", on both engines.
SCAN_NAMES = {
    "baseline": "scan",
    "dc_first": "DC scan",
    "dc_refine": "DC refinement",
    "ac_first": "AC scan",
    "ac_refine": "AC refinement",
}


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


def _raise_for(code: int, kind: str) -> None:
    """Map a kernel error code to the scalar engine's exception."""
    if code == OK:
        return
    if code == ERR_HUFF:
        raise JpegFormatError("corrupt Huffman code")
    if code == ERR_EOD:
        raise JpegFormatError(
            f"entropy data ended before {SCAN_NAMES[kind]} completed"
        )
    if code == ERR_DC_RANGE:
        raise JpegFormatError("DC prediction out of range (corrupt scan)")
    if code == ERR_AC_BOUNDS:
        raise JpegFormatError(
            "AC run exceeds block bounds" if kind == "baseline"
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
    """Decode one scan of ``kind`` (a :data:`SCAN_NAMES` key) along its
    visit plan ``(slots, flats)``, one row per MCU, into ``views[slot]``
    (``(blocks, 64)`` int32 zigzag rows).

    The plan splits into intervals of ``restart_interval`` MCUs (the
    whole scan when 0), one restart segment each.  Each interval starts
    with zeroed DC predictors and EOB run, and the previous segment must
    be consumed to within its padding bits, as the scalar engine
    requires when it reads the RSTn.
    """
    handle = require_kernel()
    ffi, lib = handle.ffi, handle.lib
    segments, _ = split_restart_segments(data)
    uses_dc = kind in ("baseline", "dc_first")
    uses_ac = kind in ("baseline", "ac_first", "ac_refine")
    dc_ptrs, dc_keep = _lut_pointers(handle, dc_tables if uses_dc else [])
    ac_ptrs, ac_keep = _lut_pointers(handle, ac_tables if uses_ac else [])
    view_ptrs = ffi.new(
        "int32_t *[]", [ffi.cast("int32_t *", v.ctypes.data) for v in views]
    )
    prev_dc = np.zeros(len(views), dtype=np.int32)
    prev_ptr = ffi.cast("int32_t *", prev_dc.ctypes.data)
    ss, se = spectral

    def call(reader: SegmentReader, slot: Any, flat: Any, n: int) -> int:
        cursor = (reader.data_ptr, reader.nbits, reader.pos)
        if kind == "baseline":
            return int(lib.p3_decode_baseline(
                *cursor, dc_ptrs, ac_ptrs, view_ptrs, slot, flat, n, prev_ptr
            ))
        if kind == "dc_first":
            return int(lib.p3_decode_dc_first(
                *cursor, dc_ptrs, view_ptrs, slot, flat, n, al, prev_ptr
            ))
        if kind == "dc_refine":
            return int(lib.p3_decode_dc_refine(
                *cursor, view_ptrs, slot, flat, n, 1 << al
            ))
        if kind == "ac_first":
            return int(lib.p3_decode_ac_first(
                *cursor, ac_ptrs[0], flat, n, ss, se, al, view_ptrs[0]
            ))
        return int(lib.p3_decode_ac_refine(
            *cursor, ac_ptrs[0], flat, n, ss, se, 1 << al, view_ptrs[0]
        ))

    slots = np.ascontiguousarray(slots, dtype=np.uint8)
    flats = np.ascontiguousarray(flats, dtype=np.int64)
    total_mcus, blocks_per_mcu = flats.shape
    interval = restart_interval or total_mcus
    for index, start in enumerate(range(0, total_mcus, interval)):
        if index:
            if reader.bits_remaining >= 8 or index >= len(segments):
                raise JpegFormatError("expected restart marker mid-scan")
            prev_dc[:] = 0
        reader = SegmentReader(handle, segments[index])
        first = start * blocks_per_mcu
        code = call(
            reader,
            ffi.cast("uint8_t *", slots.ctypes.data + first),
            ffi.cast("int64_t *", flats.ctypes.data + 8 * first),
            min(interval, total_mcus - start) * blocks_per_mcu,
        )
        _raise_for(code, kind)
    del dc_keep, ac_keep  # keepalives for the LUT pointer arrays
