"""The whole-scan decode driver over the C kernel.

:func:`decode_scan` decodes one scan of any of the five kinds end to
end in one kernel call: the raw (still-stuffed) entropy bytes go in,
the kernel splits them at their RSTn markers and destuffs each restart
segment itself, the component coefficient views are filled in place,
and kernel error codes come back as the exception the scalar T.81
oracle raises on the same stream
(:class:`~repro.jpeg.markers.JpegFormatError`, or ``OverflowError``).  It owns the pointer plumbing (the segment
buffer, per-slot LUT and view pointer arrays), so ``repro.jpeg.decoder``
only hands over the scan's visit plan.  It raises
:class:`~repro.jpeg.native.kernel.NativeUnavailableError` when the
kernel cannot build.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.jpeg.huffman import HuffmanTable, lookup_table
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.native.kernel import (
    ERR_AC_BOUNDS,
    ERR_DC_RANGE,
    ERR_EOD,
    ERR_HUFF,
    ERR_OVERFLOW,
    ERR_REFINE_SIZE,
    ERR_RESTART,
    KernelHandle,
    OK,
    require_kernel,
)

#: What the five scan kinds are called in "entropy data ended before
#: ... completed".  The kernel numbers the kinds in
#: this order.
SCAN_NAMES = {
    "baseline": "scan",
    "dc_first": "DC scan",
    "dc_refine": "DC refinement",
    "ac_first": "AC scan",
    "ac_refine": "AC refinement",
}
_KIND_CODES = {kind: code for code, kind in enumerate(SCAN_NAMES)}


def _raise_for(code: int, kind: str) -> None:
    """Map a kernel error code to its exception."""
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
    if code == ERR_RESTART:
        raise JpegFormatError("expected restart marker mid-scan")
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
    be consumed to within its padding bits before its RSTn.  The kernel
    walks every interval in one call, destuffing each segment into one
    buffer.
    """
    handle = require_kernel()
    ffi, lib = handle.ffi, handle.lib
    uses_dc = kind in ("baseline", "dc_first")
    uses_ac = kind in ("baseline", "ac_first", "ac_refine")
    dc_ptrs, dc_keep = _lut_pointers(handle, dc_tables if uses_dc else [])
    ac_ptrs, ac_keep = _lut_pointers(handle, ac_tables if uses_ac else [])
    view_ptrs = ffi.new(
        "int32_t *[]", [ffi.cast("int32_t *", v.ctypes.data) for v in views]
    )
    prev_dc = np.zeros(len(views), dtype=np.int32)
    # Room for the longest segment (the whole scan) plus the peek's
    # 8 zero bytes; the kernel writes the padding itself.
    buffer = np.empty(len(data) + 8, dtype=np.uint8)
    slots = np.ascontiguousarray(slots, dtype=np.uint8)
    flats = np.ascontiguousarray(flats, dtype=np.int64)
    total_mcus, blocks_per_mcu = flats.shape
    ss, se = spectral
    code = lib.p3_decode_scan(
        _KIND_CODES[kind],
        ffi.from_buffer("uint8_t[]", data),
        len(data),
        ffi.cast("uint8_t *", buffer.ctypes.data),
        total_mcus,
        blocks_per_mcu,
        restart_interval,
        dc_ptrs,
        ac_ptrs,
        view_ptrs,
        ffi.cast("int32_t *", prev_dc.ctypes.data),
        len(views),
        ffi.cast("uint8_t *", slots.ctypes.data),
        ffi.cast("int64_t *", flats.ctypes.data),
        ss,
        se,
        al,
    )
    _raise_for(int(code), kind)
    del dc_keep, ac_keep  # keepalives for the LUT pointer arrays
