"""Native bit packing with 0xFF stuffing for the encode path.

``pack_entropy_bits_native`` is what
:func:`repro.jpeg.bitstream.pack_entropy_bits` runs: it packs like
:class:`~repro.jpeg.bitstream.BitWriter` byte for byte.  It raises
:class:`~repro.jpeg.native.kernel.NativeUnavailableError` when the
kernel cannot build, and ``ValueError`` for a token wider than 63 bits,
past the C shift pipeline's range (no encoder emits one: codes are at
most 16 bits and extra bits at most 15).
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.native.kernel import require_kernel


def pack_entropy_bits_native(values: object, lengths: object) -> bytes:
    handle = require_kernel()
    value_arr = np.ascontiguousarray(values, dtype=np.uint64)
    length_arr = np.ascontiguousarray(lengths, dtype=np.int64)
    if value_arr.shape != length_arr.shape or value_arr.ndim != 1:
        raise ValueError("values and lengths must be 1-D arrays of equal length")
    if length_arr.size and int(length_arr.max()) > 63:
        raise ValueError(
            f"token of {int(length_arr.max())} bits exceeds the packer's 63"
        )
    total_bits = int(np.clip(length_arr, 0, None).sum())
    # Worst case every byte is 0xFF (doubled by stuffing) plus the
    # padded tail; 8 spare bytes keep the kernel's eager flush in range.
    out = np.empty(2 * (total_bits // 8 + 2) + 8, dtype=np.uint8)
    ffi = handle.ffi
    n = handle.lib.p3_pack_bits(
        ffi.cast("uint64_t *", value_arr.ctypes.data),
        ffi.cast("int64_t *", length_arr.ctypes.data),
        length_arr.size,
        ffi.cast("uint8_t *", out.ctypes.data),
    )
    return out[: int(n)].tobytes()
