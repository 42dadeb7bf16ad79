"""The upload's per-sample pixel passes, one kernel call each.

Each function runs one C loop of :mod:`repro.jpeg.native.kernel` over
whole planes: colour conversion both ways, the level shift with 8x8
tiling, quantization, the Gaussian blur (with the unsharp mask fused
into it) and the provider's float-to-uint8 packing.  They own the
pointer plumbing: inputs go in as float64 (or uint8) with their element
strides, so channel views and cropped planes need no copy, and outputs
are fresh C-ordered arrays.  Every output is bit-identical to the numpy
form the loop replaced (``tests/jpeg/oracles.py``).  They raise
:class:`~repro.jpeg.native.kernel.NativeUnavailableError` when the
kernel cannot build.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.jpeg.native.kernel import require_kernel


def _samples(array: np.ndarray, dtype: type) -> np.ndarray:
    """``array`` as ``dtype``, copied only when its dtype differs or its
    strides are not whole elements."""
    array = np.asarray(array, dtype=dtype)
    if not array.flags.aligned or any(s % array.itemsize for s in array.strides):
        array = np.ascontiguousarray(array)
    return array


def _strides(array: np.ndarray) -> list[int]:
    return [stride // array.itemsize for stride in array.strides]


def rgb_to_ycbcr(rgb: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """``(h, w, 3)`` RGB -> float64 YCbCr; ``weights`` is (kr, kg, kb).

    uint8 samples are read as they are; any other dtype is converted to
    float64 first, as ``np.copyto(..., casting="unsafe")`` converts it.
    """
    handle = require_kernel()
    ffi = handle.ffi
    if rgb.dtype == np.uint8:
        source = rgb
        u8, f64 = ffi.cast("uint8_t *", source.ctypes.data), ffi.NULL
    else:
        source = _samples(rgb, np.float64)
        u8, f64 = ffi.NULL, ffi.cast("double *", source.ctypes.data)
    out = np.empty(source.shape, dtype=np.float64)
    handle.lib.p3_rgb_to_ycbcr(
        u8,
        f64,
        source.shape[0],
        source.shape[1],
        ffi.new("int64_t[3]", _strides(source)),
        ffi.new("double[3]", list(weights)),
        ffi.cast("double *", out.ctypes.data),
    )
    return out


def planes_to_rgb8(
    planes: Sequence[np.ndarray], weights: Sequence[float] | None = None
) -> np.ndarray:
    """Three ``(h, w)`` planes -> ``(h, w, 3)`` uint8, rounded half to
    even and clipped to [0, 255].

    With ``weights`` = (kr, kg, kb) the planes are Y, Cb and Cr and are
    converted to RGB first; without, they are packed as they are, which
    is ``np.stack([np.clip(p, 0, 255) for p in planes], -1).round()
    .astype(np.uint8)``.
    """
    if len(planes) != 3:
        raise ValueError(f"expected 3 planes, got {len(planes)}")
    sources = [_samples(plane, np.float64) for plane in planes]
    shape = sources[0].shape
    if len(shape) != 2 or any(s.shape != shape for s in sources):
        raise ValueError(
            f"expected three equal 2-D planes, got {[s.shape for s in sources]}"
        )
    handle = require_kernel()
    ffi = handle.ffi
    out = np.empty((*shape, 3), dtype=np.uint8)
    handle.lib.p3_planes_to_rgb8(
        *(ffi.cast("double *", s.ctypes.data) for s in sources),
        shape[0],
        shape[1],
        ffi.new("int64_t[6]", [n for s in sources for n in _strides(s)]),
        ffi.new("double[3]", list(weights)) if weights is not None else ffi.NULL,
        ffi.cast("uint8_t *", out.ctypes.data),
    )
    return out


def tile_blocks(plane: np.ndarray) -> np.ndarray:
    """Level-shift a 2-D 8-bit plane by -128 and tile it into
    ``(by, bx, 8, 8)`` float64 blocks, edge-padded to a multiple of 8."""
    if plane.ndim != 2:
        raise ValueError(f"expected 2-D plane, got shape {plane.shape}")
    source = _samples(plane, np.float64)
    height, width = source.shape
    out = np.empty(((height + 7) // 8, (width + 7) // 8, 8, 8))
    handle = require_kernel()
    ffi = handle.ffi
    handle.lib.p3_tile(
        ffi.cast("double *", source.ctypes.data),
        height,
        width,
        *_strides(source),
        128.0,
        ffi.cast("double *", out.ctypes.data),
    )
    return out


def quantize(coefficients: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``(..., 8, 8)`` coefficients over an (8, 8) table -> int32,
    rounded half away from zero."""
    if coefficients.shape[-2:] != (8, 8):
        raise ValueError(
            f"expected trailing 8x8 blocks, got {coefficients.shape}"
        )
    source = np.ascontiguousarray(coefficients, dtype=np.float64)
    steps = np.ascontiguousarray(np.broadcast_to(table, (8, 8)), dtype=np.float64)
    out = np.empty(source.shape, dtype=np.int32)
    handle = require_kernel()
    ffi = handle.ffi
    handle.lib.p3_quantize(
        ffi.cast("double *", source.ctypes.data),
        source.size,
        ffi.cast("double *", steps.ctypes.data),
        ffi.cast("int32_t *", out.ctypes.data),
    )
    return out


def blur(plane: np.ndarray, weights: np.ndarray, amount: float = 0.0) -> np.ndarray:
    """Correlate a 2-D plane with symmetric ``weights`` along both axes,
    edges replicated; with a nonzero ``amount``, return the unsharp mask
    ``plane + amount * (plane - blurred)`` instead."""
    source = np.ascontiguousarray(plane, dtype=np.float64)
    if source.ndim != 2:
        raise ValueError(f"expected 2-D plane, got shape {source.shape}")
    if source.size == 0:
        return source.copy()
    taps = np.ascontiguousarray(weights, dtype=np.float64)
    radius = len(taps) // 2
    height, width = source.shape
    row = np.empty(width + 2 * radius)
    out = np.empty((height, width))
    handle = require_kernel()
    ffi = handle.ffi
    handle.lib.p3_blur(
        ffi.cast("double *", source.ctypes.data),
        height,
        width,
        ffi.cast("double *", taps.ctypes.data),
        radius,
        amount,
        ffi.new("double *[]", len(taps)),
        ffi.cast("double *", row.ctypes.data),
        ffi.cast("double *", out.ctypes.data),
    )
    return out
