"""Color-space conversion and chroma subsampling (JFIF / BT.601).

The first stage of the JPEG pipeline (paper Section 2.1): RGB is mapped to
YCbCr and the two chrominance channels are optionally represented at lower
resolution than luminance.
"""

from __future__ import annotations

import numpy as np

# BT.601 full-range coefficients as used by JFIF.
_KR = 0.299
_KG = 0.587
_KB = 0.114


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an ``(h, w, 3)`` uint8/float RGB image to float YCbCr.

    Output channels are Y in [0, 255] and Cb/Cr in [0, 255] with a 128
    offset, per JFIF.  The output buffer doubles as the working space:
    each channel is overwritten once its input is no longer needed, and
    every element sees the same float64 operations in the same order as
    the textbook formulas.
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {rgb.shape}")
    out = np.empty(rgb.shape, dtype=np.float64)
    np.copyto(out, rgb, casting="unsafe")
    r, g, b = out[..., 0], out[..., 1], out[..., 2]
    # y = KR r + KG g + KB b; g is needed only here, so it is scaled in place.
    y = np.multiply(r, _KR)
    g *= _KG
    y += g
    np.multiply(b, _KB, out=g)
    y += g
    # Cb lands in the free green channel, then Cr in the spent blue one.
    cb, cr = g, b
    np.subtract(b, y, out=cb)
    cb /= 2.0 * (1.0 - _KB)
    cb += 128.0
    np.subtract(r, y, out=cr)
    cr /= 2.0 * (1.0 - _KR)
    cr += 128.0
    r[...] = y
    return out


def ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """Convert float YCbCr back to uint8 RGB, clipping to [0, 255].

    Works in one float64 ``(h, w, 3)`` buffer (plus one plane of
    scratch) with round and clip done in place; each element sees the
    same float64 operations in the same order as the textbook formulas.
    """
    if ycbcr.ndim != 3 or ycbcr.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {ycbcr.shape}")
    out = np.empty(ycbcr.shape, dtype=np.float64)
    r, g, b = out[..., 0], out[..., 1], out[..., 2]
    # The green channel holds Y until R and B are done.
    y = g
    np.copyto(y, ycbcr[..., 0], casting="unsafe")
    np.subtract(ycbcr[..., 2], 128.0, out=r, dtype=np.float64)
    r *= 2.0 * (1.0 - _KR)
    r += y
    np.subtract(ycbcr[..., 1], 128.0, out=b, dtype=np.float64)
    b *= 2.0 * (1.0 - _KB)
    b += y
    # g = (y - KR r - KB b) / KG
    scratch = np.multiply(r, _KR)
    g -= scratch
    np.multiply(b, _KB, out=scratch)
    g -= scratch
    g /= _KG
    np.round(out, out=out)
    np.clip(out, 0, 255, out=out)
    return out.astype(np.uint8)


def subsample_plane(plane: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Downsample a single plane by integer factors using box averaging.

    This is the antialiased averaging used by libjpeg's h2v2 downsampler.
    Odd-sized planes are edge-padded to a multiple of the factor first.
    """
    if factor_y == 1 and factor_x == 1:
        return plane.astype(np.float64)
    height, width = plane.shape
    pad_y = (-height) % factor_y
    pad_x = (-width) % factor_x
    if pad_y or pad_x:
        plane = np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")
    height, width = plane.shape
    view = plane.reshape(
        height // factor_y, factor_y, width // factor_x, factor_x
    )
    return view.astype(np.float64).mean(axis=(1, 3))


def upsample_plane(
    plane: np.ndarray, factor_y: int, factor_x: int, out_shape: tuple[int, int]
) -> np.ndarray:
    """Upsample a plane by pixel replication and crop to ``out_shape``.

    Replication matches the "fancy upsampling disabled" path of libjpeg;
    it is exact for the box downsampler on constant regions and keeps the
    codec's round trip simple to reason about.
    """
    if factor_y == 1 and factor_x == 1:
        up = plane
    else:
        up = np.repeat(np.repeat(plane, factor_y, axis=0), factor_x, axis=1)
    return up[: out_shape[0], : out_shape[1]]
