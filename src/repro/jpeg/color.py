"""Color-space conversion and chroma subsampling (JFIF / BT.601).

The first stage of the JPEG pipeline (paper Section 2.1): RGB is mapped to
YCbCr and the two chrominance channels are optionally represented at lower
resolution than luminance.  Both conversions are one pass of the C kernel
(:mod:`repro.jpeg.native.pixels`); ``tests/jpeg/oracles.py`` keeps the
textbook formulas they match bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.jpeg.native import pixels

# BT.601 full-range coefficients as used by JFIF.
_KR = 0.299
_KG = 0.587
_KB = 0.114
_WEIGHTS = (_KR, _KG, _KB)


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an ``(h, w, 3)`` uint8/float RGB image to float YCbCr.

    Output channels are Y in [0, 255] and Cb/Cr in [0, 255] with a 128
    offset, per JFIF.  One kernel pass reads the samples (uint8 as they
    are, other dtypes as float64) and writes each pixel's float64
    ``y = (KR r + KG g) + KB b``, ``cb = (b - y) / (2 (1 - KB)) + 128``
    and ``cr = (r - y) / (2 (1 - KR)) + 128``: the textbook formulas'
    operations in their order, so the result is theirs bit for bit.
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got {rgb.shape}")
    return pixels.rgb_to_ycbcr(rgb, _WEIGHTS)


def ycbcr_to_rgb(ycbcr: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Convert float YCbCr back to uint8 RGB, clipping to [0, 255].

    ``ycbcr`` is an ``(h, w, 3)`` image or the sequence of its three
    ``(h, w)`` planes, which go in as they are (strided views included),
    with no stacking copy.  One kernel pass computes each pixel's
    ``r = (cr - 128) 2 (1 - KR) + y``, ``b = (cb - 128) 2 (1 - KB) + y``
    and ``g = ((y - KR r) - KB b) / KG`` in float64, rounds half to even
    and clips, as the textbook formulas do.
    """
    if isinstance(ycbcr, np.ndarray):
        if ycbcr.ndim != 3 or ycbcr.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) image, got {ycbcr.shape}")
        planes: Sequence[np.ndarray] = [ycbcr[..., c] for c in range(3)]
    else:
        planes = ycbcr
    return pixels.planes_to_rgb8(planes, _WEIGHTS)


def subsample_plane(plane: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Downsample a single plane by integer factors using box averaging.

    This is the antialiased averaging used by libjpeg's h2v2 downsampler.
    Odd-sized planes are edge-padded to a multiple of the factor first.
    At factors of one a float64 plane comes back as it is, a strided
    channel view included, not copied.
    """
    if factor_y == 1 and factor_x == 1:
        return np.asarray(plane, dtype=np.float64)
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
