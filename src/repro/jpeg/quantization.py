"""Quantization tables and quality scaling (ITU-T T.81 Annex K, IJG).

Quantization is the only lossy step of the JPEG pipeline.  P3 splits the
image *after* this step, so both the public and the secret parts carry the
same tables and the split is an exact integer identity.
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.native import pixels

#: Annex K Table K.1 — luminance quantization table (raster order).
STANDARD_LUMINANCE_TABLE: np.ndarray = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int32,
)

#: Annex K Table K.2 — chrominance quantization table (raster order).
STANDARD_CHROMINANCE_TABLE: np.ndarray = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int32,
)


def scale_table(base_table: np.ndarray, quality: int) -> np.ndarray:
    """Scale a base quantization table using the IJG quality convention.

    ``quality`` is 1 (worst) to 100 (best); 50 returns the base table.
    Matches jpeg_set_quality() in libjpeg: quality >= 50 maps to a scale
    of ``200 - 2q`` percent, below 50 to ``5000 / q`` percent.
    """
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000 // quality
    else:
        scale = 200 - 2 * quality
    table = (base_table.astype(np.int64) * scale + 50) // 100
    return np.clip(table, 1, 255).astype(np.int32)


def luminance_table(quality: int) -> np.ndarray:
    """Annex-K luminance table scaled to the given IJG quality."""
    return scale_table(STANDARD_LUMINANCE_TABLE, quality)


def chrominance_table(quality: int) -> np.ndarray:
    """Annex-K chrominance table scaled to the given IJG quality."""
    return scale_table(STANDARD_CHROMINANCE_TABLE, quality)


def quantize(coefficients: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantize float DCT coefficients with round-half-away-from-zero.

    ``coefficients`` has shape ``(..., 8, 8)``; returns int32 of the same
    shape.  Rounding away from zero matches the reference JPEG behaviour
    and keeps quantization sign-symmetric, which the P3 splitting step
    relies on.  One kernel pass computes each ``s = c / t`` in float64
    and stores ``sign(s) * floor(|s| + 0.5)``, bit for bit what the
    numpy form in ``tests/jpeg/oracles.py`` computes.
    """
    return pixels.quantize(coefficients, table)


def dequantize(quantized: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize` (up to the quantization loss)."""
    return quantized.astype(np.float64) * table.astype(np.float64)
