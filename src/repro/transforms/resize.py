"""Separable image resampling with explicit weight matrices.

Resizing is implemented as ``out = W_rows @ plane @ W_cols.T`` where the
weight matrices are built from a reconstruction kernel (box, triangle/
bilinear, Catmull-Rom bicubic, Lanczos3).  When downscaling, the kernel
is stretched by the inverse scale for antialiasing, exactly as
ImageMagick and libswscale do — this is the family of "commonly-used
resizing techniques" the paper searches over when reverse engineering
PSP pipelines (Section 4.1, [28]).

Because the operation is literally a pair of matrix multiplies it is
manifestly linear, which the P3 Eq. 2 reconstruction relies on.

At equal size the box, bilinear and bicubic kernels sample at integer
offsets, where they are exactly 1 at the centre tap and 0 elsewhere, so
both weight matrices are exactly the identity and the multiplies are
skipped: the plane comes back as a float64 copy.  Lanczos keeps the
multiplies above 1x1, because its kernel at nonzero integers is ~3e-17
(``sin(pi)`` in floating point), not 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _box_kernel(x: np.ndarray) -> np.ndarray:
    return ((x >= -0.5) & (x < 0.5)).astype(np.float64)


def _triangle_kernel(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(x))


def _catmull_rom_kernel(x: np.ndarray) -> np.ndarray:
    """Bicubic with a = -0.5 (Catmull-Rom), the common 'bicubic'."""
    a = -0.5
    absx = np.abs(x)
    absx2 = absx * absx
    absx3 = absx2 * absx
    inner = (a + 2.0) * absx3 - (a + 3.0) * absx2 + 1.0
    outer = a * absx3 - 5.0 * a * absx2 + 8.0 * a * absx - 4.0 * a
    result = np.where(absx <= 1.0, inner, np.where(absx < 2.0, outer, 0.0))
    return result


def _lanczos3_kernel(x: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        result = np.sinc(x) * np.sinc(x / 3.0)
    return np.where(np.abs(x) < 3.0, np.nan_to_num(result), 0.0)


#: kernel name -> (kernel function, support radius)
KERNELS: dict[str, tuple[object, float]] = {
    "box": (_box_kernel, 0.5),
    "bilinear": (_triangle_kernel, 1.0),
    "bicubic": (_catmull_rom_kernel, 2.0),
    "lanczos": (_lanczos3_kernel, 3.0),
}


@lru_cache(maxsize=256)
def _weight_matrix(
    in_size: int, out_size: int, kernel_name: str
) -> np.ndarray:
    """Build the (out_size, in_size) resampling weight matrix."""
    if kernel_name not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel_name!r}; choose from {sorted(KERNELS)}"
        )
    kernel, support = KERNELS[kernel_name]
    scale = out_size / in_size
    # Stretch the kernel when minifying (antialiasing).
    filter_scale = max(1.0, 1.0 / scale)
    radius = support * filter_scale

    out_centers = (np.arange(out_size) + 0.5) / scale - 0.5
    weights = np.zeros((out_size, in_size), dtype=np.float64)
    for row, center in enumerate(out_centers):
        low = int(np.floor(center - radius))
        high = int(np.ceil(center + radius)) + 1
        taps = np.arange(low, high)
        values = kernel((taps - center) / filter_scale)
        # Clamp taps to the image (edge replication).
        clamped = np.clip(taps, 0, in_size - 1)
        for tap, value in zip(clamped, values):
            weights[row, tap] += value
    # Normalize rows so constant images stay constant.
    row_sums = weights.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0.0] = 1.0
    weights /= row_sums
    return weights


@lru_cache(maxsize=256)
def _is_identity(size: int, kernel_name: str) -> bool:
    """Whether the same-size weight matrix is exactly the identity."""
    return np.array_equal(_weight_matrix(size, size, kernel_name), np.eye(size))


def resize_plane(
    plane: np.ndarray, out_height: int, out_width: int, kernel: str = "bilinear"
) -> np.ndarray:
    """Resize a 2-D float plane with the named kernel.

    Always returns a new float64 array; a same-size resize whose weight
    matrices are exactly the identity returns a copy of the plane.
    """
    if plane.ndim != 2:
        raise ValueError(f"expected 2-D plane, got shape {plane.shape}")
    if out_height < 1 or out_width < 1:
        raise ValueError(f"invalid output size {out_height}x{out_width}")
    in_height, in_width = plane.shape
    if (
        (in_height, in_width) == (out_height, out_width)
        and _is_identity(in_height, kernel)
        and _is_identity(in_width, kernel)
    ):
        return plane.astype(np.float64)
    weights_rows = _weight_matrix(in_height, out_height, kernel)
    weights_cols = _weight_matrix(in_width, out_width, kernel)
    return weights_rows @ plane.astype(np.float64) @ weights_cols.T


def resize_rgb(
    rgb: np.ndarray, out_height: int, out_width: int, kernel: str = "bilinear"
) -> np.ndarray:
    """Resize an ``(h, w, 3)`` uint8 image, returning uint8."""
    planes = [
        resize_plane(rgb[..., c].astype(np.float64), out_height, out_width, kernel)
        for c in range(rgb.shape[2])
    ]
    out = np.stack(planes, axis=-1)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


def fit_within(
    in_height: int, in_width: int, max_height: int, max_width: int
) -> tuple[int, int]:
    """Aspect-preserving size fitting (how PSPs pick static resolutions)."""
    scale = min(max_height / in_height, max_width / in_width, 1.0)
    return max(1, round(in_height * scale)), max(1, round(in_width * scale))


@dataclass(frozen=True)
class Resize:
    """Resizing as a :class:`~repro.transforms.operators.LinearOperator`."""

    out_height: int
    out_width: int
    kernel: str = "bilinear"

    def __call__(self, plane: np.ndarray) -> np.ndarray:
        return resize_plane(plane, self.out_height, self.out_width, self.kernel)

    def output_shape(self, input_shape: tuple[int, int]) -> tuple[int, int]:
        return (self.out_height, self.out_width)
