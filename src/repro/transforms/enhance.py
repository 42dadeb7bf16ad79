"""Enhancement operations found in real PSP resize pipelines.

The paper observes that server-side downsampling "is often accompanied
by a filtering step for antialiasing and may be followed by a sharpening
step, together with a color adjustment step" whose parameters are not
visible to the recipient (Section 4.1).  These are the operations the
reverse-engineering search in :mod:`repro.system.reverse` sweeps over.

Unsharp masking is linear (it is a convolution); gamma and contrast are
nonlinear and therefore degrade the Eq. 2 reconstruction, which is
exactly the effect the paper measures (34-40 dB instead of ~49 dB).

The blur is plain numpy, so the serving process never loads scipy.  It
reproduces ``scipy.ndimage.gaussian_filter(plane, sigma,
mode="nearest")`` bit for bit: the same weights (``truncate=4.0``),
axis 0 then axis 1, and each output summed in the order of the
symmetric branch of ndimage's ``NI_Correlate1D``.  numpy neither fuses
multiply-add nor reorders a ufunc's elementwise arithmetic, so the
roundings match too.  ``tests/transforms/test_enhance.py`` keeps
ndimage as the oracle.
"""

from __future__ import annotations

import numpy as np

#: Samples per slab (128 KiB of float64): each pass of the blur streams
#: one slab's taps while they are in cache, instead of ~2 * radius
#: whole-plane passes.
_SLAB_SAMPLES = 16384


def _gaussian_weights(sigma: float) -> np.ndarray:
    """ndimage's ``_gaussian_kernel1d(sigma, 0, radius)``, truncate 4.0."""
    radius = int(4.0 * float(sigma) + 0.5)
    sigma2 = sigma * sigma
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / sigma2 * x**2)
    return phi / phi.sum()


def _correlate(
    window: np.ndarray, weights: np.ndarray, axis: int, out: np.ndarray
) -> None:
    """``out`` = ``window`` correlated with symmetric ``weights``.

    ``window`` carries ``radius`` replicated samples beyond each end of
    ``out`` along ``axis``.  The sum runs as in ``NI_Correlate1D``:
    ``x[i] * w[r]``, then ``(x[i-j] + x[i+j]) * w[r-j]`` for ``j = r..1``.
    """
    radius = len(weights) // 2
    length = out.shape[axis]

    def tap(offset: int) -> np.ndarray:
        if axis == 0:
            return window[offset : offset + length]
        return window[:, offset : offset + length]

    np.multiply(tap(radius), weights[radius], out=out)
    term = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(tap(radius - j), tap(radius + j), out=term)
        term *= weights[radius - j]
        out += term


def gaussian_blur(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur with edge replication (matches resize edge handling).

    Both passes run one slab of rows at a time: a slab needs only its
    own rows of the vertical pass, plus ``radius`` rows of input on
    either side.  Edge samples repeat as ``np.pad(mode="edge")`` does,
    also on planes smaller than the radius.
    """
    source = np.asarray(plane, dtype=np.float64)
    if sigma <= 0 or source.size == 0:
        return source.copy()
    weights = _gaussian_weights(sigma)
    radius = len(weights) // 2
    height, width = source.shape
    rows = np.clip(np.arange(-radius, height + radius), 0, height - 1)
    columns = np.clip(np.arange(-radius, width + radius), 0, width - 1)
    slab_rows = max(1, _SLAB_SAMPLES // width)
    out = np.empty((height, width))
    vertical = np.empty((min(slab_rows, height), width))
    for top in range(0, height, slab_rows):
        bottom = min(top + slab_rows, height)
        slab = vertical[: bottom - top]
        _correlate(source[rows[top : bottom + 2 * radius]], weights, 0, slab)
        _correlate(slab[:, columns], weights, 1, out[top:bottom])
    return out


def unsharp_mask(
    plane: np.ndarray, radius: float = 1.0, amount: float = 0.5
) -> np.ndarray:
    """Classic unsharp mask: ``out = in + amount * (in - blur(in))``."""
    if amount == 0.0:
        return plane.astype(np.float64)
    blurred = gaussian_blur(plane, radius)
    return plane.astype(np.float64) + amount * (plane - blurred)


def sharpen(plane: np.ndarray, amount: float = 0.5) -> np.ndarray:
    """Unsharp mask with the default 1-pixel radius."""
    return unsharp_mask(plane, radius=1.0, amount=amount)


def adjust_gamma(plane: np.ndarray, gamma: float) -> np.ndarray:
    """Pixel-wise gamma on a [0, 255] plane (nonlinear!)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    normalized = np.clip(plane.astype(np.float64), 0.0, 255.0) / 255.0
    return np.power(normalized, gamma) * 255.0


def adjust_contrast(plane: np.ndarray, factor: float) -> np.ndarray:
    """Scale contrast around the mid-grey point 128 (nonlinear via clip)."""
    return np.clip(
        128.0 + factor * (plane.astype(np.float64) - 128.0), 0.0, 255.0
    )
