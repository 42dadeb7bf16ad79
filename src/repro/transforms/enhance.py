"""Enhancement operations found in real PSP resize pipelines.

The paper observes that server-side downsampling "is often accompanied
by a filtering step for antialiasing and may be followed by a sharpening
step, together with a color adjustment step" whose parameters are not
visible to the recipient (Section 4.1).  These are the operations the
reverse-engineering search in :mod:`repro.system.reverse` sweeps over.

Unsharp masking is linear (it is a convolution); gamma and contrast are
nonlinear and therefore degrade the Eq. 2 reconstruction, which is
exactly the effect the paper measures (34-40 dB instead of ~49 dB).

The blur and the unsharp mask are one pass of the C kernel each
(:func:`repro.jpeg.native.pixels.blur`), so the serving process never
loads scipy.  The blur reproduces ``scipy.ndimage.gaussian_filter(plane,
sigma, mode="nearest")`` bit for bit: the same weights
(``truncate=4.0``, computed here with numpy), axis 0 then axis 1, and
each output summed in the order of the symmetric branch of ndimage's
``NI_Correlate1D``, with edges replicated also on planes smaller than
the radius.  The unsharp mask's ``in + amount * (in - blur)`` is
computed in the blur's last pass, in that order.  C99 contracts no
multiply-add, so the roundings match too.
``tests/transforms/test_enhance.py`` keeps ndimage as the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.native import pixels


def _gaussian_weights(sigma: float) -> np.ndarray:
    """ndimage's ``_gaussian_kernel1d(sigma, 0, radius)``, truncate 4.0;
    a single unit tap for ``sigma <= 0``, which leaves a plane as it is."""
    if sigma <= 0:
        return np.ones(1)
    radius = int(4.0 * float(sigma) + 0.5)
    sigma2 = sigma * sigma
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / sigma2 * x**2)
    return phi / phi.sum()


def gaussian_blur(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur with edge replication (matches resize edge handling).

    Returns a new float64 plane; ``sigma <= 0`` returns a copy.
    """
    return pixels.blur(plane, _gaussian_weights(sigma))


def unsharp_mask(
    plane: np.ndarray, radius: float = 1.0, amount: float = 0.5
) -> np.ndarray:
    """Classic unsharp mask: ``out = in + amount * (in - blur(in))``."""
    if amount == 0.0:
        return plane.astype(np.float64)
    return pixels.blur(plane, _gaussian_weights(radius), amount)


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
