"""Reference implementations of Eq. 1 the core is checked against.

These are the separate forms production replaced with one path: the
fixed-threshold split and recombination, the correction image built
component by component, and the per-block (threshold map) split and
recombination of the energy-adaptive extension.  They live here, not
in ``src/``, so there is one production Eq. 1 and one oracle to diff
it against (``tests/core/test_eq1_oracles.py``).
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.structures import CoefficientImage, ComponentInfo


def split_block_array(
    coefficients: np.ndarray, threshold: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split a ``(by, bx, 8, 8)`` quantized coefficient array.

    Returns ``(public, secret)`` int32 arrays of the same shape.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    coefficients = coefficients.astype(np.int32)
    magnitude = np.abs(coefficients)
    above = magnitude > threshold

    public = np.where(
        above,
        np.int32(threshold),  # clipped, sign deliberately lost
        coefficients,
    ).astype(np.int32)
    secret = np.where(
        above,
        np.sign(coefficients) * (magnitude - threshold),
        np.int32(0),
    ).astype(np.int32)

    # DC extraction: secret takes the whole DC, public gets zero.
    public[..., 0, 0] = 0
    secret[..., 0, 0] = coefficients[..., 0, 0]
    return public, secret


def recombine_block_arrays(
    public: np.ndarray, secret: np.ndarray, threshold: int
) -> np.ndarray:
    """Invert :func:`split_block_array` exactly."""
    if public.shape != secret.shape:
        raise ValueError(
            f"shape mismatch: public {public.shape}, secret {secret.shape}"
        )
    public = public.astype(np.int64)
    secret = secret.astype(np.int64)
    combined = public + secret
    # Sign correction (Eq. 1's third term): only AC positions can carry a
    # negative secret residual from clipping; DC rides along in `secret`
    # and is excluded from the correction mask.
    negative_residual = secret < 0
    negative_residual[..., 0, 0] = False
    combined[negative_residual] -= 2 * threshold
    return combined.astype(np.int32)


def correction_image(
    secret: CoefficientImage, threshold: int
) -> CoefficientImage:
    """Build the Eq. 1 correction term as a coefficient image.

    The correction ``(Ss - Ss^2) * w`` is ``-2T`` at every AC position
    whose secret residual is negative and zero elsewhere.
    """
    components = []
    for component in secret.components:
        coefficients = np.zeros_like(component.coefficients)
        negative_residual = component.coefficients < 0
        negative_residual[..., 0, 0] = False
        coefficients[negative_residual] = -2 * threshold
        components.append(
            ComponentInfo(
                identifier=component.identifier,
                h_sampling=component.h_sampling,
                v_sampling=component.v_sampling,
                quant_table=component.quant_table.copy(),
                coefficients=coefficients,
            )
        )
    return CoefficientImage(
        width=secret.width,
        height=secret.height,
        components=components,
        progressive=False,
    )


def split_block_array_mapped(
    coefficients: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold split with a per-block threshold map."""
    if thresholds.shape != coefficients.shape[:2]:
        raise ValueError(
            f"threshold map {thresholds.shape} does not match block grid "
            f"{coefficients.shape[:2]}"
        )
    coefficients = coefficients.astype(np.int32)
    threshold_grid = thresholds.astype(np.int32)[:, :, None, None]
    magnitude = np.abs(coefficients)
    above = magnitude > threshold_grid
    public = np.where(above, threshold_grid, coefficients).astype(np.int32)
    secret = np.where(
        above,
        np.sign(coefficients) * (magnitude - threshold_grid),
        np.int32(0),
    ).astype(np.int32)
    public[..., 0, 0] = 0
    secret[..., 0, 0] = coefficients[..., 0, 0]
    return public, secret


def recombine_block_arrays_mapped(
    public: np.ndarray, secret: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Exact inverse of :func:`split_block_array_mapped`."""
    public = public.astype(np.int64)
    secret = secret.astype(np.int64)
    threshold_grid = thresholds.astype(np.int64)[:, :, None, None]
    combined = public + secret
    negative_residual = secret < 0
    negative_residual[..., 0, 0] = False
    correction = np.where(negative_residual, 2 * threshold_grid, 0)
    return (combined - correction).astype(np.int32)
