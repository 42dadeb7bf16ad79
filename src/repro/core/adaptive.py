"""Energy-adaptive per-block thresholds — a paper-motivated extension.

Section 5.2.2 notes a limitation of P3: "our encryption algorithm uses
a single threshold across entire image blocks and does not consider
block energy distributions. As a result, even if we get about 40dB in
the secret part, we can identify non-trivial block effects."

This module implements the natural fix the observation suggests: scale
the threshold per block with the block's AC energy, so high-energy
blocks (edges, texture) get a proportionally higher clip level and
low-energy blocks keep a tight one.  The public part remains a
standard JPEG.

Only what is adaptive lives here: the threshold maps.  Eq. 1 itself —
the split, the recombination and the correction term — lives in the
core (:mod:`repro.core.splitting`, :mod:`repro.core.reconstruction`),
whose functions take the maps in place of one T:
``recombine(public, split.secret, split.threshold_maps)`` inverts
:func:`split_image_adaptive` exactly.

``benchmarks/bench_ablation_adaptive.py`` compares fixed and adaptive
splitting at matched secret-part size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.splitting import split_image
from repro.jpeg.structures import CoefficientImage

#: Largest per-block threshold: a block's T stays within 8 bits.
_MAX_THRESHOLD = 255


def block_energy_thresholds(
    coefficients: np.ndarray,
    base_threshold: int,
    floor: int = 1,
) -> np.ndarray:
    """Per-block thresholds scaled by relative AC energy.

    ``coefficients`` is ``(by, bx, 8, 8)`` quantized; returns an int32
    ``(by, bx)`` threshold map with mean close to ``base_threshold``.
    The square root keeps the dynamic range moderate (energy spans
    orders of magnitude; thresholds should not).
    """
    ac = coefficients.astype(np.float64).copy()
    ac[..., 0, 0] = 0.0
    energy = np.sqrt((ac**2).sum(axis=(2, 3)))
    mean_energy = energy.mean()
    if mean_energy <= 0:
        return np.full(energy.shape, base_threshold, dtype=np.int32)
    scale = np.sqrt(energy / mean_energy)
    thresholds = np.round(base_threshold * scale).astype(np.int32)
    return np.clip(thresholds, floor, _MAX_THRESHOLD)


@dataclass
class AdaptiveSplitResult:
    """Adaptive split: two coefficient images plus the threshold maps."""

    public: CoefficientImage
    secret: CoefficientImage
    threshold_maps: list[np.ndarray]  # one (by, bx) map per component
    base_threshold: int


def split_image_adaptive(
    image: CoefficientImage, base_threshold: int
) -> AdaptiveSplitResult:
    """Split every component with energy-adaptive per-block thresholds."""
    if base_threshold < 1:
        raise ValueError(f"base_threshold must be >= 1, got {base_threshold}")
    maps = [
        block_energy_thresholds(component.coefficients, base_threshold)
        for component in image.components
    ]
    split = split_image(image, maps)
    return AdaptiveSplitResult(
        public=split.public,
        secret=split.secret,
        threshold_maps=maps,
        base_threshold=base_threshold,
    )

