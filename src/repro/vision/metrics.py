"""Objective quality and privacy metrics (paper Section 5.1).

PSNR is the paper's primary degradation metric; it and MSE live in
:mod:`repro.metrics` (numpy only, so the proxy can score without the
attack suite) and are re-exported here.  The edge matching-pixel ratio
quantifies the Figure 8a edge-detection attack.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import mse, psnr
from repro.vision.kernels import gaussian_blur, to_luma

__all__ = ["edge_matching_ratio", "mse", "psnr", "ssim"]


def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    sigma: float = 1.5,
    peak: float = 255.0,
) -> float:
    """Mean structural similarity (Wang et al. 2004), Gaussian windows."""
    x = to_luma(np.asarray(reference))
    y = to_luma(np.asarray(test))
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu_x = gaussian_blur(x, sigma)
    mu_y = gaussian_blur(y, sigma)
    sigma_x = gaussian_blur(x * x, sigma) - mu_x * mu_x
    sigma_y = gaussian_blur(y * y, sigma) - mu_y * mu_y
    sigma_xy = gaussian_blur(x * y, sigma) - mu_x * mu_y
    numerator = (2 * mu_x * mu_y + c1) * (2 * sigma_xy + c2)
    denominator = (mu_x**2 + mu_y**2 + c1) * (sigma_x + sigma_y + c2)
    return float(np.mean(numerator / denominator))


def edge_matching_ratio(
    reference_edges: np.ndarray, test_edges: np.ndarray
) -> float:
    """Fraction of reference edge pixels also marked in the test map.

    This is the Figure 8a metric: run edge detection on the original and
    on the public part, and measure how many of the original's edge
    pixels the attack recovered.  Returns 0 when the reference has no
    edges.
    """
    reference_edges = np.asarray(reference_edges, dtype=bool)
    test_edges = np.asarray(test_edges, dtype=bool)
    if reference_edges.shape != test_edges.shape:
        raise ValueError(
            f"shape mismatch: {reference_edges.shape} vs {test_edges.shape}"
        )
    total = int(reference_edges.sum())
    if total == 0:
        return 0.0
    matched = int((reference_edges & test_edges).sum())
    return matched / total
