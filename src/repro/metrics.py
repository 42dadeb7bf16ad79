"""Pixel-error metrics: MSE and PSNR, on numpy alone.

PSNR is the paper's primary degradation metric ("the public images ...
around 10-15 dB ... quality is so degraded that these images are
practically useless"; 35-40 dB is "perceptually lossless").  It lives
outside :mod:`repro.vision` so that the proxy's reverse-engineering
search can score candidates without loading the attack suite;
:mod:`repro.vision.metrics` re-exports both names.
"""

from __future__ import annotations

import numpy as np


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two images (any channel layout)."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(
            f"shape mismatch: {reference.shape} vs {test.shape}"
        )
    return float(np.mean((reference - test) ** 2))


def psnr(reference: np.ndarray, test: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB; ``inf`` for identical images."""
    error = mse(reference, test)
    if error == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / error))
