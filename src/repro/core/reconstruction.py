"""Recipient-side recombination in the coefficient domain (paper Eq. 1).

The split relation per coefficient is:

    y = Sp*ap + Ss*as + (Ss - Ss^2) * w          (Eq. 1)

which reduces to three cases (Section 3.3):

* ``xs == 0`` or ``xs > 0`` : ``y = xp + xs``  (no correction),
* ``xs < 0``                : ``y = xp + xs - 2T = xs - T``.

The correction applies only at above-threshold AC positions; the DC
coefficient is handled by plain addition (public DC is zero).  Because
both halves carry the same quantization tables, recombination of an
unprocessed public part is exact integer arithmetic — lossless by
construction.

``T`` is one threshold or per-block maps, as in the split.  The
correction term has one function, :func:`correction_block_array`:
recombination adds it, and Eq. 2 renders it via :func:`correction_image`.
"""

from __future__ import annotations

import numpy as np

from repro.core.splitting import block_thresholds, component_thresholds
from repro.jpeg.structures import CoefficientImage


def correction_block_array(
    secret: np.ndarray, threshold: int | np.ndarray
) -> np.ndarray:
    """Eq. 1's correction term for one ``(by, bx, 8, 8)`` secret array.

    ``(Ss - Ss^2) * w`` is ``-2T`` at every AC position whose secret
    residual is negative and zero elsewhere, in ``secret``'s dtype: only
    AC positions can carry a negative residual from clipping, while DC
    rides along in the secret part and is never corrected.
    """
    grid = block_thresholds(threshold, secret.shape[:2], secret.dtype)
    negative_residual = secret < 0
    negative_residual[..., 0, 0] = False
    return negative_residual * (-2 * grid)


def recombine_block_arrays(
    public: np.ndarray, secret: np.ndarray, threshold: int | np.ndarray
) -> np.ndarray:
    """Invert :func:`repro.core.splitting.split_block_array` exactly:
    Eq. 1 summed in int64, returned as int32."""
    if public.shape != secret.shape:
        raise ValueError(
            f"shape mismatch: public {public.shape}, secret {secret.shape}"
        )
    secret = secret.astype(np.int64)
    combined = public + secret + correction_block_array(secret, threshold)
    return combined.astype(np.int32)


def recombine(
    public: CoefficientImage,
    secret: CoefficientImage,
    threshold: int | list[np.ndarray],
) -> CoefficientImage:
    """Recombine public and secret halves into the original image.

    Requires identical geometry (the "PSP stored the public part
    unchanged" case); use :mod:`repro.core.linear` when the public part
    was transformed server-side.  ``threshold`` is the split's: one T,
    or one per-block map per component.
    """
    if not public.same_geometry(secret):
        raise ValueError(
            "public and secret parts have different geometry; use the "
            "pixel-domain reconstruction for transformed public parts"
        )
    if not public.same_quantization(secret):
        raise ValueError("public/secret quantization tables differ")
    thresholds = component_thresholds(threshold, secret)
    components = [
        p.with_coefficients(
            recombine_block_arrays(p.coefficients, s.coefficients, t)
        )
        for p, s, t in zip(
            public.components, secret.components, thresholds, strict=True
        )
    ]
    return public.with_components(components)


def correction_image(
    secret: CoefficientImage, threshold: int | list[np.ndarray]
) -> CoefficientImage:
    """Build the Eq. 1 correction term as a coefficient image.

    Each component's coefficients are :func:`correction_block_array`
    of its secret coefficients.  The paper stresses the correction
    "does not depend on the public image and can be completely derived
    from the secret image" — that property is what makes the Eq. 2
    pixel-domain path possible.
    """
    thresholds = component_thresholds(threshold, secret)
    components = [
        c.with_coefficients(correction_block_array(c.coefficients, t))
        for c, t in zip(secret.components, thresholds, strict=True)
    ]
    return secret.with_components(components)
