"""Pixel-domain reconstruction under server-side transforms (paper Eq. 2).

When the PSP serves ``A . Sp . ap`` (a transformed public part), the
recipient reconstructs

    A . y = A(public_pixels) + A(secret_diff) + A(correction_diff)

because the DCT and ``A`` are both linear.  ``secret_diff`` and
``correction_diff`` are the *unshifted* pixel renderings of the secret
image and of the sign-correction image — both derivable from the secret
part alone, so no extra information is needed from the PSP.  The two
images share their quantization tables, so their sum is formed on the
integer coefficients and rendered with one inverse DCT; dequantizing
the sum is exact, and the result matches two separate renderings up to
float rounding.

The only error sources are the ones the paper's footnote 8 lists:
JPEG re-quantization of the served public part and integer rounding of
the final pixels.
"""

from __future__ import annotations

import numpy as np

from repro.core.reconstruction import correction_image
from repro.jpeg.decoder import coefficients_to_planes
from repro.jpeg.structures import CoefficientImage
from repro.transforms.operators import LinearOperator


def secret_difference_planes(
    secret: CoefficientImage, threshold: int | list[np.ndarray]
) -> list[np.ndarray]:
    """Render ``secret + correction`` as zero-centred difference planes.

    Returns one full-resolution float plane per component.  Adding these
    (after the PSP's transform) to the served public pixels completes
    Eq. 2.  The secret and correction coefficients are summed as
    integers per component and rendered in one pass, so each component
    costs one inverse DCT rather than two.
    """
    difference = correction_image(secret, threshold)
    for component, secret_component in zip(
        difference.components, secret.components
    ):
        component.coefficients += secret_component.coefficients
    return coefficients_to_planes(difference, level_shift=False)


def reconstruct_transformed_planes(
    public_planes: list[np.ndarray],
    secret: CoefficientImage,
    threshold: int | list[np.ndarray],
    operator: LinearOperator,
) -> list[np.ndarray]:
    """Apply Eq. 2: add the transformed secret difference to the public.

    ``public_planes`` are the pixel planes decoded from the PSP-served
    (already transformed) public JPEG.  ``operator`` is the transform the
    PSP applied, or the recipient's best estimate of it.
    """
    difference_planes = secret_difference_planes(secret, threshold)
    reconstructed = []
    for public_plane, difference in zip(public_planes, difference_planes):
        transformed = operator(difference)
        if transformed.shape != public_plane.shape:
            raise ValueError(
                f"operator output {transformed.shape} does not match the "
                f"served public plane {public_plane.shape}"
            )
        reconstructed.append(public_plane + transformed)
    return reconstructed

