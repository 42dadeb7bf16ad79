"""The reconstruction core: served public part + secret part -> pixels.

This is the *single* reconstruction path in the codebase.  The
serving engine (and so both forms of the trusted proxy,
:class:`~repro.api.session.P3Session` and
:class:`~repro.system.gateway.P3Gateway`), the batch pipeline's
:class:`~repro.api.pipeline.DecryptTask` and
:class:`~repro.core.decryptor.P3Decryptor` all call
:func:`reconstruct_served` — key-less previews included — so every
download, in-process, batched, gateway-served or library-level, is
byte-for-byte identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.linear import reconstruct_transformed_planes
from repro.core.reconstruction import recombine
from repro.core.serialization import SecretPart
from repro.jpeg.codec import decode_coefficients
from repro.jpeg.decoder import (
    coefficients_to_pixels,
    coefficients_to_planes,
    planes_to_pixels,
)
from repro.transforms.crop import Crop
from repro.transforms.operators import Compose, LinearOperator
from repro.transforms.resize import Resize, fit_within

if TYPE_CHECKING:  # pragma: no cover - annotation-only: importing the
    # system package here would close an import cycle back onto its
    # __init__, which imports this core from repro.serve.
    from repro.system.reverse import TransformEstimate


def check_crop(
    crop_box: tuple[int, int, int, int] | None,
    resolution: int | None,
    *,
    keyed: bool = True,
) -> Crop | None:
    """The request's crop as an operator, or ``None`` when uncropped.

    ``crop_box`` is ``(top, left, height, width)``: a negative origin or
    a non-positive size raises (:class:`~repro.transforms.crop.Crop`'s
    checks).  Eq. 2 rebuilds the PSP's resize-then-crop from the
    requested size, so a keyed crop must also name ``resolution``; the
    public part alone needs none.  A crop that exceeds the served plane
    can only be caught once that plane is known.
    """
    if crop_box is None:
        return None
    crop = Crop(*crop_box)
    if keyed and resolution is None:
        raise ValueError("cropped downloads must specify the resolution")
    return crop


def build_served_operator(
    public,
    secret_image,
    resolution: int | None,
    crop_box: tuple[int, int, int, int] | None,
    transform_estimate: TransformEstimate | None = None,
):
    """Build the Eq. 2 operator for the served public geometry.

    For cropped downloads the PSP's pipeline is resize-then-crop; the
    cropping geometry and the size "are both encoded in the HTTP get
    URL, so the proxy is able to determine those parameters"
    (Section 4.1) — here they arrive as the request arguments.
    """
    crop = check_crop(crop_box, resolution)
    if crop is None or resolution is None:  # check_crop: a crop has one
        resize_h, resize_w = public.height, public.width
    else:
        resize_h, resize_w = fit_within(
            secret_image.height,
            secret_image.width,
            resolution,
            resolution,
        )
    if transform_estimate is not None:
        base = transform_estimate.operator(resize_h, resize_w)
    else:
        base = Resize(resize_h, resize_w, kernel="bilinear")
    if crop is None:
        return base
    return Compose(operators=(base, crop))


def reconstruct_served(  # taint: sanitizer
    public_jpeg: bytes,
    secret_part: SecretPart | None,
    *,
    resolution: int | None = None,
    crop_box: tuple[int, int, int, int] | None = None,
    transform_estimate: TransformEstimate | None = None,
    operator: LinearOperator | None = None,
) -> np.ndarray:
    """Reconstruct a photo from its served public part + secret part.

    ``secret_part=None`` is the key-less viewer: the public part alone
    is decoded.  Otherwise exact coefficient-domain recombination
    (Eq. 1) when the PSP left the public part untouched, the
    pixel-domain Eq. 2 path when it transformed it.  Eq. 2 applies
    ``operator`` when the caller knows the PSP's transform, else the
    one :func:`build_served_operator` derives from the request.
    """
    public = decode_coefficients(public_jpeg)
    if secret_part is None:
        return coefficients_to_pixels(public)
    secret = secret_part.image
    if public.num_components != secret.num_components:
        raise ValueError(
            "served public part and secret part disagree on color "
            f"layout ({public.num_components} vs "
            f"{secret.num_components} components)"
        )
    if (
        crop_box is None
        and public.same_geometry(secret)
        and public.same_quantization(secret)
    ):
        combined = recombine(public, secret, secret_part.threshold)
        return coefficients_to_pixels(combined)
    if operator is None:
        operator = build_served_operator(
            public, secret, resolution, crop_box, transform_estimate
        )
    public_planes = coefficients_to_planes(public, level_shift=True)
    planes = reconstruct_transformed_planes(
        public_planes, secret, secret_part.threshold, operator
    )
    return planes_to_pixels(planes)
