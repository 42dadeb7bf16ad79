"""High-level JPEG codec facade.

Pairs the pixel-side pipeline (color conversion, subsampling, DCT,
quantization) with the entropy codec to provide the five operations the
rest of the repository uses:

* :func:`encode_rgb` / :func:`encode_gray` — pixels to JPEG bytes,
* :func:`decode` / :func:`decode_gray` — JPEG bytes to pixels,
* :func:`decode_coefficients` / :func:`encode_coefficients` — the
  coefficient-level access P3 splices into,
* :func:`image_info` — header inspection without full decode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg import markers
from repro.jpeg.color import rgb_to_ycbcr, subsample_plane
from repro.jpeg.dct import forward_dct
from repro.jpeg.decoder import coefficients_to_pixels, decode_to_coefficients
from repro.jpeg.encoder import encode_baseline, encode_progressive
from repro.jpeg.native.pixels import tile_blocks
from repro.jpeg.quantization import (
    chrominance_table,
    luminance_table,
    quantize,
)
from repro.jpeg.scans import default_sa_script
from repro.jpeg.structures import CoefficientImage, ComponentInfo

#: Subsampling mode -> (h, v) sampling factors of the luma component.
SUBSAMPLING_FACTORS: dict[str, tuple[int, int]] = {
    "4:4:4": (1, 1),
    "4:2:2": (2, 1),
    "4:2:0": (2, 2),
}


def _plane_to_component(
    plane: np.ndarray,
    identifier: int,
    h_sampling: int,
    v_sampling: int,
    quant_table: np.ndarray,
) -> ComponentInfo:
    """Level-shift, DCT and quantize one plane into a component.

    The level shift and the edge-padded 8x8 tiling are one kernel pass
    over the plane, which may be a strided channel view.
    """
    blocks = tile_blocks(plane)
    coefficients = quantize(forward_dct(blocks), quant_table)
    return ComponentInfo(
        identifier=identifier,
        h_sampling=h_sampling,
        v_sampling=v_sampling,
        quant_table=quant_table,
        coefficients=coefficients,
    )


def rgb_to_coefficients(
    rgb: np.ndarray,
    quality: int = 85,
    subsampling: str = "4:4:4",
) -> CoefficientImage:
    """Run the lossy half of the JPEG pipeline on an RGB image."""
    if subsampling not in SUBSAMPLING_FACTORS:
        raise ValueError(
            f"subsampling must be one of {sorted(SUBSAMPLING_FACTORS)}, "
            f"got {subsampling!r}"
        )
    luma_h, luma_v = SUBSAMPLING_FACTORS[subsampling]
    ycbcr = rgb_to_ycbcr(rgb)
    luma_table = luminance_table(quality)
    chroma_table = chrominance_table(quality)
    components = [
        _plane_to_component(ycbcr[..., 0], 1, luma_h, luma_v, luma_table)
    ]
    for channel, identifier in ((1, 2), (2, 3)):
        plane = subsample_plane(ycbcr[..., channel], luma_v, luma_h)
        components.append(
            _plane_to_component(plane, identifier, 1, 1, chroma_table)
        )
    return CoefficientImage(
        width=rgb.shape[1], height=rgb.shape[0], components=components
    )


def gray_to_coefficients(
    plane: np.ndarray, quality: int = 85
) -> CoefficientImage:
    """Run the lossy half of the JPEG pipeline on a grayscale plane."""
    if plane.ndim != 2:
        raise ValueError(f"expected 2-D plane, got shape {plane.shape}")
    component = _plane_to_component(plane, 1, 1, 1, luminance_table(quality))
    return CoefficientImage(
        width=plane.shape[1], height=plane.shape[0], components=[component]
    )


def encode_rgb(
    rgb: np.ndarray,
    quality: int = 85,
    subsampling: str = "4:4:4",
    progressive: bool = False,
    optimize_huffman: bool = True,
) -> bytes:
    """Encode an ``(h, w, 3)`` uint8 RGB image to JPEG bytes."""
    image = rgb_to_coefficients(rgb, quality=quality, subsampling=subsampling)
    return encode_coefficients(
        image, progressive=progressive, optimize_huffman=optimize_huffman
    )


def encode_gray(
    plane: np.ndarray,
    quality: int = 85,
    progressive: bool = False,
    optimize_huffman: bool = True,
) -> bytes:
    """Encode an ``(h, w)`` grayscale image to JPEG bytes."""
    image = gray_to_coefficients(plane, quality=quality)
    return encode_coefficients(
        image, progressive=progressive, optimize_huffman=optimize_huffman
    )


def encode_coefficients(
    image: CoefficientImage,
    progressive: bool | str | None = None,
    optimize_huffman: bool = True,
    restart_interval: int = 0,
) -> bytes:
    """Entropy-encode a coefficient image (lossless transcoding step).

    ``progressive`` may be ``None`` (keep the mode recorded on the
    image), ``False`` (baseline), ``True`` (progressive with spectral
    selection: a DC scan, then AC bands 1-5 and 6-63 at full
    precision, the layout the simulated Facebook stores) or ``"sa"``
    (progressive with successive approximation, libjpeg's default
    script).  Every mode keeps the image's APPn and COM segments.
    ``restart_interval`` applies to baseline output only.
    """
    if progressive is None:
        progressive = image.progressive
    if progressive == "sa":
        script = default_sa_script(len(image.components))
        return encode_progressive(image, script)
    if progressive:
        return encode_progressive(image)
    return encode_baseline(
        image,
        optimize_huffman=optimize_huffman,
        restart_interval=restart_interval,
    )


def decode_coefficients(data: bytes) -> CoefficientImage:
    """Decode JPEG bytes to quantized DCT coefficients (no pixel work)."""
    return decode_to_coefficients(data)


def decode(data: bytes) -> np.ndarray:
    """Decode JPEG bytes to pixels.

    Returns ``(h, w, 3)`` uint8 RGB for color files and ``(h, w)``
    float64 luma for grayscale files.
    """
    return coefficients_to_pixels(decode_to_coefficients(data))


def decode_gray(data: bytes) -> np.ndarray:
    """Decode JPEG bytes and return the luma plane as float64.

    Color images are converted by decoding fully and re-deriving luma;
    grayscale images decode directly.
    """
    image = decode_to_coefficients(data)
    pixels = coefficients_to_pixels(image)
    if pixels.ndim == 2:
        return pixels
    ycbcr = rgb_to_ycbcr(pixels)
    return ycbcr[..., 0]


@dataclass(frozen=True)
class ImageInfo:
    """Header-level facts about a JPEG byte stream."""

    width: int
    height: int
    num_components: int
    progressive: bool
    num_scans: int
    app_markers: tuple[str, ...]
    has_comment: bool


def image_info(data: bytes) -> ImageInfo:
    """Inspect a JPEG's headers without decoding entropy data.

    This models what the paper's recipient proxy can learn "by
    inspecting the JPEG header" (Section 4.1): dimensions, baseline vs
    progressive, sampling, and which markers survived the PSP.
    """
    import struct as _struct

    segments = markers.parse_segments(data)
    width = height = num_components = 0
    progressive = False
    num_scans = 0
    app_markers: list[str] = []
    has_comment = False
    for segment in segments:
        if segment.marker in (markers.SOF0, markers.SOF1, markers.SOF2):
            _, height, width, num_components = _struct.unpack(
                ">BHHB", segment.payload[:6]
            )
            progressive = segment.marker == markers.SOF2
        elif segment.marker == markers.SOS:
            num_scans += 1
        elif markers.APP0 <= segment.marker <= markers.APP15:
            app_markers.append(segment.name)
        elif segment.marker == markers.COM:
            has_comment = True
    return ImageInfo(
        width=width,
        height=height,
        num_components=num_components,
        progressive=progressive,
        num_scans=num_scans,
        app_markers=tuple(app_markers),
        has_comment=has_comment,
    )
