"""Energy-adaptive per-block thresholds — a paper-motivated extension.

Section 5.2.2 notes a limitation of P3: "our encryption algorithm uses
a single threshold across entire image blocks and does not consider
block energy distributions. As a result, even if we get about 40dB in
the secret part, we can identify non-trivial block effects."

This module implements the natural fix the observation suggests: scale
the threshold per block with the block's AC energy, so high-energy
blocks (edges, texture) get a proportionally higher clip level and
low-energy blocks keep a tight one.  The per-block threshold map is
carried alongside the secret part (container version "P3S2"); the
public part remains a standard JPEG.

Only what is adaptive lives here: the threshold maps and the P3S2
container.  Eq. 1 itself — the split, the recombination and the
correction term — lives in the core (:mod:`repro.core.splitting`,
:mod:`repro.core.reconstruction`), whose functions take the maps in
place of one T: ``recombine(public, split.secret, split.threshold_maps)``
inverts :func:`split_image_adaptive` exactly.

``benchmarks/bench_ablation_adaptive.py`` compares fixed and adaptive
splitting at matched secret-part size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.serialization import SecretFormatError
from repro.core.splitting import split_image
from repro.jpeg.codec import decode_coefficients, encode_coefficients
from repro.jpeg.structures import CoefficientImage

ADAPTIVE_MAGIC = b"P3S2"

#: Per-block thresholds are stored as uint8; clamp accordingly.
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


# -- serialization (container version 2) -------------------------------------


def serialize_adaptive_secret(split: AdaptiveSplitResult) -> bytes:
    """Pack secret JPEG + per-component threshold maps."""
    jpeg_bytes = encode_coefficients(split.secret, progressive=False)
    out = bytearray(ADAPTIVE_MAGIC)
    out.extend(
        struct.pack(
            ">HHHB",
            split.base_threshold,
            split.secret.width,
            split.secret.height,
            len(split.threshold_maps),
        )
    )
    for thresholds in split.threshold_maps:
        by, bx = thresholds.shape
        out.extend(struct.pack(">HH", by, bx))
        out.extend(np.clip(thresholds, 0, 255).astype(np.uint8).tobytes())
    out.extend(struct.pack(">I", len(jpeg_bytes)))
    out.extend(jpeg_bytes)
    return bytes(out)


def deserialize_adaptive_secret(data: bytes) -> AdaptiveSplitResult:
    """Inverse of :func:`serialize_adaptive_secret`.

    The returned result's ``public`` field is a placeholder (the
    recipient supplies the real public part); only ``secret`` and
    ``threshold_maps`` are meaningful.
    """
    if data[:4] != ADAPTIVE_MAGIC:
        raise SecretFormatError("bad adaptive container magic")
    base_threshold, width, height, num_components = struct.unpack(
        ">HHHB", data[4:11]
    )
    position = 11
    maps = []
    for _ in range(num_components):
        by, bx = struct.unpack(">HH", data[position : position + 4])
        position += 4
        raw = np.frombuffer(
            data[position : position + by * bx], dtype=np.uint8
        )
        if raw.size != by * bx:
            raise SecretFormatError("truncated threshold map")
        maps.append(raw.reshape(by, bx).astype(np.int32))
        position += by * bx
    (jpeg_length,) = struct.unpack(">I", data[position : position + 4])
    position += 4
    jpeg_bytes = data[position : position + jpeg_length]
    if len(jpeg_bytes) != jpeg_length:
        raise SecretFormatError("truncated adaptive secret payload")
    secret = decode_coefficients(jpeg_bytes)
    return AdaptiveSplitResult(
        public=secret,  # placeholder; see docstring
        secret=secret,
        threshold_maps=maps,
        base_threshold=base_threshold,
    )
