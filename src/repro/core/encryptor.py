"""Sender-side P3 operation: pixels or JPEG in, two parts out.

Mirrors Figure 2 of the paper: the image passes through the JPEG
pipeline up to quantization, is split at the threshold, and the two
halves are entropy-coded separately; the secret half is then sealed in
an AES envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import P3Config
from repro.core.serialization import serialize_secret
from repro.core.splitting import SplitResult, split_image
from repro.crypto.envelope import seal_envelope
from repro.jpeg.codec import (
    decode_coefficients,
    encode_coefficients,
    gray_to_coefficients,
    rgb_to_coefficients,
)
from repro.jpeg.structures import CoefficientImage


@dataclass
class EncryptedPhoto:
    """The two artifacts the sender uploads.

    ``public_jpeg`` goes to the PSP in the clear; ``secret_envelope`` is
    the AES-sealed secret container destined for the storage provider.
    """

    public_jpeg: bytes
    secret_envelope: bytes = field(repr=False)  # taint: source(secret)

    @property
    def public_size(self) -> int:
        return len(self.public_jpeg)

    @property
    def secret_size(self) -> int:
        return len(self.secret_envelope)

    @property
    def total_size(self) -> int:
        return self.public_size + self.secret_size


class P3Encryptor:
    """Applies P3 sender-side encryption with a shared album key."""

    def __init__(self, key: bytes, config: P3Config | None = None) -> None:
        self._key = key
        self.config = config or P3Config()

    # -- splitting only (no crypto), used by the evaluation harness --

    def split_pixels(self, pixels: np.ndarray) -> SplitResult:
        """Run the JPEG pipeline and split, without encrypting.

        Accepts ``(h, w)`` grayscale or ``(h, w, 3)`` RGB arrays.
        """
        coefficients = self._pixels_to_coefficients(pixels)
        return split_image(coefficients, self.config.threshold)

    def split_jpeg(self, jpeg_bytes: bytes) -> SplitResult:
        """Split an existing JPEG file losslessly (transcode path)."""
        coefficients = decode_coefficients(jpeg_bytes)
        return split_image(coefficients, self.config.threshold)

    # -- full sender-side operation --

    def encrypt_pixels(self, pixels: np.ndarray) -> EncryptedPhoto:
        """Encode + split + encrypt an image given as pixels."""
        return self._finish(self.split_pixels(pixels))

    def encrypt_jpeg(self, jpeg_bytes: bytes) -> EncryptedPhoto:
        """Split + encrypt an existing JPEG upload (the proxy path)."""
        return self._finish(self.split_jpeg(jpeg_bytes))

    def public_jpeg_bytes(self, split: SplitResult) -> bytes:
        """Entropy-code the public half as a standalone JPEG."""
        return encode_coefficients(
            split.public,
            progressive=False,
            optimize_huffman=self.config.optimize_huffman,
        )

    def _pixels_to_coefficients(
        self, pixels: np.ndarray
    ) -> CoefficientImage:
        if pixels.ndim == 2:
            return gray_to_coefficients(pixels, quality=self.config.quality)
        if pixels.ndim == 3 and pixels.shape[2] == 3:
            return rgb_to_coefficients(
                pixels,
                quality=self.config.quality,
                subsampling=self.config.subsampling,
            )
        raise ValueError(
            f"expected (h, w) or (h, w, 3) pixels, got shape {pixels.shape}"
        )

    def seal_secret(self, split: SplitResult) -> bytes:  # taint: sanitizer
        """Serialize the secret half and seal it in the AES envelope."""
        container = serialize_secret(split.secret, split.threshold)
        return seal_envelope(self._key, container)

    def _finish(self, split: SplitResult) -> EncryptedPhoto:
        return EncryptedPhoto(
            public_jpeg=self.public_jpeg_bytes(split),
            secret_envelope=self.seal_secret(split),
        )
