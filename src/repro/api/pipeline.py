"""Picklable work units for the batch pipeline.

The CPU-heavy halves of the P3 flows — JPEG encode + threshold split +
envelope sealing on upload, entropy decode + decrypt + reconstruction
on download — are pure functions of bytes and config.  These task
dataclasses carry exactly that state, so a ``"process"``
:class:`~repro.api.executors.Executor` can ship them to worker
processes; the stateful ends (PSP ingest —
including :class:`~repro.api.fanout.FanoutPSP` fan-out and failover —
and blob-store puts/gets, replicated or not) stay in the parent where
the backend objects live.

The reconstruction path is the same :func:`repro.serve.reconstruct.
reconstruct_served` core the serving engine (and thus the session and
the gateway) uses, so batch downloads are bit-for-bit identical to the
single-photo path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import P3Config
from repro.core.decryptor import P3Decryptor
from repro.core.encryptor import EncryptedPhoto, P3Encryptor
from repro.core.serialization import SecretPart
from repro.serve.reconstruct import reconstruct_served
from repro.system.reverse import TransformEstimate


@dataclass(frozen=True)
class EncryptTask:
    """Sender-side work unit: one photo in, two encoded parts out.

    Exactly one of ``jpeg`` / ``pixels`` must be set.
    """

    key: bytes = field(repr=False)  # taint: source(secret)
    config: P3Config
    jpeg: bytes | None = None
    pixels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.jpeg is None) == (self.pixels is None):
            raise ValueError(
                "EncryptTask needs exactly one of jpeg= or pixels="
            )


def run_encrypt_task(task: EncryptTask) -> EncryptedPhoto:
    """Encode + split + seal one photo (safe to run in any process)."""
    encryptor = P3Encryptor(task.key, task.config)
    if task.jpeg is not None:
        return encryptor.encrypt_jpeg(task.jpeg)
    return encryptor.encrypt_pixels(task.pixels)


@dataclass(frozen=True)
class DecryptTask:
    """Recipient-side work unit: served public part (+ envelope) in,
    reconstructed pixels out.

    ``secret_envelope=None`` is the key-less viewer: only the public
    part is decoded.  ``resolution``/``crop_box`` describe the dynamic
    transform the PSP applied, exactly as the recipient proxy receives
    them, and ``transform_estimate`` is the proxy's reverse-engineered
    PSP pipeline (a plain dataclass, so it pickles to workers).
    """

    key: bytes | None = field(repr=False)  # taint: source(secret)
    public_jpeg: bytes
    secret_envelope: bytes | None = field(  # taint: source(secret)
        default=None, repr=False
    )
    resolution: int | None = None
    crop_box: tuple[int, int, int, int] | None = None
    transform_estimate: "TransformEstimate | None" = None

    def __post_init__(self) -> None:
        if self.secret_envelope is not None and self.key is None:
            raise ValueError("a secret envelope needs a key to open it")


def run_decrypt_task(task: DecryptTask) -> np.ndarray:  # taint: sanitizer
    """Reconstruct one served photo (safe to run in any process)."""
    secret_part: SecretPart | None = None
    if task.secret_envelope is not None:
        secret_part = P3Decryptor(task.key).open_secret(task.secret_envelope)
    return reconstruct_served(
        task.public_jpeg,
        secret_part,
        resolution=task.resolution,
        crop_box=task.crop_box,
        transform_estimate=task.transform_estimate,
    )
