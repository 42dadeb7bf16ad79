"""AES-CTR against OpenSSL, the outside oracle for both engines.

Both engines agreeing proves nothing about the standard; OpenSSL's
AES-CTR (through ``cryptography``) does.  Its counter is the whole
16-byte block, big-endian, wrapping at 2**128, which is what
:func:`repro.crypto.modes.ctr_transform` builds from a zero-padded
nonce.  Skips where ``cryptography`` does not import.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.modes import ctr_transform

ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")

NONCES = {
    "empty": b"",
    "8-byte": bytes(range(1, 9)),
    "12-byte": bytes(range(40, 52)),
    "16-byte": bytes(range(200, 216)),
    "low-half-carry": b"\x00" * 8 + b"\xff" * 8,
    "wraps-2**128": b"\xff" * 16,
}

#: Every partial-block length over three blocks, the lengths around
#: 4096, and some in between; 4099 is the longest.
LENGTHS = sorted({*range(0, 49), 255, 256, 257, 1000, *range(4090, 4100)})

#: The scalar engine runs one Python call per block; a shorter list.
SCALAR_LENGTHS = (0, 1, 15, 16, 17, 33, 257, 4099)


def _openssl_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    cipher = ciphers.Cipher(
        ciphers.algorithms.AES(key), ciphers.modes.CTR(nonce.ljust(16, b"\x00"))
    )
    encryptor = cipher.encryptor()
    return encryptor.update(data) + encryptor.finalize()


@pytest.mark.parametrize("key_size", [16, 24, 32])
@pytest.mark.parametrize("nonce", NONCES.values(), ids=NONCES.keys())
def test_ctr_transform_matches_openssl(key_size, nonce):
    rng = np.random.default_rng(key_size * 1000 + len(nonce))
    key = rng.integers(0, 256, key_size, dtype=np.uint8).tobytes()
    message = rng.integers(0, 256, max(LENGTHS), dtype=np.uint8).tobytes()
    for length in LENGTHS:
        data = message[:length]
        assert ctr_transform(key, nonce, data) == _openssl_ctr(key, nonce, data), length
    for length in SCALAR_LENGTHS:
        data = message[:length]
        assert ctr_transform(key, nonce, data, fast=False) == _openssl_ctr(
            key, nonce, data
        ), length
