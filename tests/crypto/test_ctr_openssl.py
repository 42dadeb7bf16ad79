"""AES-CTR and the envelope against OpenSSL, the outside oracle.

Production and the scalar oracle (:mod:`tests.crypto.oracles`)
agreeing proves nothing about the standard; OpenSSL's AES-CTR (through
``cryptography``) does.  Its counter is the whole 16-byte block,
big-endian, wrapping at 2**128, which is what
:func:`repro.crypto.modes.ctr_transform` builds from a zero-padded
nonce.  An envelope built from OpenSSL's AES-CTR and ``cryptography``'s
HMAC-SHA256 must equal :func:`repro.crypto.envelope.seal_envelope`'s
bytes.  Skips where ``cryptography`` does not import.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.envelope import (
    MAGIC,
    TAG_SIZE,
    EnvelopeError,
    _derive_keys,
    open_envelope,
    seal_envelope,
)
from repro.crypto.modes import ctr_transform
from tests.crypto import oracles

ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
hashes = pytest.importorskip("cryptography.hazmat.primitives.hashes")
outside_hmac = pytest.importorskip("cryptography.hazmat.primitives.hmac")

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

#: The scalar oracle runs one Python call per block; a shorter list.
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
        assert oracles.ctr_transform(key, nonce, data) == _openssl_ctr(
            key, nonce, data
        ), length


def _openssl_envelope(key: bytes, plaintext: bytes, nonce: bytes) -> bytes:
    """The envelope format built from OpenSSL's AES-CTR and HMAC-SHA256,
    under the keys :func:`~repro.crypto.envelope._derive_keys` makes."""
    cipher_key, mac_key = _derive_keys(key)
    body = MAGIC + nonce + _openssl_ctr(cipher_key, nonce, plaintext)
    mac = outside_hmac.HMAC(mac_key, hashes.SHA256())
    mac.update(body)
    return body + mac.finalize()


@pytest.mark.parametrize("length", [0, 1, 16, 17, 4099])
def test_envelope_matches_openssl(length):
    rng = np.random.default_rng(length)
    key = rng.integers(0, 256, 32, dtype=np.uint8).tobytes()
    plaintext = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
    nonce = bytes(range(7, 19))
    outside = _openssl_envelope(key, plaintext, nonce)
    assert seal_envelope(key, plaintext, nonce=nonce) == outside
    assert open_envelope(key, outside) == plaintext
    tag_start = len(outside) - TAG_SIZE
    for index in range(TAG_SIZE):
        flipped = bytearray(outside)
        flipped[tag_start + index] ^= 1 << (index % 8)
        with pytest.raises(EnvelopeError, match="authentication failed"):
            open_envelope(key, bytes(flipped))
