"""Authenticated encryption envelope for P3 secret parts.

Layout (encrypt-then-MAC):

    magic "P3E1" | nonce (12 bytes) | ciphertext | HMAC-SHA256 tag (32)

The payload is AES-CTR encrypted; the tag authenticates header + nonce +
ciphertext with a key derived from the shared key.  The paper notes the
storage provider "cannot leak photo privacy because the secret part is
encrypted" and treats tampering as out of scope — the HMAC makes
tampering at least detectable, which the system tests exercise.
"""

from __future__ import annotations

import hashlib
import hmac
import os

from repro.crypto.modes import ctr_transform

MAGIC = b"P3E1"
NONCE_SIZE = 12
TAG_SIZE = 32


class EnvelopeError(ValueError):
    """Raised when an envelope is malformed or fails authentication."""


def _derive_keys(key: bytes) -> tuple[bytes, bytes]:
    """Derive independent cipher and MAC keys from the shared key."""
    cipher_key = hashlib.sha256(b"P3 cipher" + key).digest()[:16]
    mac_key = hashlib.sha256(b"P3 mac" + key).digest()
    return cipher_key, mac_key


def seal_envelope(  # taint: sanitizer
    key: bytes,
    plaintext: bytes,
    nonce: bytes | None = None,
) -> bytes:
    """Encrypt and authenticate ``plaintext`` under the shared ``key``.

    ``nonce`` may be supplied for deterministic tests; it must then be
    unique per key in real use.
    """
    if nonce is None:
        nonce = os.urandom(NONCE_SIZE)
    if len(nonce) != NONCE_SIZE:
        raise EnvelopeError(f"nonce must be {NONCE_SIZE} bytes")
    cipher_key, mac_key = _derive_keys(key)
    ciphertext = ctr_transform(cipher_key, nonce, plaintext)
    body = MAGIC + nonce + ciphertext
    tag = hmac.new(mac_key, body, hashlib.sha256).digest()
    return body + tag


def open_envelope(key: bytes, envelope: bytes) -> bytes:  # taint: source(secret)
    """Authenticate and decrypt an envelope produced by :func:`seal_envelope`."""
    minimum = len(MAGIC) + NONCE_SIZE + TAG_SIZE
    if len(envelope) < minimum:
        raise EnvelopeError("envelope too short")
    if envelope[: len(MAGIC)] != MAGIC:
        raise EnvelopeError("bad envelope magic")
    body = envelope[:-TAG_SIZE]
    tag = envelope[-TAG_SIZE:]
    cipher_key, mac_key = _derive_keys(key)
    expected = hmac.new(mac_key, body, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise EnvelopeError("authentication failed (tampered envelope?)")
    nonce = envelope[len(MAGIC) : len(MAGIC) + NONCE_SIZE]
    ciphertext = body[len(MAGIC) + NONCE_SIZE :]
    return ctr_transform(cipher_key, nonce, ciphertext)
